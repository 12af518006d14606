"""Closed-form complex expressions in x and y.

Grammar (precedence low to high):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := number | 'pi' | 'e' | 'i' | 'x' | 'y'
             | func '(' sum (',' sum)* ')' | '(' sum ')'

All arithmetic is complex; ln and sqrt take the principal branch; `^` with
a non-integer exponent is exp(b*ln a) on the principal branch; atan2 uses
the real parts of its arguments. Non-finite results (division by zero,
overflow) propagate as non-finite values for the caller to mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec

FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "ln": 1,
    "sqrt": 1,
    "abs": 1,
    "atan2": 2,
    "re": 1,
    "im": 1,
    "conj": 1,
}

CONSTANTS = ("pi", "e", "i")
VARIABLES = ("x", "y")


class ParseError(ValueError):
    def __init__(self, src: str, pos: int, message: str, expected: str = ""):
        self.offset = len(src[:pos].encode("utf-8"))
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"parse error at offset {self.offset}: {message}{hint}")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # pi | e | i


@dataclass(frozen=True)
class Var:
    name: str  # x | y


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Num | Const | Var | Neg | BinOp | Call


# --- Tokenizer -------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | comma | end
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    n = len(src)
    pos = 0
    while pos < n:
        c = src[pos]
        if c.isspace():
            pos += 1
            continue
        if c.isdigit() or (c == "." and pos + 1 < n and src[pos + 1].isdigit()):
            start = pos
            while pos < n and (src[pos].isdigit() or src[pos] == "."):
                pos += 1
            if pos < n and src[pos] in "eE":
                mark = pos
                pos += 1
                if pos < n and src[pos] in "+-":
                    pos += 1
                if pos < n and src[pos].isdigit():
                    while pos < n and src[pos].isdigit():
                        pos += 1
                else:
                    pos = mark  # trailing 'e' is the constant, not an exponent
            tokens.append(_Token("num", src[start:pos], start))
            continue
        if c.isalpha() or c == "_":
            start = pos
            while pos < n and (src[pos].isalnum() or src[pos] == "_"):
                pos += 1
            tokens.append(_Token("name", src[start:pos], start))
            continue
        if c in "+-*/^":
            tokens.append(_Token("op", c, pos))
            pos += 1
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, pos))
            pos += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, pos))
            pos += 1
            continue
        if c == ",":
            tokens.append(_Token("comma", c, pos))
            pos += 1
            continue
        raise ParseError(src, pos, f"unexpected character {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


# --- Parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def _expect(self, kind: str, expected: str) -> _Token:
        if self.cur.kind != kind:
            got = self.cur.text or "end of input"
            raise ParseError(self.src, self.cur.pos, f"unexpected {got!r}", expected)
        return self._advance()

    def parse(self) -> Expr:
        e = self.sum()
        if self.cur.kind != "end":
            raise ParseError(self.src, self.cur.pos,
                             f"unexpected {self.cur.text!r} after expression",
                             "end of input")
        return e

    def sum(self) -> Expr:
        e = self.product()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self._advance().text
            e = BinOp(op, e, self.product())
        return e

    def product(self) -> Expr:
        e = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self._advance().text
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text == "-":
            self._advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self._advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self._advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self._advance()
            name = tok.text
            if name in FUNCTIONS:
                self._expect("lparen", "'(' after function name")
                args = [self.sum()]
                while self.cur.kind == "comma":
                    self._advance()
                    args.append(self.sum())
                self._expect("rparen", "')'")
                if len(args) != FUNCTIONS[name]:
                    raise ParseError(self.src, tok.pos,
                                     f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}")
                return Call(name, tuple(args))
            if name in CONSTANTS:
                return Const(name)
            if name in VARIABLES:
                return Var(name)
            raise ParseError(self.src, tok.pos, f"unknown identifier {name!r}")
        if tok.kind == "lparen":
            self._advance()
            e = self.sum()
            self._expect("rparen", "')'")
            return e
        got = tok.text or "end of input"
        raise ParseError(self.src, tok.pos, f"unexpected {got!r}", "value")


def parse(src: str) -> Expr:
    return _Parser(src).parse()


# --- Evaluation ------------------------------------------------------------

def _principal(a):
    """Normalize -0.0 imaginary parts to +0.0 so branch cuts of ln/sqrt
    are approached from above on the negative real axis (sqrt(-4) = 2i)."""
    return np.real(a) + 1j * (np.imag(a) + 0.0)


def _is_int_exponent(b) -> bool:
    b = np.asarray(b)
    return b.ndim == 0 and b.imag == 0 and float(b.real).is_integer()


def _eval(e: Expr, x, y):
    if isinstance(e, Num):
        return np.complex128(e.value)
    if isinstance(e, Const):
        return {"pi": np.complex128(np.pi), "e": np.complex128(np.e), "i": np.complex128(1j)}[e.name]
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Neg):
        return -_eval(e.arg, x, y)
    if isinstance(e, BinOp):
        a = _eval(e.left, x, y)
        b = _eval(e.right, x, y)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        # '^': exact for integer exponents, principal exp(b*ln a) otherwise
        if _is_int_exponent(b):
            return np.power(a, int(np.asarray(b).real))
        return np.exp(b * np.log(_principal(a)))
    if isinstance(e, Call):
        args = [_eval(a, x, y) for a in e.args]
        a = args[0]
        if e.name == "sin":
            return np.sin(a)
        if e.name == "cos":
            return np.cos(a)
        if e.name == "tan":
            return np.tan(a)
        if e.name == "exp":
            return np.exp(a)
        if e.name == "ln":
            return np.log(_principal(a))
        if e.name == "sqrt":
            return np.sqrt(_principal(a))
        if e.name == "abs":
            return np.abs(a) + 0j
        if e.name == "atan2":
            return np.arctan2(np.real(a), np.real(args[1])) + 0j
        if e.name == "re":
            return np.real(a) + 0j
        if e.name == "im":
            return np.imag(a) + 0j
        if e.name == "conj":
            return np.conj(a)
    raise TypeError(f"not an Expr node: {e!r}")


def evaluate(e: Expr, x: float, y: float) -> complex:
    with np.errstate(all="ignore"):
        return complex(_eval(e, np.complex128(x), np.complex128(y)))


def eval_field(e: Expr, spec: GridSpec) -> ComplexField:
    """Evaluate at every cell center; non-finite cells come back masked."""
    X, Y = spec.meshgrid()
    with np.errstate(all="ignore"):
        v = _eval(e, X.astype(complex), Y.astype(complex))
    values = np.broadcast_to(np.asarray(v, dtype=complex), spec.shape).copy()
    return ComplexField(spec, values)
