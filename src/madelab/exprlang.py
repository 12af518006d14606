"""Closed-form complex expressions in x and y.

Grammar (precedence low to high):

    sum     := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := number | 'pi' | 'e' | 'i' | 'x' | 'y'
             | func '(' sum (',' sum)* ')' | '(' sum ')'
    number  := \\.?\\d[\\d.]*([eE][+-]?\\d+)?  # greedy; float() must accept it

All arithmetic is complex; ln and sqrt take the principal branch; `^` with
a non-integer exponent is exp(b*ln a) on the principal branch; atan2 uses
the real parts of its arguments. Non-finite results (division by zero,
overflow) propagate as non-finite values for the caller to mask.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import ComplexField, GridSpec


class ParseError(ValueError):
    def __init__(self, src: str, pos: int, message: str, expected: str = ""):
        self.offset = len(src[:pos].encode("utf-8"))
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"parse error at offset {self.offset}: {message}{hint}")


# --- Names and operators ---------------------------------------------------

def _principal(a):
    """Normalize -0.0 imaginary parts to +0.0 so branch cuts of ln/sqrt
    are approached from above on the negative real axis (sqrt(-4) = 2i)."""
    return np.real(a) + 1j * (np.imag(a) + 0.0)


def _power(a, b):
    """Exact for integer exponents, principal exp(b*ln a) otherwise."""
    n = np.asarray(b)
    if n.ndim == 0 and n.imag == 0 and float(n.real).is_integer():
        return np.power(a, int(n.real))
    return np.exp(b * np.log(_principal(a)))


# name -> (arity, implementation on complex values)
FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tan": (1, np.tan),
    "exp": (1, np.exp),
    "ln": (1, lambda a: np.log(_principal(a))),
    "sqrt": (1, lambda a: np.sqrt(_principal(a))),
    "abs": (1, lambda a: np.abs(a) + 0j),
    "atan2": (2, lambda a, b: np.arctan2(np.real(a), np.real(b)) + 0j),
    "re": (1, lambda a: np.real(a) + 0j),
    "im": (1, lambda a: np.imag(a) + 0j),
    "conj": (1, np.conj),
}

CONSTANTS = {"pi": np.complex128(np.pi), "e": np.complex128(np.e), "i": np.complex128(1j)}
VARIABLES = ("x", "y")

BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "^": _power}


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

# A number is the greedy run of the `number` production: a trailing 'e'
# with no digits after it is left for the constant. Every other non-space
# character is a token of its own, and a punctuation token's kind is the
# character itself.
_TOKEN = re.compile(r"(?P<num>\.?\d[\d.]*(?:[eE][+-]?\d+)?)|(?P<name>[^\W\d]\w*)|\S")
_KINDS = {"num", "name", *"+-*/^(),"}


class _Token(NamedTuple):
    kind: str  # num | name | end | the punctuation character
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    for match in _TOKEN.finditer(src):
        kind = match.lastgroup or match.group()
        if kind not in _KINDS:
            raise ParseError(src, match.start(), f"unexpected character {kind!r}")
        tokens.append(_Token(kind, match.group(), match.start()))
    tokens.append(_Token("end", "", len(src)))
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
        while self.cur.kind in ("+", "-"):
            e = BinOp(self._advance().kind, e, self.product())
        return e

    def product(self) -> Expr:
        e = self.unary()
        while self.cur.kind in ("*", "/"):
            e = BinOp(self._advance().kind, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.cur.kind == "-":
            self._advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.cur.kind == "^":
            self._advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self._advance()
            try:
                return Num(float(tok.text))
            except ValueError:
                raise ParseError(self.src, tok.pos, f"malformed number {tok.text!r}") from None
        if tok.kind == "name":
            self._advance()
            name = tok.text
            if name in FUNCTIONS:
                self._expect("(", "'(' after function name")
                args = [self.sum()]
                while self.cur.kind == ",":
                    self._advance()
                    args.append(self.sum())
                self._expect(")", "')'")
                arity = FUNCTIONS[name][0]
                if len(args) != arity:
                    raise ParseError(self.src, tok.pos,
                                     f"{name} takes {arity} argument(s), got {len(args)}")
                return Call(name, tuple(args))
            if name in CONSTANTS:
                return Const(name)
            if name in VARIABLES:
                return Var(name)
            raise ParseError(self.src, tok.pos, f"unknown identifier {name!r}")
        if tok.kind == "(":
            self._advance()
            e = self.sum()
            self._expect(")", "')'")
            return e
        got = tok.text or "end of input"
        raise ParseError(self.src, tok.pos, f"unexpected {got!r}", "value")


def parse(src: str) -> Expr:
    parser = _Parser(src)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError(src, parser.cur.pos, "expression nests too deeply") from None


# --- Evaluation ------------------------------------------------------------

def _eval(e: Expr, x, y):
    if isinstance(e, Num):
        return np.complex128(e.value)
    if isinstance(e, Const):
        return CONSTANTS[e.name]
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Neg):
        return -_eval(e.arg, x, y)
    if isinstance(e, BinOp):
        return BINOPS[e.op](_eval(e.left, x, y), _eval(e.right, x, y))
    if isinstance(e, Call):
        return FUNCTIONS[e.name][1](*[_eval(a, x, y) for a in e.args])
    raise TypeError(f"not an Expr node: {e!r}")


def evaluate(e: Expr, x: float, y: float) -> complex:
    with np.errstate(all="ignore"):
        return complex(_eval(e, np.complex128(x), np.complex128(y)))


def eval_field(e: Expr, spec: GridSpec) -> ComplexField:
    """Evaluate at every cell center; non-finite cells come back masked.

    x and y are full complex grids, not a row and a column broadcast: numpy
    elides temporaries of 256 KiB and more, and an elided complex product
    takes its operands in the other order, which can move the last bit."""
    X = np.broadcast_to(spec.x().astype(complex), spec.shape).copy()
    Y = np.broadcast_to(spec.y().astype(complex)[:, np.newaxis], spec.shape).copy()
    with np.errstate(all="ignore"):
        v = _eval(e, X, Y)
    values = np.broadcast_to(np.asarray(v, dtype=complex), spec.shape).copy()
    return ComplexField(spec, values)
