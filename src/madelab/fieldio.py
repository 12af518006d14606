"""Field file formats shared project-wide.

CSV: header line `# nx ny x0 y0 dx dy`, then one comma-separated line per
grid row (bottom row first), NaN marking masked cells.

Every number in a text dump is the shortest decimal that reads back as the
same double (the closest such when there are several, ties to an even last
digit), in Python `repr`'s layout: `0.0001`, `123.0`, `1e-05`, `1e+16`,
`nan`, `-inf`. The digits come from R. Giulietti's Schubfach algorithm ("The
Schubfach way to render doubles", 2020), run in numpy on blocks of rows:
one exact product per double gives its scaled value, and adding or
subtracting the interval's half-widths gives both ends of its rounding
interval. Every cell takes one path, built for the common double with 16 or
17 digits and no exponent. Only the cells that need more are handled again
on their own, picked out by index: a decimal that ends in zeros to strip,
an exponent (`1e-05`, `1e+16`, `5e-324`), a subnormal, and the named cells
`0.0`, `-0.0`, `nan`, `inf` and `-inf`. numpy's own float-to-string cast
writes the same bytes, but several times slower.

Binary: magic bytes `MFLD1`; nx, ny as 64-bit little-endian unsigned;
x0, y0, dx, dy as little-endian doubles; then nx*ny little-endian doubles
row-major (NaN = masked).

Complex fields are stored as two scalar files suffixed `.re` and `.im`.

The writers write each field's `values` as they are: `grid` holds NaN in
every invalid cell, so the files need no masking of their own. Each writer
returns the SHA-256 hex digest of the bytes it wrote, hashed as they are
written, so no file is read back to be hashed.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .grid import ComplexField, GridSpec, ScalarField

MAGIC = b"MFLD1"
_HEADER = struct.Struct("<QQdddd")


class FieldFormatError(ValueError):
    """Raised on a malformed field file."""


class Part(NamedTuple):
    """A grid and one array of values: all that the writers read of a field.
    Built from a component of a `VectorField` or a part of a `ComplexField`,
    whose invalid cells already hold NaN, it shares their memory, where a
    `ScalarField` would copy them to set the same NaN again."""
    spec: GridSpec
    values: np.ndarray


def _write_hashed(path: str | Path, chunks) -> str:
    """Write the bytes-like `chunks` to `path` in order; return the SHA-256
    hex digest of everything written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


# --- text dumps: each double as `repr` writes it, formatted in numpy --------
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) finds
# the shortest decimal in a double's rounding interval, the closest one when
# there are several, with 64-bit integer arithmetic only. Java's rule of at
# least two digits is left out, and with it the path for the two least
# subnormals, so 8e-323 stays `8e-323` as in `repr`.
#
# A double becomes a cell of four little-endian 64-bit words, 32 bytes: the
# sign, digits and point end at byte 23; the exponent, if any, starts at
# byte 24 and the separator follows. Every other byte is NUL, so cells laid
# side by side are the text once their NULs are dropped.

_U = np.uint64
_M32, _M52, _M63 = _U(0xFFFFFFFF), _U((1 << 52) - 1), _U((1 << 63) - 1)
_BLOCK = 1 << 13  # values formatted or copied at a time, in whole rows: bounds the temporaries
_POW10 = 10 ** np.arange(18, dtype=_U)
_WORD = np.dtype("<u8")
_ONE, _INF = _U(0x3FF << 52), _U(0x7FF << 52)


def _words(texts):
    """Each text, NUL-padded to 8 bytes, as a little-endian word."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), _WORD).astype(_U)


@functools.cache
def _tables():
    """Built on the first text dump.

    Giulietti's g(k) = floor(10**-k / 2**r) + 1, 2**125 <= g < 2**126, for
    k = -324..292, as g1 = g >> 63 and g0 = g mod 2**63. By exponent index
    j = 2 * (biased exponent) + (significand all zero): k, and the shifts
    h + 2 taking c to cp = c << h + 2 and h + 1 - edge giving the lower
    half-width of the rounding interval, g << h + 1 - edge in the units of
    g * cp (the upper one is g << h + 1).

    By layout index ((dp' + 4) * 18 + n) * 2 + sign, where dp' is the
    decimal point (v = 0.d * 10**dp) clipped to -4..17, either end meaning
    an exponent, and n the digit count: the power of ten that splits d at
    the point and what to add per unit of the quotient to open a zero digit
    there; then, for each digit word, what to subtract from the zero-padded
    digits to make the cell: every '0' before the number a NUL, the one
    before it a '-' if the sign is set, the one at the point a '.'.

    The digit words "000000dd" and "dddd"; `repr`'s exponents e-324..e+308
    with their widths in bits; and the last word of 0.0, -0.0, nan, inf and
    -inf."""
    betas = ((10 ** max(-k, 0) << 1100) // 10 ** max(k, 0) for k in range(-324, 293))
    gs = [(b >> b.bit_length() - 126) + 1 for b in betas]
    g = np.array([x >> 63 for x in gs], _U), np.array([x & (1 << 63) - 1 for x in gs], _U)
    ex = np.arange(4096) >> 1
    edge = (np.arange(4096) & 1) * (ex > 1)  # the rounding interval is narrower below
    q = np.maximum(ex, 1) - 1075
    k = (q * 661971961083 - edge * 274743187321) >> 41
    h = q + (-k * 913124641741 >> 38) + 2
    by_exp = k, (h + 2).astype(_U), (h + 1 - edge).astype(_U)
    by_layout = np.zeros((22 * 18 * 2, 5), _U)
    for dp in range(-4, 18):
        for n in range(1, 18):  # the rows of n = 0 stay 0: no d has 0 digits
            frac, fixed = n - dp, -4 < dp <= 16
            if fixed:
                split, gap, nf = min(max(frac, 0), n), max(-frac, 0), max(frac, 1)
            else:
                split, gap, nf = n - 1, 0, n - 1
            width = (max(dp, 1) if fixed else 1) + (nf > 0) + nf
            div, mul = 10 ** split, 10 ** (gap + min(nf + (nf > 0), 17))
            for sign in (0, 1):
                cut = bytearray(24)
                cut[:24 - width - sign] = b"0" * (24 - width - sign)
                cut[23 - width] += sign * (ord("0") - ord("-"))
                if nf:
                    cut[23 - nf] = ord("0") - ord(".")
                row = ((dp + 4) * 18 + n) * 2 + sign
                by_layout[row] = div, mul - div, *np.frombuffer(bytes(cut), _WORD)
    exps = [f"e{x:+03d}" for x in range(-324, 309)]
    return (g, by_exp, tuple(by_layout.T.copy()),
            (_words(f"{i:08d}" for i in range(100)),
             np.char.zfill(np.arange(10000).astype("S4"), 4).view("<u4").astype(_U)),
            (_words(exps), np.array([8 * len(x) for x in exps], _U)),
            _words(t.rjust(8, "\0") for t in ("0.0", "-0.0", "nan", "inf", "-inf")))


def _mulhi(a, b0, b1):
    """The high 64 bits of the products a * b, a < 2**63 and b < 2**60,
    b given as its 32-bit halves."""
    a0, a1 = a & _M32, a >> _U(32)
    hi = a0 * b0
    hi >>= _U(32)
    hi += a0 * b1
    hi += a1 * b0
    hi >>= _U(32)
    hi += a1 * b1
    return hi


def _product(g1, g0, cp):
    """g * cp, g = g1 * 2**63 + g0, exactly, as (top, mid, x0): bits 127
    up, 64-126 and 0-63. cp is even, so g1 * cp * 2**63 has no bit below 64."""
    c0, c1 = cp & _M32, cp >> _U(32)
    top = _mulhi(g1, c0, c1)
    mid = g1 * cp
    mid >>= _U(1)
    mid += _mulhi(g0, c0, c1)
    top += mid >> _U(63)
    mid &= _M63
    return top, mid, g0 * cp


def _end(top, mid, x0, g1, g0, t, below):
    """g * cp, as `_product` gives it, plus g << t (1 <= t < 64), or minus
    it if `below`: bits 127 up, the last one set if bits 64-126 are not
    all 0."""
    low, middle, high = g0 << t, g1 << t - _U(1), g1 >> _U(64) - t
    middle += g0 >> _U(64) - t
    middle &= _M63
    if below:
        carry = x0 < low
        middle = np.subtract(mid, middle, out=middle)
        middle -= carry
        end = np.subtract(top, high, out=high)
        end -= middle >> _U(63)
    else:
        low += x0
        carry = low < x0
        middle += mid
        middle += carry
        end = np.add(top, high, out=high)
        end += middle >> _U(63)
    middle &= _M63
    end |= middle != 0
    return end


def _interval(a, sub, g, by_exp):
    """Giulietti's k, vb, vbl and vbr for the positive finite doubles whose
    bits are `a`, the subnormal ones at the flat indices `sub`: 4 v and the
    ends of its rounding interval, times 10**-k and rounded down with the
    last bit set when inexact; when v's significand c is odd, the ends move
    in by one, as they do not read back as v."""
    c = a & _M52
    j = (a >> _U(52)).view(np.int64)
    j *= 2
    j += c == 0
    k, shift, lower = (t.take(j) for t in by_exp)
    c |= _U(1 << 52)
    c.reshape(-1)[sub] &= _M52  # no hidden bit
    g1, g0 = (t.take(k + 324) for t in g)
    odd = c & _U(1)
    top, mid, x0 = _product(g1, g0, np.left_shift(c, shift, out=c))
    shift -= _U(1)
    vbr = _end(top, mid, x0, g1, g0, shift, below=False)
    vbr -= odd
    vbl = _end(top, mid, x0, g1, g0, lower, below=True)
    vbl += odd
    top |= mid != 0
    return k, top, vbl, vbr


def _digits(a, sub, g, by_exp):
    """(d, n, dp) for the positive finite doubles whose bits are `a`, the
    subnormal ones at the flat indices `sub`: d * 10**(dp - n) is the
    shortest decimal, then the closest (ties to an even d), that reads back
    as the double; d has n digits and no trailing zero."""
    k, vb, vbl, vbr = _interval(a, sub, g, by_exp)
    s = vb >> _U(2)
    t = s // _U(10)
    t40 = t * _U(40)
    shorter = vbl <= t40
    t40 += _U(40)
    up10 = t40 <= vbr
    shorter ^= up10  # just one multiple of 10 inside: d is it, less its last 0
    s4 = vb & ~_U(3)
    inside = vbl <= s4
    s4 += _U(4)
    up = s4 <= vbr
    # both or neither of s and s + 1 inside: the nearer, ties to an even s,
    # so up if vb & 7 is 3, 6 or 7
    vb &= _U(7)
    tie = np.right_shift(_U(0xC8), vb, out=vb)
    tie &= _U(1)
    inside = np.equal(inside, up, out=inside)
    inside &= up ^ (tie != 0)
    up ^= inside
    s += up
    t += up10
    d = np.subtract(t, s, out=t)  # then t if shorter, else s
    d *= shorter
    d += s
    n = 15 + (d >= _POW10[15])
    n += d >= _POW10[16]
    n.reshape(-1)[sub] = np.searchsorted(_POW10, d.reshape(-1)[sub], "right")
    dp = k
    dp += shorter
    dp += n
    t = d // _U(10)
    t *= _U(10)
    zeros = np.flatnonzero(t == d)
    if zeros.size:  # strip trailing zeros where there are any
        dz, cut = d.reshape(-1)[zeros], 0
        for p in (16, 8, 4, 2, 1):
            q = dz // _POW10[p]
            strip = q * _POW10[p] == dz
            dz, cut = np.where(strip, q, dz), cut + strip * p
        d.reshape(-1)[zeros] = dz
        n.reshape(-1)[zeros] -= cut
    return d, n, dp


def _cells(v, sep):
    """Each double of `v` as `repr` writes it, then its byte of `sep`
    (broadcast against `v`), as a cell: an array of shape v.shape + (4,)."""
    g, by_exp, (div, step, *cuts), (d2, d4), (exp_words, exp_bits), literals = _tables()
    bits = np.asarray(v, dtype=np.float64).view(_U)
    a = bits & _M63
    rare = np.flatnonzero(a - _U(1 << 52) >= _INF - _U(1 << 52))  # 0, subnormal, inf, nan
    rare_a = a.reshape(-1)[rare]
    named = (rare_a == 0) | (rare_a >= _INF)
    literal, literal_a = rare[named], rare_a[named]
    a.reshape(-1)[literal] = _ONE  # formatted as 1.0, then replaced
    d, n, dp = _digits(a, rare[~named], g, by_exp)
    li = np.clip(dp, -4, 17)  # the layout index of `_tables`
    li *= 36
    li += n
    li += n
    li += (bits >> _U(63)).view(np.int64)
    li += 144
    digits = d // div.take(li)
    digits *= step.take(li)
    digits += d
    out = np.empty(a.shape + (4,), _WORD)
    high = digits // _U(10 ** 16)
    out[..., 0] = d2.take(high) - cuts[0].take(li)
    digits -= high * _U(10 ** 16)
    high = digits // _U(10 ** 8)
    digits -= high * _U(10 ** 8)
    for i, x in ((1, high), (2, digits)):
        h = x // _U(10 ** 4)
        x -= h * _U(10 ** 4)
        word = d4.take(x)
        word <<= _U(32)
        word |= d4.take(h)
        word -= cuts[i].take(li)
        out[..., i] = word
    out[..., 3] = sep
    cells = out.reshape(-1, 4)
    exps = np.flatnonzero((dp + 3).view(_U) > _U(19))  # dp < -3 or dp > 16
    if exps.size:
        x = dp.reshape(-1)[exps] + 323
        cells[exps, 3] = exp_words.take(x) | cells[exps, 3] << exp_bits.take(x)
    if literal.size:
        sign = (bits.flat[literal] >> _U(63)).view(np.int64)
        kind = np.where(literal_a == 0, sign, np.where(literal_a == _INF, 3 + sign, 2))
        cells[literal, 2] = literals.take(kind)
    return out


def _text(parts, shape):
    """The text of `parts`, arrays of cells, broadcast to `shape` and laid
    side by side."""
    if len(parts) > 1:
        parts = [np.concatenate([np.broadcast_to(p, shape + p.shape[-1:]) for p in parts], -1)]
    chars = parts[0].view(np.uint8).reshape(-1)
    return chars[chars != 0].tobytes()


def _row_blocks(values):
    """(j, values[j:j + rows]) for blocks of whole rows."""
    rows = max(1, _BLOCK // values.shape[1])
    return ((j, values[j:j + rows]) for j in range(0, values.shape[0], rows))


def _csv_lines(block) -> bytes:
    """`",".join(map(repr, row)) + "\n"` for each row of the 2-D `block`."""
    sep = np.full(block.shape[1], ord(","), np.uint8)
    sep[-1] = ord("\n")
    return _text([_cells(block, sep)], block.shape)


def write_csv(f: ScalarField | Part, path: str | Path) -> str:
    s = f.spec
    header = f"# {s.nx} {s.ny} {s.x0!r} {s.y0!r} {s.dx!r} {s.dy!r}\n"
    rows = (_csv_lines(b) for _, b in _row_blocks(f.values))
    return _write_hashed(path, chain([header.encode()], rows))


def read_csv(path: str | Path) -> ScalarField:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise FieldFormatError(f"{path}: missing header line")
        parts = header[1:].split()
        if len(parts) != 6:
            raise FieldFormatError(f"{path}: header needs 6 entries, got {len(parts)}")
        try:
            spec = GridSpec(int(parts[0]), int(parts[1]), *map(float, parts[2:]))
            rows = [np.array([float(tok) for tok in line.split(",")])
                    for line in fh if line.strip()]
        except ValueError as err:
            raise FieldFormatError(f"{path}: {err}") from err
    if len(rows) != spec.ny or any(row.size != spec.nx for row in rows):
        raise FieldFormatError(f"{path}: expected {spec.ny} rows of {spec.nx} values, got "
                               f"{len(rows)} rows of {sorted({row.size for row in rows})}")
    return ScalarField(spec, np.array(rows))


def write_binary(f: ScalarField | Part, path: str | Path) -> str:
    """C-contiguous little-endian doubles are written as they are; any other
    array, such as one part of a complex field, in blocks of whole rows, so
    the writer makes no grid-sized copy."""
    s = f.spec
    header = MAGIC + _HEADER.pack(s.nx, s.ny, s.x0, s.y0, s.dx, s.dy)
    v = f.values
    if v.flags.c_contiguous and v.dtype == "<f8":
        return _write_hashed(path, (header, v))
    blocks = (np.ascontiguousarray(b, "<f8") for _, b in _row_blocks(v))
    return _write_hashed(path, chain([header], blocks))


def read_binary(path: str | Path) -> ScalarField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FieldFormatError(f"{path}: bad magic bytes {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FieldFormatError(f"{path}: header needs {_HEADER.size} bytes, got {len(header)}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    try:
        spec = GridSpec(*_HEADER.unpack(header))
    except ValueError as err:
        raise FieldFormatError(f"{path}: {err}") from err
    if data.size != spec.size:
        raise FieldFormatError(f"{path}: expected {spec.size} doubles, got {data.size}")
    return ScalarField(spec, data.reshape(spec.shape).astype(float))


def complex_parts(f: ComplexField, path: str | Path) -> list[tuple[Part, Path]]:
    """The `.re` and `.im` parts of `f`, views of its values, with the paths
    they go to."""
    path = Path(path)
    return [(Part(f.spec, f.values.real), path.with_name(path.name + ".re")),
            (Part(f.spec, f.values.imag), path.with_name(path.name + ".im"))]


def write_complex(f: ComplexField, path: str | Path) -> tuple[Path, Path]:
    (re, re_path), (im, im_path) = complex_parts(f, path)
    write_binary(re, re_path)
    write_binary(im, im_path)
    return re_path, im_path


def write_gnuplot(f: ScalarField | Part, path: str | Path) -> str:
    """Whitespace `x y value` table with blank lines between rows."""
    nx = f.spec.nx
    xs, ys = _cells(f.spec.x(), ord(" ")), _cells(f.spec.y(), ord(" "))
    blank = np.zeros((nx, 1), _WORD)
    blank[-1] = ord("\n")
    rows = (_text([xs, ys[j:j + len(b), None], _cells(b, ord("\n")), blank], b.shape)
            for j, b in _row_blocks(f.values))
    return _write_hashed(path, rows)
