"""Field file formats shared project-wide.

CSV: header line `# nx ny x0 y0 dx dy`, then one comma-separated line per
grid row (bottom row first), NaN marking masked cells.

Every number in a text dump is the shortest decimal that reads back as the
same double (the closest such when there are several, ties to an even last
digit), in Python `repr`'s layout: `0.0001`, `123.0`, `1e-05`, `1e+16`,
`nan`, `-inf`. The digits come from R. Giulietti's Schubfach algorithm ("The
Schubfach way to render doubles", 2020), run in numpy on blocks of rows.
numpy's own float-to-string cast writes the same bytes, but several times
slower.

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

_U = np.uint64
_M32, _M63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_BLOCK = 1 << 13  # values formatted or copied at a time, in whole rows: bounds the temporaries
_POW10 = 10 ** np.arange(18, dtype=np.int64)
# _RUNS[a, b] keeps bytes a..b-1 of a 32-byte cell
_RUNS = (np.arange(32) >= np.arange(25)[:, None, None]) & (np.arange(32) < np.arange(31)[:, None])


@functools.cache
def _tables():
    """Built on the first text dump: Giulietti's g(k) = floor(10**-k / 2**r) + 1,
    2**125 <= g < 2**126, for k = -324..292, as g1 = g >> 63 and the 32-bit
    halves of g1 and of g0 = g mod 2**63; the uint32 words "0000".."9999",
    then "\0nan" and "\0inf"; and `repr`'s exponents e-324..e+308, each
    padded to 8 bytes."""
    betas = ((10 ** max(-k, 0) << 1100) // 10 ** max(k, 0) for k in range(-324, 293))
    gs = [(b >> b.bit_length() - 126) + 1 for b in betas]
    g1 = np.array([g >> 63 for g in gs], dtype=_U)
    g0 = np.array([g & (1 << 63) - 1 for g in gs], dtype=_U)
    words = "".join(f"{i:04d}" for i in range(10000)) + "\0nan\0inf"
    exps = "".join(f"e{x:+03d}".ljust(8, "\0") for x in range(-324, 309))
    return ((g1, g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32)),
            np.frombuffer(words.encode(), np.uint32), np.frombuffer(exps.encode(), _U))


def _mulhi(a0, a1, b0, b1):
    """The high 64 bits of the 128-bit products a*b, from 32-bit halves."""
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U(32)) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """floor(g * cp / 2**126), with the last bit set when it is inexact."""
    g1, g1l, g1h, g0l, g0h = g
    c = cp & _M32, cp >> _U(32)
    z = (g1 * cp >> _U(1)) + _mulhi(g0l, g0h, *c)
    return (_mulhi(g1l, g1h, *c) + (z >> _U(63))) | ((z & _M63) + _M63) >> _U(63)


def _shortest(a):
    """(d, e) with d * 10**e the shortest decimal, then the closest (ties to
    an even d), that reads back as each positive finite float64 in `a`."""
    bits = a.view(_U)
    bq = (bits >> _U(52)).astype(np.int64)
    c = bits & _U((1 << 52) - 1) | (bq > 0).astype(_U) << _U(52)
    q = np.maximum(bq, 1) - 1075
    edge = (c == _U(1 << 52)) & (bq > 1)  # rounding interval narrower below
    k = (q * 661971961083 - edge * 274743187321) >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(_U)
    g = [t[k + 324] for t in _tables()[0]]
    odd = c & _U(1)
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - _U(2) + edge << h) + odd
    vbr = _rop(g, cb + _U(2) << h) - odd
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    u10, w10 = vbl <= s10 << _U(2), s10 + _U(10) << _U(2) <= vbr
    u, w = vbl <= s << _U(2), s + _U(1) << _U(2) <= vbr
    mid = (s << _U(2)) + _U(2)
    up = np.where(u != w, u, (vb < mid) | (vb == mid) & (s & _U(1) == _U(0)))
    d = np.where(u10 != w10, s10 + w10 * _U(10), s + ~up)
    return d.astype(np.int64), k


def _cells(v, sep):
    """Each double of `v` as `repr` writes it, then its byte of `sep`
    (broadcast against `v`): 32 bytes per double and a mask of the bytes
    kept, which form one run. The sign, digits and point end at byte 23;
    the exponent, if any, starts at byte 24 and the separator follows."""
    v = np.asarray(v, dtype=np.float64)
    finite, zero = np.isfinite(v), v == 0
    d, e = _shortest(np.where(finite & ~zero, np.abs(v), 1.0))
    for j in (16, 8, 4, 2, 1):  # strip trailing zeros
        q = d // _POW10[j]
        m = q * _POW10[j] == d
        d, e = np.where(m, q, d), e + m * j
    n = np.searchsorted(_POW10, d, "right")
    dp = np.where(zero, 1, e + n)  # repr's decimal point: v = 0.d * 10**dp
    n[zero], d[zero] = 1, 0
    fixed = (dp > -4) & (dp <= 16)
    frac = n - dp
    whole, part = np.divmod(d, _POW10[np.where(fixed, np.clip(frac, 0, n), n - 1)])
    whole *= _POW10[np.where(fixed, np.maximum(-frac, 0), 0)]
    nf = np.where(fixed, np.maximum(frac, 1), n - 1)  # digits after the point
    dot = nf > 0
    digits = whole * _POW10[np.minimum(nf + dot, 17)] + part  # a 0 where the point goes
    _, words, exps = _tables()
    idx = np.zeros(v.shape + (6,), np.intp)
    idx[..., 1], rest = np.divmod(digits, 10 ** 16)
    hi, lo = np.divmod(rest, 10 ** 8)
    idx[..., 2], idx[..., 3] = np.divmod(hi, 10 ** 4)
    idx[..., 4], idx[..., 5] = np.divmod(lo, 10 ** 4)
    idx[~finite, 5] = 10000 + np.isinf(v[~finite])  # "\0nan", "\0inf"
    nan = np.isnan(v)
    out = np.empty(v.shape + (4,), _U)
    out.view(np.uint32)[..., :6] = words.take(idx)
    out[..., 3] = exps.take(dp + 323)
    width = np.where(finite, np.where(fixed, np.maximum(dp, 1), 1) + dot + nf, 3)
    signed = np.signbit(v) & ~nan
    ne = np.where(finite & ~fixed, 4 + (np.abs(dp - 1) >= 100), 0)
    out = out.view(np.uint8)
    flat, base = out.reshape(-1), np.arange(0, out.size, 32).reshape(v.shape)
    flat[base + np.where(signed, 23 - width, 31)] = ord("-")
    flat[base + np.where(dot & finite, 23 - nf, 31)] = ord(".")
    flat[base + 24 + ne] = np.broadcast_to(sep, v.shape)
    return out, _RUNS[24 - width - signed, 25 + ne]


def _text(parts, shape):
    """The kept bytes of `parts`, (bytes, keep) pairs as `_cells` makes
    them, broadcast to `shape` and laid side by side."""
    chars, keep = (np.concatenate([np.broadcast_to(a, shape + a.shape[-1:]) for a in arrays], -1)
                   for arrays in zip(*parts))
    return chars[keep].tobytes()


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


def write_complex(f: ComplexField, path: str | Path, writer=write_binary) -> tuple[Path, Path]:
    (re, re_path), (im, im_path) = complex_parts(f, path)
    writer(re, re_path)
    writer(im, im_path)
    return re_path, im_path


def write_gnuplot(f: ScalarField | Part, path: str | Path) -> str:
    """Whitespace `x y value` table with blank lines between rows."""
    nx = f.spec.nx
    xs, ys = _cells(f.spec.x(), ord(" ")), _cells(f.spec.y(), ord(" "))
    blank = np.full((nx, 1), ord("\n"), np.uint8), np.arange(nx)[:, None] == nx - 1
    rows = (_text([xs, [a[j:j + len(b), None] for a in ys], _cells(b, ord("\n")), blank], b.shape)
            for j, b in _row_blocks(f.values))
    return _write_hashed(path, rows)
