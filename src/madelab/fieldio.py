"""Field file formats shared project-wide.

CSV: header line `# nx ny x0 y0 dx dy`, then one comma-separated line per
grid row (bottom row first), NaN marking masked cells.

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

import hashlib
import struct
from itertools import chain
from pathlib import Path

import numpy as np

from .grid import ComplexField, GridSpec, ScalarField

MAGIC = b"MFLD1"
_HEADER = struct.Struct("<QQdddd")


class FieldFormatError(ValueError):
    """Raised on a malformed field file."""


def _write_hashed(path: str | Path, chunks) -> str:
    """Write the bytes-like `chunks` to `path` in order; return the SHA-256
    hex digest of everything written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def write_csv(f: ScalarField, path: str | Path) -> str:
    s = f.spec
    header = f"# {s.nx} {s.ny} {s.x0!r} {s.y0!r} {s.dx!r} {s.dy!r}\n"
    rows = (",".join(map(repr, row.tolist())) + "\n" for row in f.values)
    return _write_hashed(path, map(str.encode, chain([header], rows)))


def read_csv(path: str | Path) -> ScalarField:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise FieldFormatError(f"{path}: missing header line")
        parts = header[1:].split()
        if len(parts) != 6:
            raise FieldFormatError(f"{path}: header needs 6 entries, got {len(parts)}")
        nx, ny = int(parts[0]), int(parts[1])
        x0, y0, dx, dy = (float(p) for p in parts[2:])
        rows = [
            np.array([float(tok) for tok in line.split(",")])
            for line in fh
            if line.strip()
        ]
    values = np.array(rows, dtype=float)
    if values.shape != (ny, nx):
        raise FieldFormatError(f"{path}: expected {ny}x{nx} rows, got {values.shape}")
    spec = GridSpec(nx, ny, x0, y0, dx, dy)
    return ScalarField(spec, values)


def write_binary(f: ScalarField, path: str | Path) -> str:
    s = f.spec
    header = MAGIC + _HEADER.pack(s.nx, s.ny, s.x0, s.y0, s.dx, s.dy)
    return _write_hashed(path, (header, np.ascontiguousarray(f.values, "<f8")))


def read_binary(path: str | Path) -> ScalarField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FieldFormatError(f"{path}: bad magic bytes {magic!r}")
        nx, ny, x0, y0, dx, dy = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != nx * ny:
        raise FieldFormatError(f"{path}: expected {nx * ny} doubles, got {data.size}")
    values = data.reshape(ny, nx).astype(float)
    spec = GridSpec(nx, ny, x0, y0, dx, dy)
    return ScalarField(spec, values)


def complex_parts(f: ComplexField, path: str | Path) -> list[tuple[ScalarField, Path]]:
    """The `.re` and `.im` scalar fields of `f` with the paths they go to."""
    path = Path(path)
    return [(ScalarField(f.spec, f.values.real), path.with_name(path.name + ".re")),
            (ScalarField(f.spec, f.values.imag), path.with_name(path.name + ".im"))]


def write_complex(f: ComplexField, path: str | Path, writer=write_binary) -> tuple[Path, Path]:
    (re, re_path), (im, im_path) = complex_parts(f, path)
    writer(re, re_path)
    writer(im, im_path)
    return re_path, im_path


def read_complex(path: str | Path, reader=read_binary) -> ComplexField:
    path = Path(path)
    re = reader(path.with_name(path.name + ".re"))
    im = reader(path.with_name(path.name + ".im"))
    return ComplexField(re.spec, re.values + 1j * im.values)


def write_gnuplot(f: ScalarField, path: str | Path) -> str:
    """Whitespace `x y value` table with blank lines between rows."""
    xs = [repr(x) for x in f.spec.x().tolist()]
    mids = (f" {y!r} " for y in f.spec.y().tolist())
    rows = ("".join(x + mid + repr(v) + "\n" for x, v in zip(xs, row.tolist())) + "\n"
            for mid, row in zip(mids, f.values))
    return _write_hashed(path, map(str.encode, rows))
