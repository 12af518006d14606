import hashlib
import struct

import numpy as np
import pytest

from madelab.fieldio import (
    MAGIC,
    FieldFormatError,
    read_binary,
    read_complex,
    read_csv,
    write_binary,
    write_complex,
    write_csv,
    write_gnuplot,
)
from madelab.grid import ComplexField, GridSpec, ScalarField


@pytest.fixture
def field():
    rng = np.random.default_rng(7)
    spec = GridSpec(6, 4, -1.5, 0.25, 0.5, 0.75)
    values = rng.standard_normal(spec.shape)
    mask = np.ones(spec.shape, dtype=bool)
    mask[2, 3] = False
    return ScalarField(spec, values, mask)


def assert_fields_equal(a, b):
    assert a.spec == b.spec
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.values[a.mask], b.values[b.mask])


class TestCsv:
    def test_round_trip_bit_exact(self, field, tmp_path):
        p = tmp_path / "f.csv"
        write_csv(field, p)
        assert_fields_equal(field, read_csv(p))

    def test_masked_cell_is_nan(self, field, tmp_path):
        p = tmp_path / "f.csv"
        write_csv(field, p)
        row = p.read_text().splitlines()[1 + 2]
        assert row.split(",")[3] == "nan"

    def test_header_values(self, field, tmp_path):
        p = tmp_path / "f.csv"
        write_csv(field, p)
        assert p.read_text().splitlines()[0].split() == [
            "#", "6", "4", "-1.5", "0.25", "0.5", "0.75",
        ]

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(FieldFormatError):
            read_csv(p)

    def test_short_header_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("# 2 2 0.0 0.0 1.0\n1,2\n3,4\n")
        with pytest.raises(FieldFormatError):
            read_csv(p)

    def test_row_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("# 3 3 0.0 0.0 1.0 1.0\n1,2,3\n4,5,6\n")
        with pytest.raises(FieldFormatError):
            read_csv(p)


class TestBinary:
    def test_round_trip_bit_exact(self, field, tmp_path):
        p = tmp_path / "f.bin"
        write_binary(field, p)
        got = read_binary(p)
        assert_fields_equal(field, got)
        # doubles survive untouched
        assert got.values[got.mask].tobytes() == field.values[field.mask].tobytes()

    def test_write_read_write_identical_bytes(self, field, tmp_path):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_binary(field, p1)
        write_binary(read_binary(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout(self, field, tmp_path):
        p = tmp_path / "f.bin"
        write_binary(field, p)
        blob = p.read_bytes()
        assert blob[:5] == b"MFLD1"
        assert len(blob) == 5 + 16 + 32 + 8 * 6 * 4
        nx = int.from_bytes(blob[5:13], "little")
        ny = int.from_bytes(blob[13:21], "little")
        assert (nx, ny) == (6, 4)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(b"NOPE!" + b"\0" * 64)
        with pytest.raises(FieldFormatError):
            read_binary(p)

    def test_truncated_payload_rejected(self, field, tmp_path):
        p = tmp_path / "f.bin"
        write_binary(field, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FieldFormatError):
            read_binary(p)


class TestComplex:
    def test_round_trip(self, field, tmp_path):
        z = ComplexField(field.spec, field.values + 2j * field.values, field.mask)
        re_p, im_p = write_complex(z, tmp_path / "psi")
        assert re_p.name == "psi.re" and im_p.name == "psi.im"
        got = read_complex(tmp_path / "psi")
        assert got.spec == z.spec
        assert np.array_equal(got.mask, z.mask)
        assert np.array_equal(got.values[got.mask], z.values[z.mask])

    def test_csv_writer_variant(self, field, tmp_path):
        z = ComplexField(field.spec, field.values * (1 - 1j), field.mask)
        write_complex(z, tmp_path / "psi", writer=write_csv)
        got = read_complex(tmp_path / "psi", reader=read_csv)
        assert np.array_equal(got.values[got.mask], z.values[z.mask])


def test_gnuplot_layout(field, tmp_path):
    p = tmp_path / "f.dat"
    write_gnuplot(field, p)
    blocks = p.read_text().split("\n\n")
    blocks = [b for b in blocks if b.strip()]
    assert len(blocks) == field.spec.ny
    first = blocks[0].splitlines()
    assert len(first) == field.spec.nx
    x, y, v = (float(t) for t in first[0].split())
    assert (x, y) == (field.spec.x0, field.spec.y0)
    assert v == field.values[0, 0]
    # masked cell shows as nan
    assert "nan" in blocks[2].splitlines()[3]


# --- the writers against their earlier per-value formulas ------------------

def old_masked_values(f):
    v = f.values.astype(float).copy()
    v[~f.mask] = np.nan
    return v


def old_csv(f):
    s = f.spec
    out = f"# {s.nx} {s.ny} {s.x0!r} {s.y0!r} {s.dx!r} {s.dy!r}\n"
    for row in old_masked_values(f):
        out += ",".join(repr(float(x)) for x in row) + "\n"
    return out.encode()


def old_gnuplot(f):
    v = old_masked_values(f)
    out = ""
    for j, y in enumerate(f.spec.y()):
        for i, x in enumerate(f.spec.x()):
            out += f"{float(x)!r} {float(y)!r} {float(v[j, i])!r}\n"
        out += "\n"
    return out.encode()


def old_binary(f):
    s = f.spec
    header = struct.pack("<QQdddd", s.nx, s.ny, s.x0, s.y0, s.dx, s.dy)
    return MAGIC + header + old_masked_values(f).astype("<f8").tobytes()


SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-320,
                    2.2250738585072014e-308, 1.7976931348623157e308, 1e-5, 1e16,
                    0.1, 1 / 3])


def awkward_field(seed, nx, ny, all_valid):
    """Random doubles over many exponents mixed with non-finite values,
    signed zeros and subnormals; `all_valid` sets the mask after
    construction, so non-finite values reach the formatter too."""
    rng = np.random.default_rng(seed)
    spec = GridSpec(nx, ny, float(rng.normal()), -float(rng.random()),
                    float(rng.random()) / 7, 0.1 + float(rng.random()))
    values = rng.standard_normal((ny, nx)) * 10.0 ** rng.integers(-300, 300, (ny, nx))
    pick = rng.random((ny, nx)) < 0.3
    values[pick] = rng.choice(SPECIAL, int(pick.sum()))
    f = ScalarField(spec, values, rng.random((ny, nx)) > 0.2)
    if all_valid:
        f.mask = np.ones((ny, nx), dtype=bool)
    return f


@pytest.mark.parametrize("all_valid", [False, True])
@pytest.mark.parametrize("seed,nx,ny", [(0, 3, 3), (1, 7, 3), (2, 3, 11), (3, 32, 17)])
@pytest.mark.parametrize("writer,oracle", [(write_csv, old_csv),
                                           (write_gnuplot, old_gnuplot),
                                           (write_binary, old_binary)],
                         ids=["csv", "gnuplot", "bin"])
def test_writers_match_per_value_formulas(writer, oracle, seed, nx, ny, all_valid, tmp_path):
    f = awkward_field(seed, nx, ny, all_valid)
    writer(f, tmp_path / "f")
    assert (tmp_path / "f").read_bytes() == oracle(f)


@pytest.mark.parametrize("writer", [write_csv, write_gnuplot, write_binary],
                         ids=["csv", "gnuplot", "bin"])
def test_writers_return_the_digest_of_the_bytes_written(writer, tmp_path):
    """The same values with NaN cells, as a plain array, as the strided
    `.real` view of a complex array and as big-endian doubles: each writer
    returns the SHA-256 of its file, and the three files are the same."""
    f = awkward_field(4, 9, 5, all_valid=False)
    z = np.empty(f.spec.shape, dtype=complex)
    z.real, z.imag = f.values, -f.values
    strided, big = ScalarField(f.spec, f.values), ScalarField(f.spec, f.values)
    strided.values, big.values = z.real, f.values.astype(">f8")
    assert not strided.values.flags.c_contiguous and big.values.dtype.byteorder == ">"
    blobs = []
    for k, field in enumerate((f, strided, big)):
        path = tmp_path / f"f{k}"
        digest = writer(field, path)
        blobs.append(path.read_bytes())
        assert digest == hashlib.sha256(blobs[-1]).hexdigest()
    assert blobs[0] == blobs[1] == blobs[2]
