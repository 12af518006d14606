import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from madelab.fieldio import (
    MAGIC,
    FieldFormatError,
    Part,
    complex_parts,
    read_binary,
    read_csv,
    write_binary,
    write_complex,
    write_csv,
    write_gnuplot,
    _BLOCK,
    _csv_lines,
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

    @pytest.mark.parametrize("text", [
        "# 3 3 0.0 0.0 1.0 1.0\n1,2,3\n4,5\n7,8,9\n",      # ragged row
        "# 3 3 0.0 0.0 1.0 1.0\n1,2,3\n4,,6\n7,8,9\n",     # empty token
        "# 3 3 0.0 0.0 1.0 1.0\n1,2,3\n4,x,6\n7,8,9\n",    # non-numeric token
        "# 3.5 3 0.0 0.0 1.0 1.0\n1,2,3\n4,5,6\n7,8,9\n",  # non-integer count
        "# 3 3 0.0 0.0 0.0 1.0\n1,2,3\n4,5,6\n7,8,9\n",    # zero spacing
    ], ids=["ragged", "empty", "non-numeric", "count", "spacing"])
    def test_malformed_file_names_its_path(self, text, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(FieldFormatError, match=re.escape(str(p))):
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

    @pytest.mark.parametrize("cut", [5, 6, 20, 52])
    def test_truncated_header_names_its_path(self, field, tmp_path, cut):
        p = tmp_path / "f.bin"
        write_binary(field, p)
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(FieldFormatError, match=re.escape(str(p))):
            read_binary(p)

    def test_invalid_header_values_name_their_path(self, tmp_path):
        p = tmp_path / "f.bin"
        p.write_bytes(MAGIC + struct.pack("<QQdddd", 2, 3, 0.0, 0.0, 1.0, 1.0) + bytes(48))
        with pytest.raises(FieldFormatError, match=re.escape(str(p))):
            read_binary(p)


class TestComplex:
    def test_round_trip(self, field, tmp_path):
        z = ComplexField(field.spec, field.values + 2j * field.values, field.mask)
        re_p, im_p = write_complex(z, tmp_path / "psi")
        assert re_p.name == "psi.re" and im_p.name == "psi.im"
        real, imag = read_binary(re_p), read_binary(im_p)
        assert real.spec == imag.spec == z.spec
        got = ComplexField(real.spec, real.values + 1j * imag.values)
        assert np.array_equal(got.mask, z.mask)
        assert np.array_equal(got.values[got.mask], z.values[z.mask])

    def test_csv_parts_round_trip(self, field, tmp_path):
        # the text dumps write psi as these two parts, each through write_csv
        z = ComplexField(field.spec, field.values * (1 - 1j), field.mask)
        parts = complex_parts(z, tmp_path / "psi.csv")
        assert [path.name for _, path in parts] == ["psi.csv.re", "psi.csv.im"]
        for part, path in parts:
            write_csv(part, path)
        real, imag = (read_csv(path) for _, path in parts)
        assert real.spec == imag.spec == z.spec
        assert np.array_equal(real.mask, z.mask) and np.array_equal(imag.mask, z.mask)
        assert np.array_equal(real.values[z.mask].view(np.uint64),
                              z.values.real[z.mask].view(np.uint64))
        assert np.array_equal(imag.values[z.mask].view(np.uint64),
                              z.values.imag[z.mask].view(np.uint64))


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
    `.real` view of a complex array and as big-endian doubles, over three
    blocks of rows, the last one short: each writer returns the SHA-256 of
    its file, and the three files are the same."""
    f = awkward_field(4, 1000, 20, all_valid=False)
    z = np.empty(f.spec.shape, dtype=complex)
    z.real, z.imag = f.values, -f.values
    strided, big = Part(f.spec, z.real), Part(f.spec, f.values.astype(">f8"))
    assert not strided.values.flags.c_contiguous and big.values.dtype.byteorder == ">"
    blobs = []
    for k, field in enumerate((f, strided, big)):
        path = tmp_path / f"f{k}"
        digest = writer(field, path)
        blobs.append(path.read_bytes())
        assert digest == hashlib.sha256(blobs[-1]).hexdigest()
    assert blobs[0] == blobs[1] == blobs[2]


# --- the text formatter against `repr` --------------------------------------

def repr_lines(block):
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


@given(st.lists(st.one_of(st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64)),
                          st.floats()),
                min_size=1, max_size=300),
       st.integers(1, 3))
def test_csv_lines_match_repr(values, rows):
    block = np.array(values * rows, dtype=np.float64).reshape(rows, len(values))
    assert _csv_lines(block) == repr_lines(block)


def sweep_values():
    """Powers of 2 and of 10 over the whole double range with both float
    neighbours, small multiples of the least subnormal, integers up to
    2**53, and values either side of where `repr` switches to exponents."""
    edges = np.concatenate([2.0 ** np.arange(-1074, 1024),
                            [float(f"1e{k}") for k in range(-323, 309)],
                            [1e-5, 1e-4, 1e15, 1e16, 2.0 ** 53]])
    edges = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    rng = np.random.default_rng(0)
    ints = np.concatenate([np.arange(1, 2000), rng.integers(1, 2**53, 4000), 2**53 - np.arange(2000)])
    straddle = np.concatenate([np.linspace(0.9e-5, 1.1e-4, 3000), np.linspace(0.9e15, 1.1e16, 3000)])
    values = np.concatenate([edges, np.arange(1, 1001) * 5e-324, ints.astype(float), straddle])
    return np.concatenate([values, -values, [0.0, -0.0, np.inf, -np.inf, np.nan]])


def test_csv_lines_match_repr_on_the_sweep():
    values = sweep_values()
    block = np.resize(values, (-(-values.size // 256), 256))
    assert _csv_lines(block) == repr_lines(block)


# --- one full block for each path the formatter splits on -------------------

def ordinary_values(rng, size):
    """Doubles of either sign whose `repr` has 16 or 17 significant digits
    and no exponent: the formatter's common path."""
    values = []
    while len(values) < size:
        v = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-3, 16, size)
        values += [x for x in v.tolist()
                   if "e" not in repr(x) and len(repr(abs(x)).replace(".", "").strip("0")) >= 16]
    return np.array(values[:size])


def signed(rng, v):
    return np.where(rng.random(v.shape) < 0.5, -v, v)


def mixed_in(rng, size):
    """Values for each of the formatter's narrow paths, by name."""
    exps = np.concatenate([np.arange(-307, -99), np.arange(100, 308)])
    edges = np.array([1e-4, 1e16])
    return {
        "trailing zeros": signed(rng, rng.integers(1, 10 ** 6, size)
                                 * 10.0 ** rng.integers(-3, 12, size)),
        "exponent edges": signed(rng, np.concatenate([
            np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf),
            rng.uniform(1e-7, 1e-4, size), rng.uniform(1e16, 1e19, size)])),
        "3-digit exponents": signed(rng, rng.uniform(1, 10, size) * 10.0 ** rng.choice(exps, size)),
        "signed zeros": np.array([0.0, -0.0]),
        "subnormals": signed(rng, rng.integers(1, 2 ** 52, size, dtype=np.uint64).view(np.float64)),
        "non-finite": np.array([np.nan, np.inf, -np.inf]),
    }


MIXES = ["ordinary", "trailing zeros", "exponent edges", "3-digit exponents", "signed zeros",
         "subnormals", "non-finite", "all"]


@pytest.mark.parametrize("mix", MIXES)
def test_a_full_block_matches_repr(mix):
    """A block of `_BLOCK` values in 32 rows: ordinary values alone, or with
    30% of them drawn from one narrow path's values, or from all of them."""
    rng = np.random.default_rng(20 + MIXES.index(mix))
    block = ordinary_values(rng, _BLOCK).reshape(32, -1)
    if mix != "ordinary":
        extra = mixed_in(rng, _BLOCK)
        pool = np.concatenate(list(extra.values())) if mix == "all" else extra[mix]
        pick = rng.random(block.shape) < 0.3
        block[pick] = rng.choice(pool, int(pick.sum()))
    assert _csv_lines(block) == repr_lines(block)


def test_gnuplot_axes_with_exponents(tmp_path):
    """Axes that print with exponents (dx = dy = 1e-7), over several blocks
    of rows, with masked cells."""
    rng = np.random.default_rng(11)
    spec = GridSpec(300, 40, 0.0, -2e-6, 1e-7, 1e-7)
    values = ordinary_values(rng, spec.size).reshape(spec.shape)
    f = ScalarField(spec, values, rng.random(spec.shape) > 0.1)
    write_gnuplot(f, tmp_path / "f.dat")
    assert (tmp_path / "f.dat").read_bytes() == old_gnuplot(f)


# tracemalloc peak per value of a block, rounded up, as the formatter before
# the shared-product kernel measured on this field: 268 (csv) and 360
# (gnuplot) bytes
PEAK_PER_BLOCK_VALUE = {"csv": 272, "gnuplot": 368}


@pytest.mark.parametrize("writer,name", [(write_csv, "csv"), (write_gnuplot, "gnuplot")],
                         ids=["csv", "gnuplot"])
def test_text_writer_memory_is_bounded_by_the_block(writer, name, tmp_path):
    """A 513 x 513 field (2.1 MB of doubles) is written with temporaries
    bounded by `_BLOCK` values, not by the grid."""
    rng = np.random.default_rng(12)
    spec = GridSpec(513, 513, -4.0, -4.0, 8 / 512, 8 / 512)
    f = ScalarField(spec, rng.standard_normal(spec.shape) * 10.0 ** rng.integers(-8, 8, spec.shape))
    writer(f, tmp_path / "warm")  # builds the formatter's tables
    tracemalloc.start()
    try:
        writer(f, tmp_path / "f")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_PER_BLOCK_VALUE[name] * _BLOCK, peak
