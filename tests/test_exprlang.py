import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from madelab.exprlang import (
    BinOp,
    Call,
    Num,
    ParseError,
    _eval,
    eval_field,
    evaluate,
    parse,
)
from madelab.grid import ComplexField, GridSpec


class TestParse:
    def test_quadratic_bowl(self):
        e = parse("0.5*(x^2+y^2)")
        assert evaluate(e, 1.0, 2.0) == pytest.approx(2.5 + 0j)

    def test_plane_wave_is_valid(self):
        e = parse("exp(i*(2*x+3*y))")
        assert evaluate(e, 0.0, 0.0) == pytest.approx(1 + 0j)

    def test_unterminated_call_position(self):
        with pytest.raises(ParseError) as err:
            parse("sin(x,")
        assert err.value.offset == 6

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x + sinh(y)")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="argument"):
            parse("atan2(x)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("x + 1 )")

    def test_offset_within_input(self):
        for src in ("", "(", "1+", "sin", "x$y"):
            with pytest.raises(ParseError) as err:
                parse(src)
            assert 0 <= err.value.offset <= len(src.encode())

    @pytest.mark.parametrize("src, offset, message", [
        ("1.2.3", 0, "malformed number '1.2.3'"),
        ("1..2", 0, "malformed number '1..2'"),
        (".5.", 0, "malformed number '.5.'"),
        # '1e5' is a whole literal; the error is at the '.5' after it
        ("1e5.5", 3, "unexpected '.5' after expression"),
        ("exp(2*1.2.3)", 6, "malformed number '1.2.3'"),
        # an 'e' with no digits after it is the constant, not an exponent
        ("2e", 1, "unexpected 'e' after expression"),
    ])
    def test_literal_errors(self, src, offset, message):
        with pytest.raises(ParseError) as err:
            parse(src)
        assert (err.value.offset, err.value.message) == (offset, message)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse("(" * 2000)

    @given(st.one_of(st.text(), st.text(alphabet="0123456789.eE+-*/^(), xyipsncoqrtlabj$_")))
    def test_only_parse_errors(self, src):
        try:
            parse(src)
        except ParseError:
            pass


class TestCorpus:
    """Replays tests/golden/exprlang.json: 65 hand-picked inputs (those of
    the exprlang, CLI and acceptance tests, the docs' examples and
    number-literal edge cases) plus 835 seeded random ASCII strings over the
    grammar's alphabet (free fragments, generated expressions and
    one-character mutations of them). Each outcome was recorded before the
    tokenizer became one regular expression: the AST repr and its value at
    (x, y) = (0.3, -0.7), or the ParseError offset and text. Entries marked
    `value_error` are literals float() rejected, which then escaped as a
    bare ValueError; they must now be parse errors at the literal."""

    CASES = json.loads((Path(__file__).parent / "golden" / "exprlang.json").read_text())

    @staticmethod
    def outcome(src):
        try:
            e = parse(src)
        except ParseError as err:
            return {"parse_error": [err.offset, str(err)]}
        return {"ast": repr(e), "value": repr(evaluate(e, 0.3, -0.7))}

    def test_outcomes_unchanged(self):
        assert len(self.CASES) >= 500
        diffs = []
        for case in self.CASES:
            if "value_error" in case:
                continue
            want = {k: v for k, v in case.items() if k != "src"}
            got = self.outcome(case["src"])
            if got != want:
                diffs.append((case["src"], want, got))
        assert not diffs, diffs[:5]

    def test_rejected_literals_are_parse_errors(self):
        for case in self.CASES:
            if "value_error" not in case:
                continue
            literal = case["value_error"].split(": ", 1)[1]  # "...: '1.2.3'"
            with pytest.raises(ParseError) as err:
                parse(case["src"])
            assert err.value.message == f"malformed number {literal}"
            src = case["src"].encode()
            assert src[err.value.offset:].startswith(literal[1:-1].encode())


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert parse("1+2*3") == parse("1+(2*3)")

    def test_power_right_associative(self):
        assert parse("2^3^2") == parse("2^(3^2)")
        assert evaluate(parse("2^3^2"), 0, 0) == pytest.approx(512 + 0j)

    def test_unary_minus_below_power(self):
        # -x^2 is -(x^2)
        assert evaluate(parse("-x^2"), 3.0, 0.0) == pytest.approx(-9 + 0j)

    def test_division_left_associative(self):
        assert evaluate(parse("8/4/2"), 0, 0) == pytest.approx(1 + 0j)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_add_mul_grouping(self, a, b, c):
        lhs = evaluate(parse(f"({a})+({b})*({c})"), 0, 0)
        rhs = evaluate(parse(f"({a})+(({b})*({c}))"), 0, 0)
        assert lhs == rhs


class TestEvaluate:
    def test_vortex_profile_value(self):
        e = parse("(x+i*y)*exp(-(x^2+y^2)/2)")
        assert evaluate(e, 1.0, 0.0) == pytest.approx(math.exp(-0.5) + 0j)

    def test_constants(self):
        assert evaluate(parse("pi"), 0, 0) == pytest.approx(math.pi)
        assert evaluate(parse("e"), 0, 0) == pytest.approx(math.e)
        assert evaluate(parse("i^2"), 0, 0) == pytest.approx(-1 + 0j)

    def test_principal_ln(self):
        assert evaluate(parse("ln(-1)"), 0, 0) == pytest.approx(1j * math.pi)

    def test_principal_sqrt(self):
        assert evaluate(parse("sqrt(-4)"), 0, 0) == pytest.approx(2j)

    def test_atan2_real_parts(self):
        assert evaluate(parse("atan2(y, x)"), 1.0, 1.0) == pytest.approx(math.pi / 4)

    def test_re_im_conj(self):
        assert evaluate(parse("re(x+i*y)"), 2.0, 3.0) == pytest.approx(2 + 0j)
        assert evaluate(parse("im(x+i*y)"), 2.0, 3.0) == pytest.approx(3 + 0j)
        assert evaluate(parse("conj(x+i*y)"), 2.0, 3.0) == pytest.approx(2 - 3j)

    def test_division_by_zero_is_nonfinite_not_raise(self):
        v = evaluate(parse("1/x"), 0.0, 0.0)
        assert not (math.isfinite(v.real) and math.isfinite(v.imag))

    def test_real_expression_has_exactly_zero_imag(self):
        e = parse("exp(x)*cos(y) + x*y/(1+x^2)")
        for x, y in [(0.3, -1.2), (2.0, 0.5), (-1.0, 4.0)]:
            assert evaluate(e, x, y).imag == 0.0

    def test_integer_power_of_negative_real_stays_real(self):
        assert evaluate(parse("x^3"), -2.0, 0.0) == -8 + 0j


class TestEvalField:
    def test_constant_field(self):
        f = eval_field(parse("1"), GridSpec(8, 6))
        assert np.allclose(f.values, 1.0)
        assert f.mask.all()

    def test_pole_cells_masked(self):
        spec = GridSpec(5, 5, -2, -2, 1.0, 1.0)  # x = 0 column exists
        f = eval_field(parse("1/x"), spec)
        assert not f.mask[:, 2].any()
        assert f.mask[:, 0].all()

    def test_corner_value(self):
        spec = GridSpec(5, 5, -6.0, -6.0, 1.0, 1.0)
        f = eval_field(parse("exp(-(x^2+y^2)/2)"), spec)
        assert f.values[0, 0] == pytest.approx(math.exp(-36.0), rel=1e-12)

    def test_cell_centers(self):
        spec = GridSpec(4, 3, 1.0, 2.0, 0.5, 0.25)
        f = eval_field(parse("x+i*y"), spec)
        X, Y = spec.meshgrid()
        assert np.allclose(f.values, X + 1j * Y)


_PARSED = [parse(case["src"]) for case in TestCorpus.CASES if "ast" in case]


@settings(max_examples=10)  # each example evaluates all 263 expressions twice
@example(128, 129, -4.0, -4.0, 8 / 127, 8 / 128)  # numpy elides temporaries from 256 KiB
@given(st.integers(3, 40), st.integers(3, 40), st.floats(-50.0, 50.0),
       st.floats(-50.0, 50.0), st.floats(1e-3, 10.0), st.floats(1e-3, 10.0))
def test_eval_field_matches_meshgrid_evaluation(nx, ny, x0, y0, dx, dy):
    """Every parsing corpus expression, bit for bit in both parts, against
    the evaluation on `spec.meshgrid()`. A row-and-column evaluation passes
    on the small grids but not on the large one: there an elided complex
    product takes its operands in the other order."""
    spec = GridSpec(nx, ny, x0, y0, dx, dy)
    X, Y = spec.meshgrid()
    for e in _PARSED:
        with np.errstate(all="ignore"):
            v = _eval(e, X.astype(complex), Y.astype(complex))
        want = ComplexField(spec, np.broadcast_to(np.asarray(v, dtype=complex), spec.shape).copy())
        got = eval_field(e, spec)
        assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64)), e
