import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_value_fingerprint import _part
from ultrafrac.errors import DivergentSeriesError, ExactnessLost
from ultrafrac.field import FieldParams
from ultrafrac.numerics import (
    CV_ZERO,
    NV_ZERO,
    ComplexValue,
    ExactScalar,
    NumericValue,
    geometric_tail,
    q_pow,
    weighted_geometric_tail,
)


class TestExactScalar:
    def test_log_products_cancel_to_rationals(self, fp2):
        inv = ExactScalar.inv_ln_q(fp2, Fraction(2, 3))
        ln = ExactScalar.ln_q(fp2, Fraction(3, 5))
        assert (inv * ln) == ExactScalar.rational(Fraction(2, 5))

    def test_square_of_log_escapes_ring(self, fp2):
        ln = ExactScalar.ln_q(fp2)
        with pytest.raises(ExactnessLost):
            ln * ln

    def test_mixed_bases_escape(self, fp2, fp3):
        with pytest.raises(ExactnessLost):
            ExactScalar.ln_q(fp2) + ExactScalar.ln_q(fp3)

    def test_evaluate(self, fp2):
        es = ExactScalar(Fraction(1), Fraction(2), Fraction(0), 2)
        assert es.evaluate() == pytest.approx(1 + 2 * math.log(2), rel=1e-15)


class TestNumericValue:
    def test_demotion_is_recorded(self):
        a = NumericValue.from_rational(Fraction(1, 3))
        b = NumericValue.from_float(0.5)
        assert a.is_exact and not b.is_exact
        assert not (a + b).is_exact
        assert (a + a).is_exact

    def test_ring_escape_demotes_product(self, fp2):
        ln = NumericValue.from_exact(ExactScalar.ln_q(fp2))
        out = ln * ln
        assert not out.is_exact
        assert float(out) == pytest.approx(math.log(2) ** 2, rel=1e-15)


class TestQPower:
    def test_perfect_root_is_exact(self):
        v = q_pow(FieldParams(2, 2), Fraction(1, 2) * 3)
        assert v.is_exact and v.exact.a == 8

    def test_irrational_is_float(self, fp2):
        v = q_pow(fp2, Fraction(1, 2))
        assert not v.is_exact
        assert float(v) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_negative_exponent(self, fp3):
        v = q_pow(fp3, -2)
        assert v.is_exact and v.exact.a == Fraction(1, 9)

    def test_root_of_q_beyond_float_range(self):
        # q = 2**1100 overflows a float; its square root is still found exactly
        v = q_pow(FieldParams(2, 1100), Fraction(1, 2))
        assert v.is_exact and v.exact.a == 2**550

    @pytest.mark.parametrize("sign", [1, -1])
    def test_irrational_power_of_q_beyond_float_range(self, sign):
        # q = 2**1101 overflows a float, but 2**(+-550.5) is a finite float
        v = q_pow(FieldParams(2, 1101), Fraction(sign, 2))
        assert not v.is_exact
        assert float(v) == pytest.approx(math.sqrt(2) ** sign * 2.0 ** (550 * sign), rel=1e-12)

    def test_power_of_q_beyond_float_range_still_overflows(self):
        with pytest.raises(OverflowError):
            q_pow(FieldParams(2, 1101), Fraction(3, 2))

    @given(r=st.integers(1, 10**40), k=st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_integer_root_is_exact(self, r, k):
        from ultrafrac.numerics import _integer_root

        assert _integer_root(r**k, k) == r
        assert _integer_root(r**k + 1, k) is None

    @given(
        q=st.sampled_from([2, 3, 5]),
        num=st.integers(-6, 6),
        den=st.integers(1, 4),
        k=st.integers(-4, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_and_float_paths_agree(self, q, num, den, k):
        fp = FieldParams(q)
        v = q_pow(fp, Fraction(num, den) * k)
        direct = float(q) ** (float(Fraction(num, den)) * k)
        assert float(v) == pytest.approx(direct, rel=1e-12)


class TestGeometricTails:
    def test_frozen_values(self, fp2, fp3):
        assert geometric_tail(fp2, 1, 0).exact.a == 2
        assert geometric_tail(fp2, 1, 1).exact.a == 1
        assert geometric_tail(fp3, 2, 0).exact.a == Fraction(9, 8)
        assert weighted_geometric_tail(fp2, 1, 1).exact.a == 2
        assert weighted_geometric_tail(fp3, 1, 1).exact.a == Fraction(3, 4)
        assert weighted_geometric_tail(fp2, 1, 0).exact.a == 2

    @pytest.mark.parametrize("q,s,j0", [(2, 1, 0), (2, 1, 1), (3, 2, 0), (5, 1, -2), (3, 1, 3)])
    def test_against_partial_sums(self, q, s, j0):
        fp = FieldParams(q)
        partial = sum(Fraction(q) ** (-s * j) for j in range(j0, j0 + 90))
        wpartial = sum(j * Fraction(q) ** (-s * j) for j in range(j0, j0 + 90))
        assert float(geometric_tail(fp, s, j0)) == pytest.approx(float(partial), rel=1e-12)
        assert float(weighted_geometric_tail(fp, s, j0)) == pytest.approx(float(wpartial), rel=1e-12)

    @given(s=st.integers(1, 4), j0=st.integers(-3, 6))
    @settings(max_examples=60, deadline=None)
    def test_peel_one_term_recurrence(self, s, j0):
        fp = FieldParams(2)
        lhs = geometric_tail(fp, s, j0).exact.a
        rhs = Fraction(2) ** (-s * j0) + geometric_tail(fp, s, j0 + 1).exact.a
        assert lhs == rhs

    def test_divergent_rejected(self, fp2):
        with pytest.raises(DivergentSeriesError):
            geometric_tail(fp2, 0, 0)
        with pytest.raises(DivergentSeriesError):
            weighted_geometric_tail(fp2, -1, 0)


class TestComplexValue:
    def test_arithmetic_and_exactness(self):
        a = ComplexValue.from_rational(Fraction(1, 2), Fraction(1, 3))
        b = ComplexValue.from_rational(Fraction(2), Fraction(-1))
        prod = a * b
        assert prod.is_exact
        assert prod.to_complex() == pytest.approx((0.5 + 1j / 3) * (2 - 1j))
        assert (a - a).is_exact_zero()

    def test_mixing_with_float_demotes(self):
        a = ComplexValue.from_rational(1, 0)
        z = a + ComplexValue.from_complex(0.25 + 0j)
        assert not z.is_exact
        assert z.to_complex() == 1.25


def _parts(z: ComplexValue) -> tuple[str, str]:
    return _part(z.re), _part(z.im)


def _exact_scalars():
    """Rationals, and elements with ln 4 and 1/ln 4 parts."""
    rationals = st.fractions(max_denominator=12).filter(lambda f: abs(f) < 10**6)
    return st.one_of(
        rationals.map(ExactScalar),
        st.tuples(rationals, rationals, rationals).map(lambda t: ExactScalar(*t, logbase=4)),
    )


def _parts_of_z():
    floats = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf]), st.floats(allow_nan=False))
    return st.one_of(
        _exact_scalars().map(NumericValue.from_exact),
        floats.map(NumericValue.from_float),
    )


def _real_factors():
    return st.one_of(
        st.integers(-50, 50),
        st.fractions(max_denominator=12).filter(lambda f: abs(f) < 10**6),
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6)),
        _exact_scalars(),
        _exact_scalars().map(NumericValue.from_exact),
        st.floats(-1e6, 1e6).map(NumericValue.from_float),
    )


class TestRealFactorMultiply:
    @given(re=_parts_of_z(), im=_parts_of_z(), x=_real_factors())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_complex_product(self, re, im, x):
        """z * x, on its two-product path, equals z times x as a complex value, part for part."""
        z = ComplexValue(re, im)
        want = _parts(z * ComplexValue(NumericValue._coerce(x), NV_ZERO))
        assert _parts(z * x) == want
        assert _parts(x * z) == want

    @given(re=_parts_of_z(), im=_parts_of_z(), x=_real_factors(), op=st.sampled_from([operator.add, operator.sub, operator.mul]))
    @settings(max_examples=300, deadline=None)
    def test_a_real_value_on_the_left_reflects(self, re, im, x, op):
        """x op z, for every real operand type, is x as a complex value op z, part for part; x / z is a TypeError."""
        z = ComplexValue(re, im)
        assert _parts(op(x, z)) == _parts(op(ComplexValue(NumericValue._coerce(x), NV_ZERO), z))
        with pytest.raises(TypeError):
            x / z


class TestRingFastPaths:
    def test_exact_zero_plus_negative_zero_keeps_the_sign(self):
        neg = NumericValue.from_float(-0.0)
        for out in (NV_ZERO + neg, neg + NV_ZERO):
            assert out is neg
            assert math.copysign(1.0, float(out)) == -1.0

    def test_exact_zero_absorbs_a_float(self):
        f = NumericValue.from_float(2.5)
        for out in (NV_ZERO * f, f * NV_ZERO, NV_ZERO * math.inf):
            assert out.is_exact_zero()

    def test_mixed_bases_and_log_squares_demote(self, fp2, fp3):
        ln2 = NumericValue.from_exact(ExactScalar.ln_q(fp2))
        ln3 = NumericValue.from_exact(ExactScalar.ln_q(fp3))
        for out, want in ((ln2 + ln3, math.log(2) + math.log(3)), (ln2 - ln3, math.log(2) - math.log(3)),
                          (ln2 * ln2, math.log(2) ** 2), (ln2 / ln3, math.log(2) / math.log(3))):
            assert not out.is_exact
            assert float(out) == pytest.approx(want, rel=1e-15)

    def test_cancelled_logs_are_the_public_rational(self, fp2):
        ln = ExactScalar.ln_q(fp2, Fraction(3, 4))
        inv = ExactScalar.inv_ln_q(fp2, Fraction(2))
        cases = [
            (ln - ln, Fraction(0)),
            (ln + (-ln), Fraction(0)),
            (ln * inv, Fraction(3, 2)),
            (ln / ExactScalar.ln_q(fp2, Fraction(1, 4)), Fraction(3)),
            (ExactScalar.rational(0) / ln, Fraction(0)),
        ]
        for got, a in cases:
            want = ExactScalar.rational(a)
            assert got.logbase is None and got.is_rational
            assert got.is_zero() == want.is_zero() == (a == 0)
            assert got == want and hash(got) == hash(want)
        value = NumericValue.from_exact(ln) - NumericValue.from_exact(ln)
        assert value.is_exact_zero() and value == NV_ZERO

    def test_rational_fast_path_matches_the_coefficients(self):
        x, y = ExactScalar.rational(Fraction(3, 8)), ExactScalar.rational(Fraction(-5, 16))
        assert x + y == ExactScalar(Fraction(1, 16))
        assert x - y == ExactScalar(Fraction(11, 16))
        assert x * y == ExactScalar(Fraction(-15, 128))
        assert x / y == ExactScalar(Fraction(-6, 5))
        assert -x == ExactScalar(Fraction(-3, 8))
        with pytest.raises(ZeroDivisionError, match="exact division by zero"):
            x / ExactScalar.rational(0)

    def test_values_are_immutable(self, fp2):
        es = ExactScalar.ln_q(fp2)
        nv = NumericValue.from_exact(es) + NumericValue.from_rational(1)
        cv = ComplexValue.from_rational(1, 2) * ComplexValue.from_rational(3, 4)
        for obj, field in ((es, "a"), (es, "logbase"), (nv, "exact"), (nv, "approx"),
                           (cv, "re"), (NV_ZERO, "exact"), (CV_ZERO, "im")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            # a name that is no field: the slotted frozen __setattr__ of
            # CPython 3.10-3.12 refuses it with a TypeError from super()
            with pytest.raises((AttributeError, TypeError)):
                obj.extra = 1
            assert not hasattr(obj, "__dict__")
