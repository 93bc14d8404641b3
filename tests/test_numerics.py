import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_value_fingerprint import _part
from ultrafrac.errors import DivergentSeriesError, ExactnessLost, FloatZeroDivisionError, UltrafracError
from ultrafrac.field import FieldParams
from ultrafrac.numerics import (
    CV_ZERO,
    NV_ONE,
    NV_ZERO,
    ComplexValue,
    ExactScalar,
    FloatView,
    NumericValue,
    as_fraction,
    float_view,
    geometric_tail,
    integer_sum,
    integer_view,
    mixed_sum,
    mixed_weights,
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

    def test_construction_checks(self):
        with pytest.raises(ValueError, match="cannot convert inf"):
            as_fraction(math.inf)
        assert as_fraction("1/3") == Fraction(1, 3)
        with pytest.raises(TypeError, match="cannot convert object"):
            as_fraction(object())
        with pytest.raises(TypeError, match="cannot convert the bool True"):
            as_fraction(True)
        with pytest.raises(ValueError, match="logbase >= 2"):
            ExactScalar(Fraction(0), Fraction(1))

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

    def test_needs_exactly_one_part(self):
        with pytest.raises(ValueError, match="exactly one of exact/approx"):
            NumericValue(None, None)

    def test_ring_escape_demotes_product(self, fp2):
        ln = NumericValue.from_exact(ExactScalar.ln_q(fp2))
        out = ln * ln
        assert not out.is_exact
        assert float(out) == pytest.approx(math.log(2) ** 2, rel=1e-15)

    def test_float_zero_divisor_raises_a_package_error(self, fp2):
        # at a tiny order q**alpha rounds to 1.0, so 1 - q**alpha is a float 0.0
        zero = 1 - q_pow(fp2, Fraction(1, 10**17))
        assert not zero.is_exact and float(zero) == 0.0
        for numerator in (NumericValue.from_rational(Fraction(1, 2)), NumericValue.from_float(0.5)):
            with pytest.raises(FloatZeroDivisionError, match="float division by zero") as info:
                numerator / zero
            assert isinstance(info.value, UltrafracError) and isinstance(info.value, ZeroDivisionError)
        # an exact zero divisor keeps the plain exact error
        with pytest.raises(ZeroDivisionError, match="exact division by zero") as info:
            NumericValue.from_rational(1) / NumericValue.from_rational(0)
        assert not isinstance(info.value, UltrafracError)


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


def _rationals():
    return st.fractions(max_denominator=12).filter(lambda f: abs(f) < 10**6)


def _exact_scalars():
    """Rationals, and elements with ln 4 and 1/ln 4 parts."""
    rationals = _rationals()
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


class TestRingOperationsOffTheRoutes:
    """Ring operations that no operator route reaches, pinned exactly and against their floats."""

    def test_quotients_that_stay_in_the_ring(self, fp2):
        cases = [
            # a value with ln and 1/ln parts over a rational
            (ExactScalar(Fraction(1, 2), Fraction(3), Fraction(-1), 2), ExactScalar.rational(Fraction(2, 3)),
             ExactScalar(Fraction(3, 4), Fraction(9, 2), Fraction(-3, 2), 2)),
            # a 1/ln value over a 1/ln value
            (ExactScalar.inv_ln_q(fp2, 3), ExactScalar.inv_ln_q(fp2, Fraction(1, 2)), ExactScalar.rational(6)),
            # a rational over a pure ln
            (ExactScalar.rational(Fraction(3, 4)), ExactScalar.ln_q(fp2, 2), ExactScalar.inv_ln_q(fp2, Fraction(3, 8))),
        ]
        for x, y, want in cases:
            got = x / y
            assert got == want
            assert got.evaluate() == pytest.approx(x.evaluate() / y.evaluate(), rel=1e-15)

    def test_quotients_that_leave_the_ring(self, fp2):
        one_plus_ln = ExactScalar(Fraction(1), Fraction(1), Fraction(0), 2)
        ln, inv = ExactScalar.ln_q(fp2), ExactScalar.inv_ln_q(fp2)
        for x, y in ((one_plus_ln, ln), (inv, ln), (ExactScalar.rational(1), one_plus_ln)):
            with pytest.raises(ExactnessLost, match="quotient leaves the ring"):
                x / y
            out = NumericValue.from_exact(x) / NumericValue.from_exact(y)
            assert not out.is_exact
            assert float(out) == x.evaluate() / y.evaluate()

    def test_complex_negation_division_and_complex_operands(self, fp2):
        ln = NumericValue.from_exact(ExactScalar(Fraction(1, 2), Fraction(1, 3), Fraction(0), 2))
        z = ComplexValue(ln, NumericValue.from_rational(Fraction(-2, 3)))
        neg = -z
        assert _parts(neg) == ("(-1/2,-1/3,0,2)", "(2/3,0,0,None)")
        assert neg.to_complex() == -z.to_complex()
        half = z / Fraction(2)
        assert _parts(half) == ("(1/4,1/6,0,2)", "(-1/3,0,0,None)")
        assert half.to_complex() == pytest.approx(z.to_complex() / 2, rel=1e-15)
        # a Python complex operand is coerced to two float parts
        w = ComplexValue._coerce(0.25 - 1.5j)
        assert _parts(w) == ((0.25).hex(), (-1.5).hex())
        for out, want in ((z + (0.25 - 1.5j), z.to_complex() + (0.25 - 1.5j)), (z * 2j, z.to_complex() * 2j)):
            assert not out.is_exact
            assert out.to_complex() == pytest.approx(want, rel=1e-15)


class TestIntegerAccumulation:
    @given(
        triples=st.lists(st.tuples(_rationals(), _rationals(), _rationals()), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_weighted_sum_is_the_exact_sum_of_products(self, triples):
        """integer_sum of rational w * v on a rational table is the ring's own sum; other counts raise, and a ln weight refuses."""
        table = {i: ComplexValue.from_rational(re, im) for i, (_, re, im) in enumerate(triples)}
        view = integer_view(table)
        weights = tuple(NumericValue.from_rational(w) for w, _, _ in triples)
        weighted = integer_sum(tuple, (weights,), view)
        want = CV_ZERO
        for w, i in zip(weights, table):
            want = want + table[i] * w
        assert want.is_exact
        vectors = list(view.numerators.values())
        assert _parts(weighted(vectors)) == _parts(want)
        # one vector per weight: a vector too few or too many pairs none with a wrong weight
        for wrong in (vectors[:-1], [*vectors, vectors[0]]):
            with pytest.raises(ValueError):
                weighted(wrong)
        ln2 = NumericValue.from_exact(ExactScalar.ln_q(FieldParams(2)))
        assert integer_sum(tuple, ((*weights[:-1], weights[-1] + ln2),), view) is None

    @given(
        triples=st.lists(st.tuples(_rationals(), _rationals(), _rationals()), min_size=1, max_size=5),
        factors=st.lists(_rationals(), min_size=2, max_size=2),
        constants=st.lists(st.tuples(_rationals(), _rationals()), min_size=2, max_size=2),
    )
    @settings(max_examples=100, deadline=None)
    def test_folded_sum_is_the_ring_sum_times_the_factor(self, triples, factors, constants):
        """folded(c, k) is c * (sum + k), exact zeros included, folded twice over; a float or ln factor or constant refuses."""
        table = {i: ComplexValue.from_rational(re, im) for i, (_, re, im) in enumerate(triples)}
        view = integer_view(table)
        weights = tuple(NumericValue.from_rational(w) for w, _, _ in triples)
        vectors = list(view.numerators.values())
        lane, want = integer_sum(tuple, (weights,), view), CV_ZERO
        for w, i in zip(weights, table):
            want = want + table[i] * w
        for c, k in zip(factors, constants):
            c, k = NumericValue.from_rational(c), ComplexValue.from_rational(*k)
            lane, want = lane.folded(c, k), (want + k) * c
            assert _parts(lane(vectors)) == _parts(want)
            assert lane.numerators(vectors) == tuple(
                (part.exact.a * lane.denominator).numerator for part in (want.re, want.im)
            )
        half = NumericValue.from_rational(Fraction(1, 2))
        ln2 = NumericValue.from_exact(ExactScalar.ln_q(FieldParams(2)))
        for c, k in ((NumericValue.from_float(0.5), CV_ZERO), (ln2, CV_ZERO), (half, ComplexValue(NV_ONE, ln2)), (half, ComplexValue.from_complex(1j))):
            assert lane.folded(c, k) is None

    def test_each_product_that_leaves_the_ring_refuses_the_weights(self, fp2, fp3):
        # the one gate of every lane: against a rational table a weight with a
        # ln or 1/ln part would leave the rationals, and no route hands one in;
        # a float passes as a float and an exact zero drops out.  integer_sum
        # takes only weights that are all exact rationals
        ln2, inv2 = NumericValue.from_exact(ExactScalar.ln_q(fp2)), NumericValue.from_exact(ExactScalar.inv_ln_q(fp2))
        half, third = NumericValue.from_rational(Fraction(1, 2)), NumericValue.from_rational(Fraction(1, 3))
        ln3 = NumericValue.from_exact(ExactScalar.ln_q(fp3))
        for weights in ([half, ln2], [inv2], [inv2, half], [half, ln3 * half], [ln2 + half]):
            assert mixed_weights(weights) is None
        assert mixed_weights([half, NumericValue.from_float(0.5), NV_ZERO, third]) == (4, 6, [(0, 3), (1, 0.5), (3, 2)])
        assert mixed_weights([half]) == (1, 2, [(0, 1)])
        view = integer_view({0: ComplexValue.from_rational(1), 1: ComplexValue.from_rational(2)})
        partly_float = ((half, NumericValue.from_float(0.5)),)
        assert integer_sum(tuple, partly_float, view) is None
        assert mixed_sum(tuple, partly_float, view) is not None
        assert integer_sum(tuple, ((half, third),), view) is not None


def _lane_terms():
    """(entry re, entry im, weight) triples: a prefix of exact weights, then weights of every kind.

    Entries and weights come mostly from small sets, so that parts are often
    exact zeros and exact sums often cancel to zero.
    """
    small = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-1, 3)])
    rationals = st.one_of(small, st.fractions(max_denominator=12).filter(lambda f: abs(f) < 10**6))
    exact = st.one_of(st.just(NV_ZERO), rationals.map(NumericValue.from_rational))
    floats = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 2**0.5, -(2**0.5)]), st.floats(-1e6, 1e6)).map(NumericValue.from_float)
    prefix = st.lists(st.tuples(rationals, rationals, exact), max_size=4)
    rest = st.lists(st.tuples(rationals, rationals, st.one_of(exact, floats)), max_size=6)
    return st.tuples(prefix, rest).map(lambda t: t[0] + t[1]).filter(bool)


class TestMixedAccumulation:
    @given(terms=_lane_terms())
    @example(terms=[(1, 0, NV_ONE), (-1, 0, NV_ONE), (1, 0, NumericValue.from_float(-0.0))])
    @example(terms=[(1, 1, NumericValue.from_rational(Fraction(1, 3))), (1, 0, NumericValue.from_float(2**0.5)), (Fraction(1, 3), 0, NV_ONE)])
    @settings(max_examples=300, deadline=None)
    def test_mixed_sum_is_the_ring_sum_part_by_part(self, terms):
        """mixed_sum of w * v on a rational table has the ring's exactness and bits in every part; other counts raise."""
        table = {i: ComplexValue.from_rational(re, im) for i, (re, im, _) in enumerate(terms)}
        weights = tuple(w for _, _, w in terms)
        view = integer_view(table)
        lane = mixed_sum(tuple, (weights,), view)
        assert lane is not None
        want = CV_ZERO
        for w, v in zip(weights, table.values()):
            want = want + v * w
        vectors = list(view.numerators.values())
        assert _parts(lane(vectors)) == _parts(want)
        for wrong in (vectors[:-1], [*vectors, vectors[0]]):
            with pytest.raises(ValueError):
                lane(wrong)

    def test_signed_zero_weights_get_their_own_lane(self):
        # the gate's cache compares args by ==, and 0.0 == -0.0 with one hash;
        # 1 * (-0.0) after 1 * 0.0 must still be the ring's -0.0
        view = integer_view({0: ComplexValue.from_rational(1)})
        for z in (0.0, -0.0, 0.0):
            weight = NumericValue.from_float(z)
            lane = mixed_sum(tuple, ((weight,),), view)
            assert _parts(lane([view.numerators[0]])) == _parts(ComplexValue.from_rational(1) * weight)
            assert lane([view.numerators[0]]).re.approx.hex() == z.hex()

    def test_refuses_log_tables_and_log_weights(self, fp2):
        rational = integer_view({0: ComplexValue.from_rational(1, 2)})
        with_log = integer_view({0: ComplexValue._coerce(ExactScalar.ln_q(fp2))})
        half, ln2 = NumericValue.from_rational(Fraction(1, 2)), NumericValue.from_exact(ExactScalar.ln_q(fp2))
        assert mixed_sum(tuple, ((half,),), None) is None
        assert mixed_sum(tuple, ((half,),), with_log) is None
        assert mixed_sum(tuple, ((ln2,),), rational) is None
        assert mixed_sum(tuple, ((half,),), rational) is not None


def _float_lane_terms():
    """(entry re, entry im, weight) triples with float entries, signed zeros often, and weights of every kind."""
    entries = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -1.25, 3.0]), st.floats(-1e6, 1e6))
    rationals = st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-5, 7)])
    weights = st.one_of(
        st.just(NV_ZERO),
        rationals.map(NumericValue.from_rational),
        st.one_of(st.sampled_from([0.0, -0.0, 2**0.5]), st.floats(-1e6, 1e6)).map(NumericValue.from_float),
    )
    return st.lists(st.tuples(entries, entries, weights), min_size=1, max_size=8)


class TestFloatView:
    def test_every_part_must_be_a_float(self):
        # an exact part refuses the view, an exact zero included: the ring
        # absorbs an exact zero where it keeps a float zero
        floats = {0: ComplexValue.from_complex(complex(0.5, -0.0)), 1: ComplexValue.from_complex(3j)}
        assert float_view(floats) == FloatView({0: (0.5, -0.0), 1: (0.0, 3.0)})
        for exact in (NV_ZERO, NumericValue.from_rational(Fraction(1, 2))):
            assert float_view({**floats, 2: ComplexValue(NumericValue.from_float(1.0), exact)}) is None
            assert float_view({**floats, 2: ComplexValue(exact, NumericValue.from_float(1.0))}) is None
        assert integer_view(floats) is None

    def test_integer_sum_refuses_a_float_view(self):
        # integer_sum folds terms into its weights, which would reassociate
        # float additions: exact rational weights still refuse a float view
        view = float_view({0: ComplexValue.from_complex(0.5 + 1j)})
        half = NumericValue.from_rational(Fraction(1, 2))
        assert integer_sum(tuple, ((half,),), view) is None
        assert mixed_sum(tuple, ((half,),), view) is not None

    @pytest.mark.parametrize("entry", [0.0, -0.0], ids=["+0.0", "-0.0"])
    @pytest.mark.parametrize("weight", [NumericValue.from_float(0.75), NumericValue.from_rational(Fraction(-2, 3))], ids=["float", "exact"])
    def test_a_float_zero_term_stays_a_float_zero(self, entry, weight):
        # 0.0 and -0.0 are falsy, yet the ring keeps their products as floats
        table = {0: ComplexValue.from_complex(complex(entry, entry))}
        view = float_view(table)
        got = mixed_sum(tuple, ((weight,),), view)([view.pairs[0]])
        want = table[0] * weight
        assert not got.re.is_exact and not got.im.is_exact
        assert _parts(got) == _parts(want)
        assert got.re.approx.hex() == (entry * float(weight)).hex()

    @given(terms=_float_lane_terms())
    @example(terms=[(1.0, 0.0, NV_ONE), (-1.0, -0.0, NV_ONE)])
    @example(terms=[(1.5, -2.0, NV_ZERO)])  # no term: an exact zero, as the ring's
    @example(terms=[(0.1, 0.2, NumericValue.from_rational(Fraction(1, 3))), (0.3, -0.0, NumericValue.from_float(2**0.5)), (1e-3, 0.0, NV_ZERO)])
    @settings(max_examples=300, deadline=None)
    def test_mixed_sum_is_the_ring_sum_on_floats(self, terms):
        """mixed_sum of w * v on a float view has the ring's exactness and bits in every part, added in weight order."""
        table = {i: ComplexValue.from_complex(complex(re, im)) for i, (re, im, _) in enumerate(terms)}
        weights = tuple(w for _, _, w in terms)
        view = float_view(table)
        lane = mixed_sum(tuple, (weights,), view)
        want = CV_ZERO
        for w, v in zip(weights, table.values()):
            want = want + v * w
        assert _parts(lane(list(view.pairs.values()))) == _parts(want)
