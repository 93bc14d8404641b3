import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_point, random_test_function
from ultrafrac.errors import DivergentIntegralError, UltrafracError
from ultrafrac.field import FieldParams, point
from ultrafrac.functions import (
    ExtendedFunction,
    TestFunction,
    constant_on_ball,
    indicator_ball,
    indicator_coset,
    lizorkin_project,
    log_tail,
    lp_distance,
    lp_norm,
    modulus_of_continuity,
    power_tail,
    zero_function,
)
from ultrafrac.numerics import ComplexValue, ExactScalar


class TestEvaluate:
    def test_indicator_inside_and_outside(self, fp2):
        f = indicator_ball(fp2, 0)
        assert f.evaluate(point(fp2, 3)).to_complex() == 1
        assert f.evaluate(point(fp2, Fraction(1, 2))).to_complex() == 0

    def test_power_tail_value(self, fp2):
        ef = ExtendedFunction(indicator_ball(fp2, 0), power_tail(1, Fraction(-1, 2)))
        assert ef.evaluate(point(fp2, Fraction(1, 4))).to_complex() == pytest.approx(0.5)

    def test_log_tail_value_is_ln_q(self, fp2):
        ef = ExtendedFunction(indicator_ball(fp2, 0), log_tail(0, 1))
        v = ef.evaluate(point(fp2, Fraction(1, 2)))
        assert v.re.exact == ExactScalar.ln_q(fp2)

    def test_decay_gate_is_structural(self, fp2):
        core = indicator_ball(fp2, 0)
        assert ExtendedFunction(core).has_strong_decay
        assert ExtendedFunction(core, power_tail(1, Fraction(-3, 2))).has_strong_decay
        assert not ExtendedFunction(core, power_tail(1, Fraction(-1, 2))).has_strong_decay
        assert not ExtendedFunction(core, log_tail(0, 1)).has_strong_decay


class TestIntegral:
    def test_unit_ball(self, fp2):
        assert indicator_ball(fp2, 0).integral().re.exact.a == 1

    def test_half_ball(self, fp2):
        assert indicator_ball(fp2, 1).integral().re.exact.a == Fraction(1, 2)

    def test_projected_function_has_zero_integral(self, fp2):
        rng = random.Random(5)
        f = lizorkin_project(random_test_function(fp2, -1, 2, rng))
        assert f.integral().is_exact_zero()


class TestLpDistance:
    def test_indicator_norm_any_p(self, fp2):
        f = indicator_ball(fp2, 0)
        for p in (1, 1.5, 2, 3):
            assert lp_norm(f, p) == pytest.approx(1.0, abs=1e-14)

    def test_disjointness_aware_coset_sum(self, fp2):
        # 1_O differs from the indicator of 1 + 2Z_2 exactly on 2Z_2
        f = indicator_ball(fp2, 0)
        g = indicator_coset(fp2, point(fp2, 1), 1)
        assert lp_distance(f, g, 1) == pytest.approx(0.5, abs=1e-14)

    def test_identical_functions(self, fp2):
        f = indicator_ball(fp2, 0)
        assert lp_distance(f, f, 1.7) == 0.0

    def test_power_tails_cancel_exactly(self, fp2):
        core = indicator_ball(fp2, 0)
        t = power_tail(Fraction(1, 3), Fraction(-2))
        assert lp_distance(ExtendedFunction(core, t), ExtendedFunction(core, t), 1) == 0.0

    def test_single_power_tail_closed_form(self, fp2):
        # |x|**-2 outside O: integral over |x| > 1 of |x|**-2 is 1/2
        ef = ExtendedFunction(constant_on_ball(fp2, 0, 0), power_tail(1, Fraction(-2)))
        assert lp_norm(ef, 1) == pytest.approx(0.5, rel=1e-12)

    def test_log_tail_divergence_reported(self, fp2):
        ef = ExtendedFunction(indicator_ball(fp2, 0), log_tail(0, 1))
        with pytest.raises(DivergentIntegralError):
            lp_norm(ef, 1)

    @pytest.mark.parametrize("p", [1, 2.5])
    def test_equal_log_tails_leave_the_windows(self, fp2, p):
        # outside the common window the exact log tails cancel term by term
        rng = random.Random(11)
        f = random_test_function(fp2, -1, 1, rng)
        g = random_test_function(fp2, -1, 2, rng)
        t = log_tail(Fraction(1, 3), Fraction(-2, 5))
        assert lp_distance(ExtendedFunction(f, t), ExtendedFunction(g, t), p) == lp_distance(f, g, p)

    def test_different_log_coefficients_diverge(self, fp2):
        core = indicator_ball(fp2, 0)
        f = ExtendedFunction(core, log_tail(Fraction(1, 3), 1))
        g = ExtendedFunction(core, log_tail(Fraction(1, 3), 2))
        with pytest.raises(DivergentIntegralError, match="log-growth"):
            lp_distance(f, g, 1)

    def test_slow_power_tail_divergence_reported(self, fp2):
        ef = ExtendedFunction(indicator_ball(fp2, 0), power_tail(1, Fraction(-1, 2)))
        with pytest.raises(DivergentIntegralError):
            lp_norm(ef, 1)

    @pytest.mark.parametrize("fp", [FieldParams(2), FieldParams(3), FieldParams(2, 2)], ids=["q2", "q3", "q4"])
    def test_slow_two_term_tail_sums_single_closed_forms(self, fp):
        # positive coefficients: the L^1 integrand is the sum of the two terms.
        # About 5000 shells at q = 2; the shell and bound factors used to overflow.
        zero = constant_on_ball(fp, 0, 0)
        f = ExtendedFunction(zero, power_tail(1, Fraction(-101, 100)))
        g = ExtendedFunction(zero, power_tail(-2, Fraction(-3)))
        want = lp_norm(f, 1) + lp_norm(ExtendedFunction(zero, power_tail(2, Fraction(-3))), 1)
        assert lp_distance(f, g, 1) == pytest.approx(want, rel=1e-10)

    def test_tail_too_slow_to_bracket_raises(self, fp2):
        zero = constant_on_ball(fp2, 0, 0)
        f = ExtendedFunction(zero, power_tail(1, Fraction(-10001, 10000)))
        g = ExtendedFunction(zero, power_tail(-2, Fraction(-3)))
        start = time.perf_counter()
        with pytest.raises(UltrafracError, match="did not converge within 100000 shells"):
            lp_distance(f, g, 1)
        # decided before the shells are summed
        assert time.perf_counter() - start < 0.1

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = random.Random(seed)
        fp = FieldParams(rng.choice([2, 3]))
        f = random_test_function(fp, -1, 1, rng, complex_vals=True)
        g = random_test_function(fp, 0, 2, rng)
        h = random_test_function(fp, -1, 0, rng)
        p = rng.choice([1, 1.5, 2])
        assert lp_distance(f, h, p) <= lp_distance(f, g, p) + lp_distance(g, h, p) + 1e-10


class TestModulusOfContinuity:
    def test_zero_within_constancy_scale(self, fp2):
        f = indicator_ball(fp2, 0)
        assert modulus_of_continuity(f, point(fp2, 3), 1) == 0.0
        assert modulus_of_continuity(f, point(fp2, 2), 1) == 0.0

    def test_disjoint_translate_two_unit_balls(self, fp2):
        f = indicator_ball(fp2, 0)
        assert modulus_of_continuity(f, point(fp2, Fraction(1, 2)), 1) == pytest.approx(2.0)

    def test_small_ball_disjoint_translate(self, fp2):
        f = indicator_ball(fp2, 3)
        assert modulus_of_continuity(f, point(fp2, 4), 1) == pytest.approx(0.25)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_translation_within_constancy_is_identity(self, seed):
        rng = random.Random(seed)
        fp = FieldParams(rng.choice([2, 3]), rng.choice([1, 2]))
        f = random_test_function(fp, -1, 1, rng)
        h = random_point(fp, rng).scaled_by_prime_power(fp, 6)  # |h| <= q**-constancy
        assert f.translated(h).table_equal(f)


class TestTableEqual:
    def test_tiny_exact_difference_is_not_equal(self, fp2):
        # 1/10**400 rounds to 0.0 as a float; exact tables must still differ
        tiny = constant_on_ball(fp2, 0, Fraction(1, 10**400))
        assert not tiny.table_equal(zero_function(fp2))
        assert tiny.table_equal(constant_on_ball(fp2, 0, Fraction(1, 10**400)))

    def test_float_entries_compare_as_floats(self, fp2):
        a = constant_on_ball(fp2, 0, ComplexValue.from_complex(0.5 + 0j))
        assert a.table_equal(constant_on_ball(fp2, 0, Fraction(1, 2)))
        assert not a.table_equal(constant_on_ball(fp2, 0, Fraction(1, 3)))

    @pytest.mark.parametrize("other", [FieldParams(3), FieldParams(2, 2)])
    def test_functions_over_different_fields_do_not_compare(self, other):
        for level in (0, 1):
            with pytest.raises(UltrafracError, match="different fields"):
                indicator_ball(FieldParams(2), level).table_equal(indicator_ball(other, level))


class TestLizorkinProject:
    def test_unit_ball_projection(self, fp2):
        f = lizorkin_project(indicator_ball(fp2, 0), -1)
        assert f.integral().is_exact_zero()
        vals = sorted(v.re.exact.a for v in f.values.values())
        assert vals == [Fraction(-1, 2), Fraction(1, 2)]

    def test_idempotent(self, fp2):
        rng = random.Random(11)
        f = random_test_function(fp2, -1, 2, rng)
        once = lizorkin_project(f, -2)
        twice = lizorkin_project(once, -2)
        assert once.table_equal(twice)

    def test_zero_function_fixed(self, fp2):
        z = zero_function(fp2)
        assert lizorkin_project(z).integral().is_exact_zero()

    def test_mean_zero_already_unchanged(self, fp2):
        f = lizorkin_project(indicator_ball(fp2, 0), -1)
        assert lizorkin_project(f).table_equal(f)
