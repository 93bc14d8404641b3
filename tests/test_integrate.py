import random
from fractions import Fraction

import pytest

from conftest import random_test_function
from ultrafrac.errors import DivergentIntegralError, RegionMismatchError
from ultrafrac.field import FieldParams, point
from ultrafrac.functions import (
    ExtendedFunction,
    constant_on_ball,
    indicator_ball,
    log_tail,
    power_tail,
)
from ultrafrac.integrate import (
    LogProfile,
    OracleTailSpec,
    PowerProfile,
    Region,
    ShiftedProfile,
    _closed_far_sum,
    ball_profile_integral,
    brute_force_oracle,
    integrate_product,
    log_over_ball,
    oracle_log_over_ball,
    oracle_power_over_ball,
    oracle_shifted_log_over_sphere,
    oracle_shifted_power_over_sphere,
    power_over_ball,
    profile_value,
    shifted_log_over_sphere,
    shifted_power_over_sphere,
)
from ultrafrac.numerics import ExactScalar


class TestClosedForms:
    def test_power_ball_values(self, fp2):
        assert power_over_ball(fp2, 2, 0).exact.a == Fraction(2, 3)
        assert power_over_ball(fp2, 1, 3).exact.a == 8
        assert float(power_over_ball(fp2, Fraction(3, 2), 0)) == pytest.approx(0.773459080339,
                                                                               rel=1e-11)

    def test_shifted_power_sphere_values(self, fp2, fp3):
        assert shifted_power_over_sphere(fp2, 2, 0).exact.a == Fraction(1, 6)
        assert shifted_power_over_sphere(fp3, 1, 1).exact.a == 2
        assert float(shifted_power_over_sphere(fp2, Fraction(1, 2), 0)) == pytest.approx(
            1.20710678118655, rel=1e-12
        )

    def test_log_ball_values(self, fp2, fp3):
        assert log_over_ball(fp2, 0).exact == ExactScalar.ln_q(fp2, -1)
        assert log_over_ball(fp3, 1).exact == ExactScalar.ln_q(fp3, Fraction(3, 2))
        assert log_over_ball(fp2, 1).exact.is_zero()

    def test_shifted_log_sphere_values(self, fp2, fp3):
        assert shifted_log_over_sphere(fp2, 0).exact == ExactScalar.ln_q(fp2, -1)
        assert shifted_log_over_sphere(fp3, 0).exact == ExactScalar.ln_q(fp3, Fraction(-1, 2))
        assert shifted_log_over_sphere(fp2, 1).exact == ExactScalar.ln_q(fp2, -1)

    def test_radius_mismatch_rejected(self, fp2):
        with pytest.raises(RegionMismatchError):
            shifted_power_over_sphere(fp2, 1, 2, a_abs_exp=1)

    def test_nonpositive_exponent_rejected(self, fp2):
        with pytest.raises(DivergentIntegralError):
            power_over_ball(fp2, 0, 0)


class TestClosedVsOracleGrid:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", range(-2, 3))
    def test_exact_grid_integer_alpha(self, q, n):
        fp = FieldParams(q)
        for alpha in (1, 2, 3):
            assert power_over_ball(fp, alpha, n).exact == oracle_power_over_ball(fp, alpha, n).exact
            assert (
                shifted_power_over_sphere(fp, alpha, n).exact
                == oracle_shifted_power_over_sphere(fp, alpha, n).exact
            )
        assert log_over_ball(fp, n).exact == oracle_log_over_ball(fp, n).exact
        assert shifted_log_over_sphere(fp, n).exact == oracle_shifted_log_over_sphere(fp, n).exact

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10), Fraction(3, 2)])
    def test_float_grid(self, q, alpha):
        fp = FieldParams(q)
        for n in range(-2, 3):
            c, o = power_over_ball(fp, alpha, n), oracle_power_over_ball(fp, alpha, n, depth=60)
            assert float(c) == pytest.approx(float(o), rel=1e-8)
            c, o = (
                shifted_power_over_sphere(fp, alpha, n),
                oracle_shifted_power_over_sphere(fp, alpha, n, depth=60),
            )
            assert float(c) == pytest.approx(float(o), rel=1e-8)


class TestIntegrateProduct:
    def test_inverse_square_outside_unit_ball(self, fp2):
        f = ExtendedFunction(constant_on_ball(fp2, 0, 1), power_tail(1, 0))  # identically 1
        got = integrate_product(PowerProfile(Fraction(-2)), f, Region.outside(0))
        assert got.re.exact.a == 1

    def test_riesz_kernel_against_indicator(self, fp2):
        got = integrate_product(PowerProfile(Fraction(-1, 2)), indicator_ball(fp2, 0))
        assert float(got.re) == pytest.approx(float(power_over_ball(fp2, Fraction(1, 2), 0)), rel=1e-14)

    def test_log_profile_over_unit_ball(self, fp2):
        got = integrate_product(LogProfile(), indicator_ball(fp2, 0), Region.ball(0))
        assert got.re.exact == ExactScalar.ln_q(fp2, -1)

    def test_shifted_profile_reduces_to_translate(self, fp2):
        shift = point(fp2, 1)
        prof = ShiftedProfile(PowerProfile(Fraction(1)), shift)
        got = integrate_product(prof, indicator_ball(fp2, 0))
        # integral of |x - 1| over O: the shift is inside, so it equals power_over_ball(2, 0)
        assert got.re.exact == power_over_ball(fp2, 2, 0).exact

    def test_linearity(self, fp2):
        rng = random.Random(3)
        f = random_test_function(fp2, -1, 1, rng)
        g = random_test_function(fp2, 0, 2, rng)
        prof = PowerProfile(Fraction(1, 3))
        lhs = integrate_product(prof, f + g)
        rhs = integrate_product(prof, f) + integrate_product(prof, g)
        assert abs((lhs - rhs).to_complex()) < 1e-12

    def test_child_ball_additivity(self, fp3):
        rng = random.Random(4)
        f = random_test_function(fp3, -1, 2, rng)
        prof = PowerProfile(Fraction(2))
        whole = integrate_product(prof, f, Region.ball(0))
        parts = integrate_product(prof, f, Region.sphere(0)) + integrate_product(
            prof, f, Region.ball(1)
        )
        assert (whole - parts).is_exact_zero()

    def test_divergence_reported_structurally(self, fp2):
        f = ExtendedFunction(constant_on_ball(fp2, 0, 1), power_tail(1, 0))
        with pytest.raises(DivergentIntegralError):
            integrate_product(PowerProfile(Fraction(-1)), f, Region.outside(0))

    @pytest.mark.parametrize(
        "route",
        [
            lambda fp, prof: profile_value(fp, prof, 0),
            lambda fp, prof: ball_profile_integral(fp, prof, 0),
            lambda fp, prof: _closed_far_sum(fp, prof, ExtendedFunction(indicator_ball(fp, 0)), -1),
        ],
        ids=["profile_value", "ball_profile_integral", "closed_far_sum"],
    )
    def test_shifted_profile_is_not_centered(self, fp2, route):
        prof = ShiftedProfile(LogProfile(), point(fp2, 1))
        with pytest.raises(TypeError, match="not a centered radial profile"):
            route(fp2, prof)

    @pytest.mark.parametrize("const", [0, 1])
    def test_log_profile_against_log_tail_diverges(self, fp2, const):
        # ln|x| * (const + ln|x|) grows without bound outside every ball
        f = ExtendedFunction(constant_on_ball(fp2, 0, 1), log_tail(const, 1))
        with pytest.raises(DivergentIntegralError):
            integrate_product(LogProfile(), f)


class TestBruteForceOracle:
    def test_validates_power_over_ball(self, fp2):
        res = brute_force_oracle(
            fp2,
            lambda pt: float(_abs_f(fp2, pt)),  # integrand |x|**(2-1)
            Region.ball(0),
            resolution=12,
            tail_spec=OracleTailSpec(inner=(1.0, 1.0)),
        )
        target = float(power_over_ball(fp2, 2, 0))
        assert res.value == pytest.approx(target, abs=res.tail_bound + 1e-9)

    def test_constant_is_exact_at_any_resolution(self, fp3):
        res = brute_force_oracle(fp3, lambda pt: 1.0, Region.ball(0), resolution=4,
                                 tail_spec=OracleTailSpec(inner=(1.0, 0.0)))
        assert res.value + 3.0 ** (-4) == pytest.approx(1.0, rel=1e-12)

    def test_validates_shifted_sphere(self, fp2):
        a = point(fp2, 1)
        res = brute_force_oracle(
            fp2,
            lambda pt: float(_abs_f(fp2, pt - a)),
            Region.sphere(0),
            resolution=11,
        )
        # integrand |x - a| on |x| = 1: compare with the alpha = 2 closed form
        assert res.value == pytest.approx(float(shifted_power_over_sphere(fp2, 2, 0)), abs=2e-4)


def _level_of(fp, pt):
    from ultrafrac.field import abs_exponent

    e = abs_exponent(fp, pt)
    return 0 if e is None else -e


def _abs_f(fp, pt):
    from ultrafrac.field import abs_value

    return abs_value(fp, pt)
