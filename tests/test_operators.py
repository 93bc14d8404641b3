import math
import random
import warnings
from fractions import Fraction

import pytest

from conftest import random_test_function
from test_value_fingerprint import _part
from ultrafrac.errors import (
    DivergentIntegralError,
    HypothesisBoundaryWarning,
    HypothesisViolationError,
)
from ultrafrac.field import FieldParams, digits_to_point, enumerate_digits, point, zero_point
from ultrafrac.functions import (
    ExtendedFunction,
    LogTail,
    PowerTail,
    TestFunction,
    ZeroTail,
    constant_on_ball,
    indicator_ball,
    lizorkin_project,
    lp_norm,
    power_tail,
)
from ultrafrac import functions, operators
from ultrafrac.numerics import ComplexValue, ExactScalar, NumericValue
from ultrafrac.operators import (
    OperatorParams,
    averaging_apply,
    constants,
    inversion_residual,
    kernel_normalization,
    kernel_r,
    kernel_r1,
    kernel_r_oracle,
    minkowski_bound,
    riesz_potential,
    truncated_vladimirov,
    vladimirov_hypersingular,
    vladimirov_on_window,
)


def params(q, alpha, n=1):
    return OperatorParams(FieldParams(q, n), alpha)


class TestConstants:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_order_one_closed_form(self, q):
        c = constants(params(q, 1)).c
        assert c.exact.a == Fraction(-q * q, q + 1)

    def test_q2_order_two(self):
        cc = constants(params(2, 2))
        assert cc.c.exact.a == Fraction(-24, 7)
        assert cc.d.exact.a == Fraction(-3, 4)
        assert cc.cd.exact.a == Fraction(18, 7)

    def test_half_order_d_is_one(self):
        cc = constants(params(2, Fraction(1, 2)))
        assert cc.d.exact.a == 1
        assert float(cc.cd) == pytest.approx(-0.6407544820340816, abs=1e-12)

    def test_log_branch_normalizer(self):
        cc = constants(params(2, 1))
        assert cc.d.exact == ExactScalar.inv_ln_q(FieldParams(2), Fraction(-1, 2))
        # c1*d1 = q(q-1)/((q+1) ln q) > 0
        assert cc.cd.exact == ExactScalar.inv_ln_q(FieldParams(2), Fraction(2, 3))

    @pytest.mark.parametrize(
        "q,alpha",
        [(q, a) for q in (2, 3, 5) for a in (Fraction(1, 2), Fraction(3, 4), 2, 3)],
    )
    def test_product_matches_closed_form(self, q, alpha):
        pr = params(q, alpha)
        cd = float(constants(pr).cd)
        g = float(pr.gamma)
        prod = (1 - q**-g) ** 2 / (q ** (-2 * g - 1) - q**-g - q ** (-g - 2) + 1 / q)
        assert cd == pytest.approx(prod, rel=1e-12)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            params(2, 0)


class TestKernel:
    def test_spot_value_minus_sqrt2(self):
        r = kernel_r(params(2, Fraction(1, 2)), 1)
        assert float(r) == pytest.approx(-math.sqrt(2), abs=1e-12)

    def test_zero_branch_exact(self):
        pr = params(2, Fraction(1, 2))
        for j in (0, -1, -5):
            assert kernel_r(pr, j).is_exact_zero()

    def test_log_branch_values(self):
        pr = params(2, 1)
        assert kernel_r(pr, 2).exact == ExactScalar.ln_q(FieldParams(2), 3)
        assert kernel_r1(pr, 1).exact.a == Fraction(4, 3)

    def test_table_contents(self):
        # R1 = c*d*R shell by shell, exactly on the log branch
        pr = params(2, 1)
        cd = constants(pr).cd
        for j in range(1, 5):
            assert kernel_r1(pr, j).exact == (cd * kernel_r(pr, j)).exact

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1])
    def test_closed_form_vs_defining_integral(self, q, alpha):
        pr = params(q, alpha)
        for j in range(-3, 7):
            assert float(kernel_r(pr, j)) == pytest.approx(kernel_r_oracle(pr, j), abs=1e-10)

    def test_oracle_spot_values(self):
        assert kernel_r_oracle(params(2, Fraction(1, 2)), 1) == pytest.approx(
            -math.sqrt(2), abs=1e-10
        )
        assert kernel_r_oracle(params(2, Fraction(1, 2)), -1) == pytest.approx(0.0, abs=1e-10)
        assert kernel_r_oracle(params(3, Fraction(7, 10)), 0) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_unit_mass_exact_on_rational_paths(self, q, alpha):
        total = kernel_normalization(params(q, alpha))
        assert total.is_exact and total.exact == ExactScalar.rational(1)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2), Fraction(7, 10)])
    def test_unit_mass_float_paths(self, q, alpha):
        assert float(kernel_normalization(params(q, alpha))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q,alpha", [(2, Fraction(1, 2)), (3, Fraction(9, 10)), (2, 1), (5, 1)])
    def test_positivity_up_to_critical_order(self, q, alpha):
        pr = params(q, alpha)
        assert all(float(kernel_r1(pr, j)) > 0 for j in range(1, 26))

    def test_above_critical_order_reports_minimum_only(self):
        # no sign assertion above the critical order: only record the minimum
        # and check the closed form still matches the defining integral
        pr = params(2, Fraction(3, 2))
        values = [float(kernel_r1(pr, j)) for j in range(1, 26)]
        assert math.isfinite(min(values))
        for j in range(-2, 5):
            assert float(kernel_r(pr, j)) == pytest.approx(kernel_r_oracle(pr, j), abs=1e-10)


class TestRieszPotential:
    def test_half_order_of_unit_ball(self, fp2):
        u = riesz_potential(params(2, Fraction(1, 2)), indicator_ball(fp2, 0))
        assert float(u.evaluate(zero_point(fp2)).re) == pytest.approx(1 + 2**-0.5, abs=1e-12)
        assert float(u.evaluate(point(fp2, Fraction(1, 4))).re) == pytest.approx(0.5, abs=1e-14)
        assert isinstance(u.tail, PowerTail) and u.tail.exponent == Fraction(-1, 2)

    def test_log_branch_of_unit_ball(self, fp2):
        u = riesz_potential(params(2, 1), indicator_ball(fp2, 0))
        assert u.evaluate(zero_point(fp2)).re.exact.a == Fraction(1, 2)
        assert isinstance(u.tail, LogTail)
        # tail is -(1/2) log_2 |x|: at |x| = 4 the value is -1
        assert u.evaluate(point(fp2, Fraction(1, 4))).re.exact.a == -1

    def test_zero_input_gives_zero(self, fp2):
        u = riesz_potential(params(2, Fraction(1, 2)), constant_on_ball(fp2, 0, 0))
        assert isinstance(u.tail, ZeroTail)
        assert u.evaluate(point(fp2, 5)).is_exact_zero()

    def test_zero_mean_input_has_zero_tail(self, fp2):
        phi = lizorkin_project(indicator_ball(fp2, 0), -1)
        u = riesz_potential(params(2, Fraction(1, 2)), phi)
        assert isinstance(u.tail, ZeroTail)

    def test_window_boundary_splice_is_consistent(self, fp2):
        # recompute on a dilated window: the extra shell must match the tail formula
        phi = indicator_ball(fp2, 0)
        for alpha in (Fraction(1, 2), 1, 2):
            pr = params(2, alpha)
            u = riesz_potential(pr, phi)
            u_wide = riesz_potential(pr, phi, window_level=phi.support_level - 1)
            for d in enumerate_digits(fp2, phi.support_level - 1, phi.constancy_level):
                x = digits_to_point(fp2, d, phi.support_level - 1)
                assert abs((u_wide.core.evaluate(x) - u.evaluate(x)).to_complex()) < 1e-13


class TestHypersingular:
    def test_unit_ball_spot_values(self, fp2):
        u = ExtendedFunction.from_test_function(indicator_ball(fp2, 0))
        pr = params(2, 1)
        assert vladimirov_hypersingular(pr, u, zero_point(fp2)).re.exact.a == Fraction(2, 3)
        assert vladimirov_hypersingular(pr, u, point(fp2, Fraction(1, 2))).re.exact.a == Fraction(-1, 3)

    def test_half_order_matches_ball_integral(self, fp2):
        u = ExtendedFunction.from_test_function(indicator_ball(fp2, 0))
        got = vladimirov_hypersingular(params(2, Fraction(1, 2)), u, zero_point(fp2))
        assert float(got.re) == pytest.approx(0.7734590803390136, abs=1e-12)

    def test_globally_constant_function_annihilated(self, fp2):
        u = ExtendedFunction(constant_on_ball(fp2, -1, 5), power_tail(5, 0))
        got = vladimirov_hypersingular(params(2, Fraction(1, 2)), u, point(fp2, Fraction(1, 2)))
        assert abs(got.to_complex()) == 0.0

    def test_left_inverse_on_test_functions(self):
        rng = random.Random(17)
        for q in (2, 3):
            fp = FieldParams(q)
            phi = random_test_function(fp, -1, 1, rng)
            for alpha in (Fraction(1, 2), 1):
                pr = params(q, alpha)
                u = riesz_potential(pr, phi)
                for d in enumerate_digits(fp, -1, 1):
                    x = digits_to_point(fp, d, -1)
                    got = vladimirov_hypersingular(pr, u, x)
                    want = phi.evaluate(x)
                    assert abs((got - want).to_complex()) < 1e-10

    def test_tail_growth_gate(self, fp2):
        u = ExtendedFunction(constant_on_ball(fp2, 0, 1), power_tail(1, Fraction(2)))
        with pytest.raises(DivergentIntegralError):
            vladimirov_hypersingular(params(2, Fraction(1, 2)), u, zero_point(fp2))


class TestTruncated:
    def test_recovers_indicator_exactly(self, fp2):
        one_O = indicator_ball(fp2, 0)
        u = riesz_potential(params(2, Fraction(1, 2)), one_O)
        got = truncated_vladimirov(params(2, Fraction(1, 2)), 1, u, zero_point(fp2))
        assert float(got.re) == pytest.approx(1.0, abs=1e-12)

    def test_log_branch_recovery_is_exactly_rational(self, fp2):
        one_O = indicator_ball(fp2, 0)
        pr = params(2, 1)
        u = riesz_potential(pr, one_O)
        got = truncated_vladimirov(pr, 1, u, zero_point(fp2))
        assert got.re.exact == ExactScalar.rational(1)

    @pytest.mark.parametrize("nu", [0, -1, -3, 1.5, 2.0])
    @pytest.mark.parametrize(
        "route",
        [
            lambda pr, phi, nu: truncated_vladimirov(pr, nu, phi, zero_point(pr.fp)),
            lambda pr, phi, nu: averaging_apply(pr, nu, phi, zero_point(pr.fp)),
            lambda pr, phi, nu: inversion_residual(pr, 1, phi, nu),
            lambda pr, phi, nu: minkowski_bound(pr, 1, phi, nu),
        ],
        ids=["truncated_vladimirov", "averaging_apply", "inversion_residual", "minkowski_bound"],
    )
    def test_rejects_nonpositive_truncation(self, fp2, route, nu):
        phi = lizorkin_project(indicator_ball(fp2, 0), -1)
        with pytest.raises(ValueError, match="truncation index must be a positive integer"):
            route(params(2, Fraction(1, 2)), phi, nu)


def _riesz_of(kind: str, alpha):
    """The Riesz potential of an exact, a complex or a float-mixed table on 0..2 over Q_2."""
    fp = FieldParams(2)
    phi = random_test_function(fp, 0, 2, random.Random(41), complex_vals=kind == "complex")
    if kind == "mixed":
        table = {
            d: ComplexValue(NumericValue.from_float(float(v.re)), v.im) if i % 2 else v
            for i, (d, v) in enumerate(phi.values.items())
        }
        phi = TestFunction(fp, 0, 2, table)
    return riesz_potential(params(2, alpha), phi)


class TestOperatorWindow:
    @pytest.mark.parametrize("nu", [None, 1, 2])
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 1], ids=["power_tail", "log_tail"])
    @pytest.mark.parametrize("kind", ["exact", "complex", "mixed"])
    def test_window_equals_the_point_routes(self, kind, alpha, nu):
        pr = params(2, alpha)
        u = _riesz_of(kind, alpha)
        assert isinstance(u.tail, LogTail if alpha == 1 else PowerTail)
        for w in (u.window_level - 1, u.window_level - 2):
            rows = vladimirov_on_window(pr, u, w, nu)
            assert len({u.sphere_sums(x)[0] for x, _ in rows}) == u.window_level - w + 1
            for x, got in rows:
                want = vladimirov_hypersingular(pr, u, x) if nu is None else truncated_vladimirov(pr, nu, u, x)
                assert (_part(got.re), _part(got.im)) == (_part(want.re), _part(want.im))

    def test_far_sum_runs_once_per_first_sphere_level(self, monkeypatch):
        pr = params(2, Fraction(1, 2))
        u = riesz_potential(pr, random_test_function(FieldParams(2), 0, 5, random.Random(43)))
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return far_sum(*args)

        far_sum = operators._closed_far_sum
        monkeypatch.setattr(operators, "_closed_far_sum", counted)
        for nu in (None, 2):
            calls.clear()
            rows = vladimirov_on_window(pr, u, u.window_level - 1, nu)
            assert len(rows) == 64
            first_levels = {u.sphere_sums(x)[0] for x, _ in rows}
            assert len(calls) == len(first_levels) == 2

    def test_window_points_never_ask_for_their_size(self, monkeypatch):
        # inside the window the core's address alone finds a point; beyond it
        # the size is asked for once per point
        pr = params(2, Fraction(1, 2))
        u = riesz_potential(pr, random_test_function(FieldParams(2), 0, 5, random.Random(43)))
        calls = []
        size = functions.abs_exponent
        monkeypatch.setattr(functions, "abs_exponent", lambda fp, x: calls.append(x) or size(fp, x))
        rows = vladimirov_on_window(pr, u, window_level=u.window_level, nu=1)
        for x, _ in rows:
            u.evaluate(x)
        assert len(rows) == 32 and calls == []
        assert len(vladimirov_on_window(pr, u, window_level=u.window_level - 1, nu=1)) == 64
        assert len(calls) == 32

    def test_weights_are_built_only_for_nonzero_shells(self):
        # at level 700 the shell weight 2**(3/2 * 699) is beyond float range; the
        # zero table never needs it, so the window is exact zeros, not an OverflowError
        fp = FieldParams(2)
        rows = vladimirov_on_window(params(2, Fraction(1, 2)), constant_on_ball(fp, 700, 0))
        assert len(rows) == 2 and all(v.is_exact_zero() for _, v in rows)


def test_readme_library_example():
    # the calls of the README's "Library use" section and the values its comments state
    from ultrafrac import (
        FieldParams, OperatorParams, averaging_apply, indicator_ball, inversion_residual,
        riesz_potential, truncated_vladimirov, zero_point,
    )

    fp = FieldParams(2)
    params = OperatorParams(fp, 1)
    phi = indicator_ball(fp, 0)
    u = riesz_potential(params, phi)
    x = zero_point(fp)
    assert isinstance(u.tail, LogTail)
    for value in (truncated_vladimirov(params, 1, u, x), averaging_apply(params, 1, phi, x)):
        assert value.re.exact == ExactScalar.rational(1) and value.im.is_exact_zero()
    assert inversion_residual(params, 1, phi, 1) == 0.0


class TestAveraging:
    def test_unit_ball_recovery(self, fp2):
        one_O = indicator_ball(fp2, 0)
        got = averaging_apply(params(2, Fraction(1, 2)), 1, one_O, zero_point(fp2))
        assert float(got.re) == pytest.approx(1.0, abs=1e-12)

    def test_outside_support_gives_zero(self, fp2):
        one_O = indicator_ball(fp2, 0)
        got = averaging_apply(params(2, Fraction(1, 2)), 1, one_O, point(fp2, Fraction(1, 2)))
        assert got.to_complex() == 0

    def test_log_branch_recovery(self, fp2):
        got = averaging_apply(params(2, 1), 1, indicator_ball(fp2, 0), zero_point(fp2))
        assert got.re.exact == ExactScalar.rational(1)

    def test_above_critical_requires_zero_mean(self, fp2):
        pr = params(2, Fraction(3, 2))
        with pytest.raises(HypothesisViolationError):
            averaging_apply(pr, 1, indicator_ball(fp2, 0), zero_point(fp2))
        phi = lizorkin_project(indicator_ball(fp2, 0), -1)
        got = averaging_apply(pr, 2, phi, zero_point(fp2))
        assert float(got.re) == pytest.approx(float(phi.evaluate(zero_point(fp2)).re), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_truncated_riesz_route(self, seed):
        rng = random.Random(1000 + seed)
        q = rng.choice([2, 3])
        fp = FieldParams(q)
        phi = random_test_function(fp, rng.choice([-1, 0]), rng.choice([1, 2]), rng)
        for alpha in (Fraction(1, 2), 1):
            pr = params(q, alpha)
            u = riesz_potential(pr, phi)
            for nu in (1, 2, 3):
                for d in enumerate_digits(fp, phi.support_level, phi.constancy_level):
                    x = digits_to_point(fp, d, phi.support_level)
                    lhs = truncated_vladimirov(pr, nu, u, x)
                    rhs = averaging_apply(pr, nu, phi, x)
                    if alpha == 1:
                        assert (lhs - rhs).is_exact_zero()
                    else:
                        assert abs((lhs - rhs).to_complex()) < 1e-10


class TestInversionResidual:
    def test_exact_recovery_for_unit_ball(self, fp2):
        pr = params(2, Fraction(1, 2))
        assert inversion_residual(pr, 1, indicator_ball(fp2, 0), 1) <= 1e-12

    def test_log_branch_residual_is_bitwise_zero(self, fp2):
        assert inversion_residual(params(2, 1), 1, indicator_ball(fp2, 0), 1) == 0.0

    def test_small_ball_bound_and_vanishing(self, fp2):
        pr = params(2, Fraction(1, 2))
        phi = indicator_ball(fp2, 3)
        resid = inversion_residual(pr, 1, phi, 1)
        bound = minkowski_bound(pr, 1, phi, 1)
        assert 0 < resid <= bound + 1e-10
        assert bound == pytest.approx(0.05663522991524665, abs=1e-10)
        assert inversion_residual(pr, 1, phi, 2) <= 1e-12

    def test_minkowski_bound_holds_for_random_inputs(self):
        rng = random.Random(5150)
        for _ in range(4):
            q = rng.choice([2, 3])
            fp = FieldParams(q)
            phi = random_test_function(fp, rng.choice([-1, 0]), 3, rng)
            pr = params(q, Fraction(1, 2))
            for nu in (1, 2):
                resid = inversion_residual(pr, 1, phi, nu)
                bound = minkowski_bound(pr, 1, phi, nu)
                assert resid <= bound + 1e-10

    def test_warns_outside_proven_exponent_range(self, fp2):
        pr = params(2, Fraction(1, 2))
        with pytest.warns(HypothesisBoundaryWarning):
            inversion_residual(pr, 2.5, indicator_ball(fp2, 0), 1)
        with pytest.warns(HypothesisBoundaryWarning):
            inversion_residual(params(2, 1), 2, indicator_ball(fp2, 0), 1)

    def test_no_warning_inside_range(self, fp2):
        pr = params(2, Fraction(1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inversion_residual(pr, 1.9, indicator_ball(fp2, 0), 1)

    def test_log_branch_decay_gate(self, fp2):
        u_bad = ExtendedFunction(indicator_ball(fp2, 0), power_tail(1, Fraction(-1, 2)))
        with pytest.raises(HypothesisViolationError):
            inversion_residual(params(2, 1), 1, u_bad, 1)

    @pytest.mark.parametrize("lp", [math.nan, math.inf, 0.5])
    def test_non_finite_or_small_exponent_rejected(self, fp2, lp):
        phi = indicator_ball(fp2, 0)
        pr = params(2, Fraction(1, 2))
        for route in (
            lambda: lp_norm(phi, lp),
            lambda: inversion_residual(pr, lp, phi, 1),
            # nu past the constancy level leaves no shell to sum
            lambda: minkowski_bound(pr, lp, phi, 1),
        ):
            with pytest.raises(ValueError, match="finite p >= 1"):
                route()


class TestOperatorParams:
    def test_gamma_is_order_over_degree(self):
        pr = OperatorParams(FieldParams(2, 2), 1)
        assert pr.gamma == Fraction(1, 2)
        assert params(3, Fraction(1, 2)).gamma == Fraction(1, 2)

    def test_canonical_scale_element(self):
        from ultrafrac.field import abs_exponent

        for q, n in ((2, 1), (3, 2)):
            pr = OperatorParams(FieldParams(q, n), 1)
            assert abs_exponent(pr.fp, pr.sigma) == -1
