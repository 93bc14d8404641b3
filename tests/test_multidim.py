import random
import warnings
from fractions import Fraction

import pytest

from conftest import random_point, random_test_function
from test_value_fingerprint import _ser
from ultrafrac.errors import UltrafracError
from ultrafrac import operators
from ultrafrac.field import FieldParams, abs_exponent, abs_value, point, zero_point
from ultrafrac.functions import indicator_ball
from ultrafrac.multidim import (
    DimensionBridge,
    inversion_residual_multidim,
    kernel_r_multidim,
    max_norm,
    taibleson_direct,
    taibleson_on_window,
    taibleson_via_extension,
)
from ultrafrac.operators import kernel_normalization, kernel_r_oracle, minkowski_bound


class TestMaxNorm:
    def test_example(self):
        fp = FieldParams(2, 2)
        assert max_norm(fp, point(fp, 3, Fraction(1, 2))) == 2

    def test_zero_marker(self):
        fp = FieldParams(2, 2)
        assert abs_exponent(fp, zero_point(fp)) is None
        assert max_norm(fp, zero_point(fp)) == 0

    def test_degree_one_is_absolute_value(self):
        fp = FieldParams(3, 1)
        rng = random.Random(2)
        for _ in range(30):
            x = random_point(fp, rng)
            assert max_norm(fp, x) == abs_value(fp, x)

    def test_extension_absolute_value_is_nth_power(self):
        rng = random.Random(8)
        for p, n in ((2, 2), (3, 2), (2, 3)):
            fp = FieldParams(p, n)
            for _ in range(3500):
                x = random_point(fp, rng)
                assert abs_value(fp, x) == max_norm(fp, x) ** n


class TestTaiblesonRoutes:
    def test_spot_values_unit_polyball(self):
        br = DimensionBridge(2, 2, 1)
        f = indicator_ball(br.ext, 0)
        x0 = zero_point(br.ext)
        x2 = point(br.ext, Fraction(1, 2), 0)
        assert taibleson_direct(br, f, x0).re.exact.a == Fraction(6, 7)
        assert taibleson_via_extension(br, f, x0).re.exact.a == Fraction(6, 7)
        assert taibleson_direct(br, f, x2).re.exact.a == Fraction(-1, 7)
        assert taibleson_via_extension(br, f, x2).re.exact.a == Fraction(-1, 7)

    def test_plateau_interior_agreement(self):
        br = DimensionBridge(2, 2, 1)
        f = indicator_ball(br.ext, -1)
        d = taibleson_direct(br, f, zero_point(br.ext))
        e = taibleson_via_extension(br, f, zero_point(br.ext))
        assert (d - e).is_exact_zero()

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 1])
    def test_routes_agree_on_random_windows(self, p, alpha):
        rng = random.Random(100 * p + int(4 * alpha))
        br = DimensionBridge(p, 2, alpha)
        f = random_test_function(br.ext, 0, 1, rng)
        for pt, direct, via_ext in taibleson_on_window(br, f):
            assert abs((direct - via_ext).to_complex()) < 1e-10
            # the window's extension column is the per-point route, bit for bit
            assert _ser(via_ext) == _ser(taibleson_via_extension(br, f, pt))

    def test_window_builds_one_extension_engine(self, monkeypatch):
        br = DimensionBridge(2, 2, Fraction(1, 2))
        f = random_test_function(br.ext, 0, 1, random.Random(7))
        calls = []
        build = operators._difference_shell_sums
        monkeypatch.setattr(operators, "_difference_shell_sums", lambda *args: calls.append(args) or build(*args))
        assert len(taibleson_on_window(br, f)) == 16
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "fp, make",
        [
            # without the check these gave 6/7 and 3/7: the degree-2 value of a table with no shell to walk
            (FieldParams(2), lambda fp: indicator_ball(fp, 0)),
            (FieldParams(3, 2), lambda fp: indicator_ball(fp, -1)),
            # and this one a raw ValueError from the coset walk
            (FieldParams(2), lambda fp: random_test_function(fp, 0, 2, random.Random(5))),
        ],
        ids=["degree_1_ball", "other_prime", "degree_1_table"],
    )
    def test_table_over_another_field_raises(self, fp, make):
        br = DimensionBridge(2, 2, 1)
        f = make(fp)
        x = zero_point(fp)
        for route in (taibleson_direct, taibleson_via_extension):
            with pytest.raises(UltrafracError, match="needs a table over"):
                route(br, f, x)
        with pytest.raises(UltrafracError, match="needs a table over"):
            taibleson_on_window(br, f)

    def test_rational_exponent_paths_are_exact(self):
        # alpha = 1, n = 2: both routes stay rational end to end
        rng = random.Random(77)
        br = DimensionBridge(2, 2, 1)
        f = random_test_function(br.ext, 0, 1, rng)
        for pt, direct, via_ext in taibleson_on_window(br, f):
            assert (direct - via_ext).is_exact_zero()


class TestDimensionBridge:
    def test_derived_params_are_built_once(self):
        br = DimensionBridge(2, 2, Fraction(1, 2))
        for name in ("base", "ext", "ext_params"):
            assert getattr(br, name) is getattr(br, name), name
        assert (br.base, br.ext, br.ext_params.fp, br.ext_params.alpha) == (FieldParams(2), FieldParams(2, 2), br.ext, br.alpha)

    def test_equal_bridges_hash_equal_whatever_they_hold(self):
        # a bridge that has built its params and one that has not are one key
        held, fresh = DimensionBridge(2, 2, 1), DimensionBridge(2, 2, Fraction(1))
        held.ext_params
        assert held == fresh and hash(held) == hash(fresh)
        assert {held: 1}[fresh] == 1
        assert held != DimensionBridge(2, 2, 2)


class TestMultidimKernel:
    def test_shell_value(self):
        br = DimensionBridge(2, 2, 1)
        assert kernel_r_multidim(br, 1).exact.a == -2

    def test_zero_branch(self):
        br = DimensionBridge(2, 2, 1)
        assert kernel_r_multidim(br, 0).is_exact_zero()
        assert kernel_r_multidim(br, -2).is_exact_zero()

    def test_normalization_through_bridge(self):
        br = DimensionBridge(2, 2, 1)
        assert kernel_normalization(br.ext_params).exact.a == 1

    def test_validated_against_defining_integral(self):
        br = DimensionBridge(2, 2, 1)
        for j in range(-2, 5):
            assert float(kernel_r_multidim(br, j)) == pytest.approx(
                kernel_r_oracle(br.ext_params, j), abs=1e-10
            )

    def test_order_range_gate(self):
        with pytest.raises(ValueError, match="order must be positive"):
            DimensionBridge(2, 2, 0)
        with pytest.raises(ValueError):
            kernel_r_multidim(DimensionBridge(2, 2, 2), 1)
        with pytest.raises(ValueError):
            kernel_r_multidim(DimensionBridge(2, 2, Fraction(5, 2)), 1)


class TestMultidimInversion:
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 1])
    @pytest.mark.parametrize("lp", [1, 1.5])
    def test_residual_vanishes_within_constancy(self, alpha, lp):
        br = DimensionBridge(2, 2, alpha)
        rng = random.Random(int(8 * alpha) + int(2 * lp))
        f = random_test_function(br.ext, 0, 1, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # p < n/alpha: no boundary warning expected
            for nu in range(max(1, f.constancy_level - 1), f.constancy_level + 2):
                assert inversion_residual_multidim(br, lp, f, nu) <= 1e-12

    def test_bound_holds_below_constancy(self):
        br = DimensionBridge(2, 2, Fraction(1, 2))
        rng = random.Random(99)
        f = random_test_function(br.ext, 0, 2, rng)
        resid = inversion_residual_multidim(br, 1, f, 1)
        bound = minkowski_bound(br.ext_params, 1, f, 1)
        assert resid <= bound + 1e-10
