import random
from fractions import Fraction

import pytest

from conftest import random_point, random_test_function
from ultrafrac.field import FieldParams, Point, point, zero_point
from ultrafrac.fourier import (
    character_arg,
    character_eval,
    fourier_transform,
    multiplier_vladimirov,
)
from ultrafrac.functions import ExtendedFunction, indicator_ball, lp_norm
from ultrafrac.operators import OperatorParams, vladimirov_hypersingular


class TestCharacter:
    def test_trivial_on_integers(self, fp2):
        assert character_eval(fp2, point(fp2, 3)) == 1

    def test_nontrivial_one_level_out(self, fp2):
        assert character_eval(fp2, point(fp2, Fraction(1, 2))) == -1

    def test_quarter_phase(self, fp2):
        assert character_eval(fp2, point(fp2, Fraction(3, 4))) == -1j

    def test_additive(self, fp3):
        rng = random.Random(0)
        for _ in range(50):
            x, y = random_point(fp3, rng), random_point(fp3, rng)
            lhs = character_eval(fp3, x + y)
            rhs = character_eval(fp3, x) * character_eval(fp3, y)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_root_of_unity_order(self, fp3):
        arg = character_arg(fp3, point(fp3, Fraction(2, 9)))
        assert arg == Fraction(2, 9)


class TestFourierTransform:
    def test_unit_ball_self_dual(self, fp2):
        f = indicator_ball(fp2, 0)
        hat = fourier_transform(f)
        assert hat.support_level == 0 and hat.constancy_level == 0
        assert hat.table_equal(f)

    def test_dilated_ball(self, fp2):
        f = indicator_ball(fp2, -1)
        hat = fourier_transform(f)
        assert hat.support_level == 1 and hat.constancy_level == 1
        assert hat.evaluate(zero_point(fp2)).to_complex() == 2
        assert hat.evaluate(point(fp2, Fraction(1, 2))).to_complex() == 0

    def test_level_swap(self, fp3):
        rng = random.Random(1)
        f = random_test_function(fp3, -1, 2, rng)
        hat = fourier_transform(f)
        assert hat.support_level == -f.constancy_level
        assert hat.constancy_level == -f.support_level

    @pytest.mark.parametrize("seed", range(6))
    def test_inverse_roundtrip(self, seed):
        rng = random.Random(seed)
        fp = FieldParams(rng.choice([2, 3]), rng.choice([1, 2]))
        if fp.q > 3:
            support, k = 0, 1
        else:
            support, k = rng.choice([-1, 0]), rng.choice([1, 2])
        f = random_test_function(fp, support, k, rng, complex_vals=True)
        rt = fourier_transform(fourier_transform(f), inverse=True)
        worst = max(abs((rt.evaluate(pt) - v).to_complex()) for _, pt, v in f.items())
        assert worst < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_plancherel(self, seed):
        rng = random.Random(100 + seed)
        fp = FieldParams(rng.choice([2, 3]))
        f = random_test_function(fp, rng.choice([-2, -1]), rng.choice([0, 1, 2]), rng, complex_vals=True)
        assert lp_norm(fourier_transform(f), 2) == pytest.approx(lp_norm(f, 2), rel=1e-10, abs=1e-10)

    def test_translation_becomes_modulation(self, fp2):
        rng = random.Random(9)
        f = random_test_function(fp2, -1, 1, rng)
        h = point(fp2, Fraction(3, 2))
        hat = fourier_transform(f)
        hat_shift = fourier_transform(f.translated(h))
        for _, xi, v in hat_shift.items():
            phase = character_eval(fp2, Point(tuple(a * b for a, b in zip(h.coords, xi.coords))))
            assert v.to_complex() == pytest.approx(
                phase * hat.evaluate(xi).to_complex(), abs=1e-10
            )


class TestMultiplierRoute:
    def test_unit_ball_spot_values(self, fp2):
        f = indicator_ball(fp2, 0)
        vals = dict((str(x), v) for x, v in multiplier_vladimirov(fp2, 1, f))
        assert vals["0"] == pytest.approx(2 / 3, abs=1e-12)
        assert vals["1/2"] == pytest.approx(-1 / 3, abs=1e-12)

    def test_half_order_spot_value(self, fp2):
        f = indicator_ball(fp2, 0)
        vals = dict((str(x), v) for x, v in multiplier_vladimirov(fp2, Fraction(1, 2), f))
        assert vals["0"] == pytest.approx(0.77345908033901, abs=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    def test_agrees_with_hypersingular_route(self, seed, alpha):
        rng = random.Random(31 * seed + 7)
        fp = FieldParams(rng.choice([2, 3]))
        f = random_test_function(fp, rng.choice([-1, 0]), rng.choice([1, 2]), rng)
        params = OperatorParams(fp, alpha)
        u = ExtendedFunction.from_test_function(f)
        for x, got in multiplier_vladimirov(fp, alpha, f):
            want = vladimirov_hypersingular(params, u, x).to_complex()
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
