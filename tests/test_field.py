from fractions import Fraction
from math import isqrt
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultrafrac.errors import CosetResolutionError, InvalidPointError, WorkSizeError
from ultrafrac.field import (
    BallSpec,
    FieldParams,
    Point,
    SphereSpec,
    _ball_indices,
    _is_prime,
    abs_exponent,
    abs_value,
    coset_digits,
    coset_walk,
    enumerate_cosets,
    enumerate_digits,
    haar_measure,
    point,
    sphere_coset_reps,
    zero_point,
)
from ultrafrac.functions import ExtendedFunction, TestFunction, indicator_ball, power_tail
from ultrafrac.numerics import ComplexValue, geometric_tail


def rational_points(p, n):
    coord = st.tuples(st.integers(-50, 50), st.integers(-4, 4)).map(
        lambda t: Fraction(t[0]) * Fraction(p) ** t[1]
    )
    return st.tuples(*([coord] * n)).map(Point)


class TestAbsValue:
    def test_power_of_two_factor(self, fp2):
        assert abs_value(fp2, point(fp2, 12)) == Fraction(1, 4)

    def test_extension_max_raised_to_degree(self):
        fp = FieldParams(2, 2)
        assert abs_value(fp, point(fp, 3, Fraction(1, 2))) == 4
        assert abs_exponent(fp, point(fp, 3, Fraction(1, 2))) == 1

    def test_zero_marker(self, fp2):
        assert abs_exponent(fp2, zero_point(fp2)) is None
        assert abs_value(fp2, zero_point(fp2)) == 0

    def test_rejects_non_p_power_denominator(self, fp2):
        with pytest.raises(InvalidPointError):
            point(fp2, Fraction(1, 3))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ultrametric_inequality(self, data):
        fp = FieldParams(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(1, 2)))
        x = data.draw(rational_points(fp.p, fp.n))
        y = data.draw(rational_points(fp.p, fp.n))
        ax, ay, axy = abs_value(fp, x), abs_value(fp, y), abs_value(fp, x + y)
        assert axy <= max(ax, ay)
        if ax != ay:
            assert axy == max(ax, ay)


class TestHaarMeasure:
    def test_ball_values(self, fp2, fp3):
        assert haar_measure(fp2, BallSpec(zero_point(fp2), -3)) == 8
        assert haar_measure(fp3, BallSpec(zero_point(fp3), 0)) == 1

    def test_sphere_value(self, fp2):
        assert haar_measure(fp2, SphereSpec(zero_point(fp2), 0)) == Fraction(1, 2)

    def test_other_regions_rejected(self, fp2):
        with pytest.raises(TypeError, match="not a ball or sphere"):
            haar_measure(fp2, object())

    def test_sphere_decomposition_sum(self, fp3):
        # ball measure equals truncated sphere sum plus a closed-form tail
        level = -1
        partial = sum(
            (1 - Fraction(1, 3)) * Fraction(3) ** (-j) for j in range(level, level + 8)
        )
        tail = (1 - Fraction(1, 3)) * geometric_tail(fp3, 1, level + 8).exact.a
        assert partial + tail == Fraction(3) ** (-level)


class TestEnumerateCosets:
    def test_two_digit_example(self, fp2):
        got = enumerate_cosets(fp2, -1, 1)
        assert [c.coords[0] for c in got] == [0, 1, Fraction(1, 2), Fraction(3, 2)]

    def test_residue_example(self, fp3):
        assert [c.coords[0] for c in enumerate_cosets(fp3, 0, 1)] == [0, 1, 2]

    def test_identity_case(self, fp2):
        assert enumerate_cosets(fp2, 2, 2) == [zero_point(fp2)]

    def test_rejects_coarser_resolution(self, fp2):
        with pytest.raises(CosetResolutionError):
            enumerate_cosets(fp2, 1, 0)
        with pytest.raises(CosetResolutionError):
            coset_digits(fp2, zero_point(fp2), 1, 0)
        # a sphere's cosets need a level finer than the sphere
        with pytest.raises(CosetResolutionError, match=r"level \+ 1"):
            sphere_coset_reps(fp2, 1, 1)

    def test_walks_beyond_the_work_limit_raise(self):
        # q**depth is at most 2**20: 4**10 passes, 2**21 and 4**11 raise, and
        # so do the p - 1 cosets of a sphere over p = 2**61 - 1
        assert next(enumerate_digits(FieldParams(2, 2), 0, 10)) == ((0,) * 10, (0,) * 10)
        for fp, depth in ((FieldParams(2), 21), (FieldParams(2, 2), 11), (FieldParams(2**61 - 1), 1)):
            with pytest.raises(WorkSizeError, match=r"exceeds the limit of 2\*\*20"):
                next(enumerate_digits(fp, 0, depth))
        with pytest.raises(WorkSizeError):
            sphere_coset_reps(FieldParams(2**61 - 1), 0, 1)
        # a far-out depth is refused from its exponent, without building 3**(10**9)
        start = perf_counter()
        with pytest.raises(WorkSizeError):
            list(coset_walk(FieldParams(3), -10**9, 0))
        assert perf_counter() - start < 1.0

    def test_partition_measures_sum_to_ambient(self):
        fp = FieldParams(3, 2)
        cs = enumerate_cosets(fp, -1, 1)
        assert len(cs) == fp.q ** 2
        total = len(cs) * haar_measure(fp, BallSpec(zero_point(fp), 1))
        assert total == haar_measure(fp, BallSpec(zero_point(fp), -1))

    @pytest.mark.parametrize("p, n, ambient", [(p, n, w) for p in (2, 3, 5) for n in (1, 2) for w in (-2, 0, 1)])
    def test_addresses_round_trip(self, p, n, ambient):
        fp = FieldParams(p, n)
        resolution = ambient + 2
        walk = list(coset_walk(fp, ambient, resolution))
        assert [d for d, _ in walk] == list(enumerate_digits(fp, ambient, resolution))
        assert [x for _, x in walk] == enumerate_cosets(fp, ambient, resolution)
        for d, x in walk:
            assert coset_digits(fp, x, ambient, resolution) == d
        # the ball splits into its outer sphere and the ball one level down
        sphere = sphere_coset_reps(fp, ambient, resolution)
        inner = enumerate_cosets(fp, ambient + 1, resolution)
        assert len(sphere) == (fp.q - 1) * fp.q ** (resolution - ambient - 1)
        assert len(inner) == fp.q ** (resolution - ambient - 1)
        assert set(sphere).isdisjoint(inner)
        assert set(sphere) | set(inner) == {x for _, x in walk}
        # one level down, the zero coset comes first and the sphere is the rest
        children = enumerate_cosets(fp, ambient, ambient + 1)
        assert children == [zero_point(fp), *sphere_coset_reps(fp, ambient, ambient + 1)]

    def test_same_address_iff_difference_small(self, fp2):
        x = point(fp2, Fraction(5, 4))
        y = point(fp2, Fraction(5, 4) + 8)  # differs by 8, inside the level-2 ball
        assert coset_digits(fp2, x, -2, 2) == coset_digits(fp2, y, -2, 2)
        z = point(fp2, Fraction(5, 4) + 1)
        assert coset_digits(fp2, x, -2, 2) != coset_digits(fp2, z, -2, 2)


class TestCosetAddress:
    def test_address_object_round_trip(self, fp2):
        from ultrafrac.field import digits_to_point

        x = point(fp2, Fraction(5, 4))
        ball = BallSpec(zero_point(fp2), -2)
        digits = coset_digits(fp2, x, ball.level, 2)
        assert all(len(di) == 2 - ball.level for di in digits)
        rep = digits_to_point(fp2, digits, ball.level)
        # representative and x share the address: difference in the level-2 ball
        assert coset_digits(fp2, rep, ball.level, 2) == digits
        assert abs_value(fp2, rep - x) <= Fraction(1, 4)


def _reference_digits(fp, x, ambient, resolution):
    """The address by Fraction arithmetic; None when a coordinate is outside the ambient ball."""
    out = []
    for xc in x.coords:
        rel = xc * Fraction(fp.p) ** (-ambient)
        if rel.denominator != 1:
            return None
        r = rel.numerator % fp.p ** (resolution - ambient)
        out.append(tuple(r // fp.p**t % fp.p for t in range(resolution - ambient)))
    return tuple(out)


class TestIntegerAddresses:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_agree_with_the_fraction_formula(self, data):
        fp = FieldParams(data.draw(st.sampled_from([2, 3, 5])), data.draw(st.integers(1, 2)))
        x = data.draw(rational_points(fp.p, fp.n))
        ambient = data.draw(st.integers(-3, 3))
        resolution = ambient + data.draw(st.integers(0, 3))
        want = _reference_digits(fp, x, ambient, resolution)
        e = abs_exponent(fp, x)
        outside = e is not None and e > -ambient
        assert (want is None) == outside
        if outside:
            with pytest.raises(InvalidPointError):
                coset_digits(fp, x, ambient, resolution)
        else:
            assert coset_digits(fp, x, ambient, resolution) == want
        # a table on that ball: an exact zero outside it, the addressed entry inside
        f = TestFunction.tabulate(fp, ambient, ambient + 1, lambda y: ComplexValue.from_rational(1 + y.coords[0]))
        got = f.evaluate(x)
        if outside:
            assert got.is_exact_zero()
        else:
            assert got == f.values[coset_digits(fp, x, ambient, ambient + 1)]

    def test_non_p_power_denominator_is_still_invalid(self, fp2):
        x = Point((Fraction(1, 3),))
        with pytest.raises(InvalidPointError):
            indicator_ball(fp2, 0).evaluate(x)
        with pytest.raises(InvalidPointError):
            coset_digits(fp2, x, 0, 1)
        # beyond the support by size too, the denominator test of point() decides
        far = Point((Fraction(1, 6),))
        u = ExtendedFunction(indicator_ball(fp2, 0), power_tail(1, -2))
        for route in (indicator_ball(fp2, 0).evaluate, u.evaluate, u.sphere_sums):
            with pytest.raises(InvalidPointError, match="not a power of 2"):
                route(far)

    @pytest.mark.parametrize("coord", [4, Fraction(1, 2)])
    def test_wrong_number_of_coordinates_is_invalid(self, coord):
        fp = FieldParams(2, 2)
        x = point(FieldParams(2, 1), coord)
        with pytest.raises(InvalidPointError, match="expected 2"):
            indicator_ball(fp, 0).evaluate(x)
        with pytest.raises(InvalidPointError, match="expected 2"):
            coset_digits(fp, x, 0, 1)
        # a core-plus-tail function asks the address first too, also beyond its window
        u = ExtendedFunction(indicator_ball(fp, 0), power_tail(1, -2))
        with pytest.raises(InvalidPointError, match="expected 2"):
            u.evaluate(x)
        with pytest.raises(InvalidPointError, match="expected 2"):
            u.sphere_sums(x)


class TestBallIndices:
    @given(p=st.sampled_from([2, 3]), n=st.sampled_from([1, 2]), depth=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_balls_are_the_digit_prefixes(self, p, n, depth):
        # a bijection onto range(q**depth) keyed in enumerate_digits order; at
        # every t, index // q**(depth - t) tells balls apart exactly as the
        # per-coordinate length-t prefixes of the addresses do
        fp = FieldParams(p, n)
        index = _ball_indices(fp, depth)
        assert list(index) == list(enumerate_digits(fp, 0, depth))
        assert sorted(index.values()) == list(range(fp.q**depth))
        for t in range(depth + 1):
            ball_of_prefix = {}
            for d, i in index.items():
                ball_of_prefix.setdefault(tuple(ds[:t] for ds in d), set()).add(i // fp.q ** (depth - t))
            balls = [ball for group in ball_of_prefix.values() for ball in group]
            assert all(len(group) == 1 for group in ball_of_prefix.values())
            assert len(set(balls)) == len(balls) == fp.q**t


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        def trial_division(m):
            return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))

        assert [m for m in range(10**5) if _is_prime(m) != trial_division(m)] == []

    # Carmichael numbers, base-2 strong pseudoprimes, and the least strong
    # pseudoprime to the first 12 prime bases (the reason for the 13th)
    @pytest.mark.parametrize("m", [561, 41041, 2047, 3215031751, 318665857834031151167461])
    def test_rejects_pseudoprimes(self, m):
        assert not _is_prime(m)
        with pytest.raises(ValueError, match="must be prime"):
            FieldParams(m)

    def test_degree_below_one_raises(self):
        with pytest.raises(ValueError, match="extension degree must be >= 1"):
            FieldParams(2, 0)

    # 2.0 and 3.0 would pass the primality test (2.0 % 2 == 0), 2.0 as a
    # degree would make q a float, and True would pass as degree 1
    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.0,), "p must be an integer, got 2.0"),
            ((3.0,), "p must be an integer, got 3.0"),
            ((True,), "p must be an integer, got True"),
            ((2, 2.0), "extension degree must be an integer, got 2.0"),
            ((2, True), "extension degree must be an integer, got True"),
        ],
        ids=repr,
    )
    def test_non_integer_prime_or_degree_raises(self, args, message):
        with pytest.raises(ValueError, match=message):
            FieldParams(*args)

    def test_mersenne_61_is_fast(self):
        start = perf_counter()
        fp = FieldParams(2**61 - 1)
        assert perf_counter() - start < 0.1
        assert fp.q == 2**61 - 1

    def test_beyond_the_proven_bound_raises(self):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            FieldParams(2**89 - 1)
