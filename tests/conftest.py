import random
from fractions import Fraction

import pytest
from hypothesis import settings

from ultrafrac.field import FieldParams, Point, enumerate_digits
from ultrafrac.functions import (
    TestFunction,
    indicator_ball,
    indicator_coset,
    lizorkin_project,
)
from ultrafrac.numerics import ComplexValue

# selected with --hypothesis-profile=ci: a failing property prints the blob
# that replays it (@reproduce_failure); example counts and deadlines are the tests' own
settings.register_profile("ci", print_blob=True)


def random_test_function(fp, support_level, constancy_level, rng, complex_vals=False):
    table = {}
    for d in enumerate_digits(fp, support_level, constancy_level):
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if complex_vals else Fraction(0)
        table[d] = ComplexValue.from_rational(re, im)
    return TestFunction(fp, support_level, constancy_level, table)


def random_point(fp, rng, lo=-3, hi=3):
    coords = []
    for _ in range(fp.n):
        coords.append(Fraction(rng.randint(-20, 20)) * Fraction(fp.p) ** rng.randint(lo, hi))
    return Point(tuple(coords))


@pytest.fixture(scope="session")
def fp2():
    return FieldParams(2)


@pytest.fixture(scope="session")
def fp3():
    return FieldParams(3)


@pytest.fixture(scope="session")
def corpus():
    """Ten-function corpus: indicators, zero-mean projections, random tables."""
    fp2 = FieldParams(2)
    fp3 = FieldParams(3)
    rng = random.Random(20240817)
    fns = [
        indicator_ball(fp2, 0),
        indicator_ball(fp2, 1),
        indicator_ball(fp2, -1),
        lizorkin_project(indicator_ball(fp2, 0), -1),
        indicator_coset(fp2, Point((Fraction(1),)), 1),
        random_test_function(fp2, -1, 2, rng),
        random_test_function(fp2, -2, 2, rng, complex_vals=True),
        lizorkin_project(random_test_function(fp2, 0, 3, rng)),
        random_test_function(fp3, -1, 1, rng),
        random_test_function(fp3, 0, 2, rng),
    ]
    return fns
