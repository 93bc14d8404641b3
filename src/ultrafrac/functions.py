"""Locally constant test functions, the zero-mean subspace, and the
core-plus-tail class closed under Riesz potentials.

A ``TestFunction`` is locally constant with compact support: supported in
the ball at ``support_level``, invariant under translation by anything of
size <= q**(-constancy_level), and stored as an exact value table indexed
by coset digit addresses.  An ``ExtendedFunction`` couples such a core on
a window ball with an exact analytic tail (zero, c*|x|**s, or
c0 + c1*ln|x|) describing the function outside the window.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from typing import Mapping

from .errors import DivergentIntegralError, UltrafracError
from .field import (
    Digits,
    FieldParams,
    Point,
    _ball_digits,
    _ball_indices,
    _ball_integers,
    _coordinate_integers,
    abs_exponent,
    coset_digits,
    coset_walk,
    enumerate_digits,
    point,
)
from .numerics import (
    CV_ZERO,
    KIND_NONZERO,
    NV_ZERO,
    ZERO_NUMERATORS,
    ComplexValue,
    FloatView,
    IntegerSum,
    IntegerView,
    Numerators,
    _rational,
    as_fraction,
    float_view,
    geometric_tail,
    integer_view,
    radial_monomial,
    scale_sum,
    value_kind,
)


def _add_numerators(s: Numerators, t: Numerators) -> Numerators:
    return tuple(map(operator.add, s, t))


def _state_without_routes(f) -> dict:
    """A function's pickled state: its fields and held tables, without the per-point routes, which are closures."""
    return {name: value for name, value in f.__dict__.items() if name != "_routes"}


@dataclass(frozen=True, slots=True)
class BallSum:
    """Exact-aware sum of table entries over a ball or sphere.

    ``re_kind``/``im_kind`` OR together the ``value_kind`` of every entry's
    real/imaginary part, so that a kernel times the sum can take the path
    the kernel times each entry would (see ``numerics.scale_sum``).
    """

    value: ComplexValue
    re_kind: int
    im_kind: int

    def __add__(self, other: "BallSum") -> "BallSum":
        return BallSum(self.value + other.value, self.re_kind | other.re_kind, self.im_kind | other.im_kind)

    @classmethod
    def of(cls, v: ComplexValue) -> "BallSum":
        return cls(v, value_kind(v.re), value_kind(v.im))


def radial_sum(terms) -> ComplexValue:
    """Sum of weight * (sum over a ball or sphere), on the per-entry exactness path."""
    re = im = NV_ZERO
    for weight, s in terms:
        re = re + scale_sum(weight, s.value.re, s.re_kind)
        im = im + scale_sum(weight, s.value.im, s.im_kind)
    return ComplexValue(re, im)


@dataclass(frozen=True)
class TestFunction:
    """Bruhat-Schwartz function: exact coset-indexed table on a window ball.

    ``values`` maps each digit address of a constancy-level coset inside the
    support ball to the function's value there; the table always has exactly
    q**(constancy_level - support_level) entries.
    """

    fp: FieldParams
    support_level: int
    constancy_level: int
    values: Mapping[Digits, ComplexValue]

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self) -> None:
        if self.constancy_level < self.support_level:
            raise ValueError("constancy level must be at least the support level")
        expected = self.fp.q ** (self.constancy_level - self.support_level)
        if len(self.values) != expected:
            raise ValueError(
                f"value table has {len(self.values)} entries, expected {expected}"
            )

    @classmethod
    def tabulate(cls, fp: FieldParams, support_level: int, constancy_level: int, fn) -> "TestFunction":
        """The table of fn(point) over the constancy-level cosets of the support ball."""
        table = {d: fn(x) for d, x in coset_walk(fp, support_level, constancy_level)}
        return cls(fp, support_level, constancy_level, table)

    def addresses(self) -> list[Digits]:
        """All digit addresses in canonical (lexicographic) order."""
        return list(enumerate_digits(self.fp, self.support_level, self.constancy_level))

    def items(self):
        """(address, representative point, value) triples in canonical order."""
        for d, x in coset_walk(self.fp, self.support_level, self.constancy_level):
            yield d, x, self.values[d]

    def evaluate(self, x: Point) -> ComplexValue:
        d, _ = self._locate(x)
        return CV_ZERO if d is None else self.values[d]

    def _locate(self, x: Point) -> tuple[Digits | None, int | None]:
        """(address, None) for x in the support, (None, e) with |x| = q**e beyond it, else InvalidPointError."""
        d = _ball_digits(self.fp, x, self.support_level, self.constancy_level)
        if d is not None:
            return d, None
        point(self.fp, *x.coords)  # with p-power denominators only, x fails the address test only beyond the support
        return None, abs_exponent(self.fp, x)

    def _shifted_addresses(self, h: Point) -> list[Digits] | None:
        """The address of x - h for each address x, in ``enumerate_digits`` order; None unless h is in the support ball.

        Each coordinate of x has the integer A = sum_j a_j p**j of its digits,
        and h the integer H = h_c * p**(-support_level) once h is in the
        ball, so x - h has the digits of (A - H) mod p**D, with
        D = constancy_level - support_level: no Point and no locate.
        """
        fp = self.fp
        ints, by_int = _coordinate_integers(fp.p, self.constancy_level - self.support_level)
        modulus = len(ints)
        shifts = _ball_integers(fp, h, self.support_level, modulus)
        if shifts is None:
            return None
        return list(product(*([by_int[(a - s) % modulus] for a in ints] for s in shifts)))

    def _ball_levels(self, leaves: Mapping[Digits, object], add) -> list[list]:
        """Sums of ``leaves`` over every ball, as ``[level - support_level][ball index]``.

        One bottom-up pass over the digit tree: the q children of ball b are
        balls q*b .. q*b + q - 1 one level down.
        """
        q = self.fp.q
        index = _ball_indices(self.fp, self.constancy_level - self.support_level)
        bottom: list = [None] * len(leaves)
        for d, v in leaves.items():
            bottom[index[d]] = v
        levels = [bottom]
        while len(levels[-1]) > 1:
            below = levels[-1]
            levels.append([reduce(add, below[i : i + q]) for i in range(0, len(below), q)])
        levels.reverse()
        return levels

    def _sibling_sums(self, levels: list[list], i: int, add) -> list:
        """Sums over the spheres around the coset at ball index i, from ``_ball_levels``: the q - 1 siblings of its ball at each level, in index order."""
        q = self.fp.q
        out = []
        for t in range(1, len(levels)):
            own = i // q ** (len(levels) - 1 - t)
            first = own - own % q
            out.append(reduce(add, levels[t][first:own] + levels[t][own + 1 : first + q]))
        return out

    @cached_property
    def _ball_sums(self) -> list[list[BallSum]]:
        """Sums over every ball, run once per table with no view; sums are only ever added, so each is exact iff all its entries are."""
        return self._ball_levels({d: BallSum.of(v) for d, v in self.values.items()}, operator.add)

    @cached_property
    def _routes(self) -> dict:
        """Per-point routes held on this table, by (builder, params, nu): the operators' and the max-norm route; see ``operators._held_route``."""
        return {}

    __getstate__ = _state_without_routes

    @cached_property
    def _integer_view(self) -> IntegerView | None:
        """The table as integer numerators over one denominator; None unless every part is an exact rational."""
        return integer_view(self.values)

    @cached_property
    def _float_view(self) -> FloatView | None:
        """The table as (re, im) float pairs; None unless every part is a float."""
        return float_view(self.values)

    @cached_property
    def _pair_levels(self) -> list[list[Numerators]]:
        """The table's one ball pyramid: ``_ball_levels`` of its integer numerator pairs, or float pairs on an all-float table.

        The exact lanes read it top down, once per window, and the per-point
        routes read each point's spheres.  A float sum is the one its
        ``BallSum`` makes, addition for addition.
        """
        view = self._integer_view
        return self._ball_levels(view.numerators if view is not None else self._float_view.pairs, _add_numerators)

    @cached_property
    def _nonzero_levels(self) -> list[list[Numerators]]:
        """``_ball_levels`` of (1 if the real numerator is nonzero, same for the imaginary one): per ball, how many entries are not an exact zero; rational tables only.

        Read like ``_pair_levels``, ball less ball, it tells a sphere whose
        entries cancel from one with none: ``scale_sum`` keeps a float zero
        for the first against a float kernel, and skips the second.
        """
        nonzero = {d: (int(x != 0), int(y != 0)) for d, (x, y) in self._integer_view.numerators.items()}
        return self._ball_levels(nonzero, _add_numerators)

    def _lane_numerators(self, lane: IntegerSum) -> dict[Digits, Numerators]:
        """``lane.numerators(self._prefix_spheres(d, None, levels))`` at every address d, levels k + 1 - count .. k - 1, in one pass down ``_pair_levels``.

        With W_t the lane's weight at level t (f(x)'s at k, 0 above its first
        level) and B_t the ball at level t around x, the sum telescopes to
        constant + W_s * B_s + sum over t > s of (W_t - W_{t-1}) * B_t, B_s
        the whole table: each ball adds one multiply-add to its parent's sum.
        """
        s, k, q = self.support_level, self.constancy_level, self.fp.q
        first, weights = k + 1 - lane.count, dict(lane.terms)
        w = [weights.get(t - first, 0) for t in range(s, k + 1)]
        (c_re, c_im), (x, y) = lane.constant, self._pair_levels[0][0]
        sums = [(c_re + w[0] * x, c_im + w[0] * y)]
        for a, row in zip(map(operator.sub, w[1:], w), self._pair_levels[1:]):
            sums = [(re + a * x, im + a * y) for (re, im), b in zip(sums, range(0, len(row), q)) for x, y in row[b : b + q]]
        return {d: sums[i] for d, i in _ball_indices(self.fp, k - s).items()}

    def _prefix_spheres(self, d: Digits | None, e: int | None, levels, pyramid: list[list[Numerators]] | None = None) -> list[Numerators]:
        """Numerators of the sums over the spheres at ``levels`` around x, then of f(x): its own coset.

        At address d a sphere is its ball less the ball one level down, or,
        on an all-float table, where that would round, its sibling balls
        added as ``sphere_sums`` adds them.  Beyond the support, at
        |x| = q**e, the sphere at level -e is the whole table, the rest empty.
        ``pyramid`` (default ``_pair_levels``) is read the same way, as
        ``_nonzero_levels`` is for the count of nonzero entries per sphere.
        """
        s, k, q = self.support_level, self.constancy_level, self.fp.q
        pyramid = self._pair_levels if pyramid is None else pyramid
        if d is None:
            return [pyramid[0][0] if level == -e else ZERO_NUMERATORS for level in levels] + [ZERO_NUMERATORS]
        i = _ball_indices(self.fp, k - s)[d]
        if self._integer_view is None:
            spheres = self._sibling_sums(pyramid, i, _add_numerators)
            return [spheres[level - s] for level in levels] + [pyramid[-1][i]]
        balls = [pyramid[t][i // q ** (k - s - t)] for t in range(k - s + 1)]  # around x, the whole table first
        spheres = [(x - u, y - v) for (x, y), (u, v) in zip(balls, balls[1:])]  # at levels s .. k - 1
        return [spheres[level - s] if level >= s else ZERO_NUMERATORS for level in levels] + [balls[-1]]

    def _prefix_differences(self, d: Digits | None, e: int | None, levels) -> list[Numerators]:
        """Numerators of the sums of f(z) - f(x) over the spheres at ``levels`` around x (each sphere sum less its coset count times f(x)), then of f(x)."""
        q, k = self.fp.q, self.constancy_level
        *spheres, (x, y) = self._prefix_spheres(d, e, levels)
        counts = ((q - 1) * q ** (k - level - 1) for level in levels)
        return [(re - n * x, im - n * y) for (re, im), n in zip(spheres, counts)] + [(x, y)]

    def _pyramid_sums(self, read) -> list[BallSum]:
        """``read(pyramid, add)``, a list of ball or sphere sums of a pyramid, as ``BallSum``s.

        A table with a view reads its one pyramid, ``_pair_levels``.  On an
        integer view a part is exact, of kind ``KIND_NONZERO`` iff it sums a
        nonzero entry (``_nonzero_levels``); on a float view it is the float
        its ``BallSum`` makes.  Only a table with no view builds ``_ball_sums``.
        """
        view = self._integer_view
        if view is None and self._float_view is None:
            return read(self._ball_sums, operator.add)
        pairs = read(self._pair_levels, _add_numerators)
        if view is None:
            return [BallSum.of(ComplexValue.from_complex(complex(*pair))) for pair in pairs]
        nums = zip(pairs, read(self._nonzero_levels, _add_numerators))
        den = view.denominator
        return [BallSum(ComplexValue(_rational(x, den), _rational(y, den)), KIND_NONZERO if u else 0, KIND_NONZERO if v else 0) for (x, y), (u, v) in nums]

    def ball_sum(self) -> BallSum:
        """Sum of the whole table (the support ball): the root of its pyramid."""
        return self._pyramid_sums(lambda levels, _: [levels[0][0]])[0]

    def sphere_sums(self, d: Digits) -> list[BallSum]:
        """Sums over the spheres {|z - x| = q**(-j)} around the coset x with address d.

        Entry j - support_level covers j = support_level .. constancy_level - 1:
        the sphere at level j is the q - 1 sibling balls of x's own ball at
        level j + 1, so a point costs O(q * depth) once the table is summed.
        """
        i = _ball_indices(self.fp, self.constancy_level - self.support_level)[d]
        return self._pyramid_sums(lambda levels, add: self._sibling_sums(levels, i, add))

    def integral(self) -> ComplexValue:
        """Exact Haar integral: the sum of the table times the coset measure."""
        return self.ball_sum().value * Fraction(self.fp.q) ** (-self.constancy_level)

    def translated(self, h: Point) -> "TestFunction":
        """The function x -> f(x - h)."""
        return ExtendedFunction.from_test_function(self).translated(h).core

    def _combined(self, other: "TestFunction", op) -> "TestFunction":
        if self.fp != other.fp:
            raise UltrafracError("cannot combine functions over different fields")
        sl = min(self.support_level, other.support_level)
        k = max(self.constancy_level, other.constancy_level)
        return TestFunction.tabulate(self.fp, sl, k, lambda x: op(self.evaluate(x), other.evaluate(x)))

    def __add__(self, other: "TestFunction") -> "TestFunction":
        return self._combined(other, lambda a, b: a + b)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        return self._combined(other, lambda a, b: a - b)

    def table_equal(self, other: "TestFunction") -> bool:
        """Exact table equality on the common window/constancy: every part of self - other is zero."""
        return all(
            part.is_exact_zero() if part.is_exact else float(part) == 0
            for diff in (self - other).values.values()
            for part in (diff.re, diff.im)
        )


def constant_on_ball(fp: FieldParams, level: int, value) -> TestFunction:
    """value * indicator of the ball at ``level`` (centered at zero)."""
    cv = value if isinstance(value, ComplexValue) else ComplexValue.from_rational(value)
    return TestFunction(fp, level, level, {tuple(() for _ in range(fp.n)): cv})


def indicator_ball(fp: FieldParams, level: int) -> TestFunction:
    return constant_on_ball(fp, level, 1)


def indicator_coset(fp: FieldParams, center: Point, level: int) -> TestFunction:
    """Indicator of center + ball(level); window grows to contain the coset."""
    e = abs_exponent(fp, center)
    sl = level if e is None else min(level, -e)
    table = {}
    target = coset_digits(fp, center, sl, level)
    for d in enumerate_digits(fp, sl, level):
        table[d] = ComplexValue.from_rational(1 if d == target else 0)
    return TestFunction(fp, sl, level, table)


def zero_function(fp: FieldParams) -> TestFunction:
    return constant_on_ball(fp, 0, 0)


# ---------------------------------------------------------------------------
# analytic tails


class Tail:
    """Base class for analytic tails: the sum of c * |x|**s * (ln|x|)**m over ``terms``."""

    terms: tuple[tuple[ComplexValue, Fraction, int], ...] = ()


@dataclass(frozen=True)
class ZeroTail(Tail):
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class PowerTail(Tail):
    """c * |x|**exponent outside the window."""

    coeff: ComplexValue
    exponent: Fraction

    @property
    def terms(self):
        return ((self.coeff, self.exponent, 0),)

    def __str__(self) -> str:
        return f"[{self.coeff}] * |x|**({self.exponent})"


@dataclass(frozen=True)
class LogTail(Tail):
    """const + log_coeff * ln|x| outside the window."""

    const: ComplexValue
    log_coeff: ComplexValue

    @property
    def terms(self):
        return ((self.const, Fraction(0), 0), (self.log_coeff, Fraction(0), 1))

    def __str__(self) -> str:
        return f"[{self.const}] + [{self.log_coeff}] * ln|x|"


ZERO_TAIL = ZeroTail()


def power_tail(coeff, exponent) -> Tail:
    cv = ComplexValue._coerce(coeff)
    if cv.is_exact_zero():
        return ZERO_TAIL
    return PowerTail(cv, as_fraction(exponent))


def log_tail(const, log_coeff) -> Tail:
    c0 = ComplexValue._coerce(const)
    c1 = ComplexValue._coerce(log_coeff)
    if c1.is_exact_zero():
        if c0.is_exact_zero():
            return ZERO_TAIL
        return PowerTail(c0, Fraction(0))
    return LogTail(c0, c1)


@dataclass(frozen=True)
class ExtendedFunction:
    """TestFunction core on a window ball plus an exact analytic tail.

    This is the image class of the Riesz potentials: evaluation uses the
    core table inside the window ball and the tail formula strictly outside.
    """

    core: TestFunction
    tail: Tail = ZERO_TAIL

    @classmethod
    def from_test_function(cls, f: TestFunction) -> "ExtendedFunction":
        return cls(f, ZERO_TAIL)

    @cached_property
    def _routes(self) -> dict:
        """Per-point operator routes built on this function, by (builder, params, nu); see ``operators._held_route``."""
        return {}

    __getstate__ = _state_without_routes

    @property
    def fp(self) -> FieldParams:
        return self.core.fp

    @property
    def window_level(self) -> int:
        return self.core.support_level

    @property
    def constancy_level(self) -> int:
        return self.core.constancy_level

    @property
    def has_strong_decay(self) -> bool:
        """Structural check that the tail is O(|x|**(-beta)) with beta > 1."""
        return all(m == 0 and s < -1 for _, s, m in self.tail.terms)

    def tail_value_at_exponent(self, e: int) -> ComplexValue:
        """Tail formula at |x| = q**e (valid for e > -window_level)."""
        total = CV_ZERO
        for c, s, m in self.tail.terms:
            total = total + c * radial_monomial(self.fp, s, m, e)
        return total

    def evaluate(self, x: Point) -> ComplexValue:
        d, e = self.core._locate(x)
        return self.tail_value_at_exponent(e) if d is None else self.core.values[d]

    def sphere_sums(self, x: Point) -> tuple[int, list[BallSum], ComplexValue]:
        """Sums of f over the spheres {|z - x| = q**(-j)} around x that need an explicit sum.

        Returns (j0, sums, value), with sums[j - j0] the sum over the sphere's
        constancy-level cosets.  On every sphere j < j0, |z| = |z - x| lies
        beyond the window and f is its tail; on the ball |z - x| <= q**(-j)
        with j = j0 + len(sums), f is constant, equal to value = f(x).  Inside
        the window these are the core's sibling sums.  Beyond it, at |x| = q**(-l),
        there is one mixed sphere, |z - x| = |x|: the whole window, plus the
        tail on the levels l .. window - 1, minus the ball around x.
        """
        return self._sphere_sums_at(*self.core._locate(x))

    def _sphere_sums_at(self, d: Digits | None, e: int | None) -> tuple[int, list[BallSum], ComplexValue]:
        """``sphere_sums`` at the point the core located at (d, e)."""
        fp, window, k = self.fp, self.window_level, self.constancy_level
        if d is not None:
            return window, self.core.sphere_sums(d), self.core.values[d]
        q = fp.q
        total = self.core.ball_sum()
        for m in range(-e, window):
            count = (q - 2 if m == -e else q - 1) * q ** (k - m - 1)
            if count:
                total = total + BallSum.of(self.tail_value_at_exponent(-m) * count)
        # at q = 2 the loop skips m = -e, so f(x) is not always among its terms
        return -e, [total], self.tail_value_at_exponent(e)

    def translated(self, h: Point) -> "ExtendedFunction":
        """The function x -> f(x - h); the window grows to hold the translated core.

        For h inside the window the table holds the core's own value objects
        at shifted cosets; f beyond the window is unchanged, as |x - h| = |x| there.
        """
        point(self.fp, *h.coords)  # the coordinate count and p-power denominators, whatever the size of h
        e = abs_exponent(self.fp, h)
        window = self.window_level if e is None else min(self.window_level, -e)
        core = TestFunction.tabulate(self.fp, window, self.constancy_level, lambda x: self.evaluate(x - h))
        return ExtendedFunction(core, self.tail)


def _check_field(fp: FieldParams, f, operator: str) -> None:
    """Refuse a function over a field other than fp, before an operator does any work on it."""
    if f.fp != fp:
        raise UltrafracError(f"{operator} needs a table over {fp}, got {f.fp}")


def _as_extended(f) -> ExtendedFunction:
    if isinstance(f, ExtendedFunction):
        return f
    if isinstance(f, TestFunction):
        return ExtendedFunction.from_test_function(f)
    raise TypeError(f"expected a function, got {type(f).__name__}")


# ---------------------------------------------------------------------------
# norms and distances


def _combined_tail_terms(f: ExtendedFunction, g: ExtendedFunction) -> dict[tuple[Fraction, int], ComplexValue]:
    """Nonzero coefficients of the difference tail f - g, keyed by (s, m)."""
    terms: dict[tuple[Fraction, int], ComplexValue] = {}
    for c, s, m in f.tail.terms:
        terms[s, m] = terms.get((s, m), CV_ZERO) + c
    for c, s, m in g.tail.terms:
        terms[s, m] = terms.get((s, m), CV_ZERO) - c
    return {sm: c for sm, c in terms.items() if not c.is_exact_zero()}


_MAX_TAIL_SHELLS = 100_000  # shells summed before a multi-term L^p tail is given up


def _tail_lp_contribution(fp: FieldParams, terms, p: float, outer_level: int) -> float:
    """Integral of |tail difference|**p over {|x| > q**(-outer_level)}."""
    if not terms:
        return 0.0
    q = float(fp.q)
    s_max = max(terms)
    sigma = float(s_max) * p + 1
    if sigma >= 0:
        raise DivergentIntegralError(
            f"L^{p} tail with slowest decay |x|**{s_max} diverges"
        )
    one_minus = 1 - 1 / q
    if len(terms) == 1:
        (c,) = terms.values()
        return abs(c) ** p * one_minus * float(geometric_tail(fp, -sigma, -(outer_level - 1)))
    # several decay rates: sum the shells |x| = q**i until the dominated
    # remainder is negligible.  The slowest power q**(i*s_max) is pulled out of
    # every term, so no factor overflows unless the shell value itself does.
    bound_coeff = sum(abs(c) for c in terms.values()) ** p * one_minus / (1 - q**sigma)
    total = 0.0
    first = 1 - outer_level
    last = first + _MAX_TAIL_SHELLS - 1
    rates = ", ".join(str(s) for s in sorted(terms))
    error = UltrafracError(f"L^{p} tail with decay rates {rates} did not converge within {_MAX_TAIL_SHELLS} shells")
    # The stop test's left side falls with i, and total never exceeds the
    # whole integral, which Minkowski's inequality bounds by the single-term
    # closed forms.  If the test fails at the last shell against that bound,
    # it fails at every shell.
    try:
        whole = sum(
            abs(c) * (one_minus * q ** (first * (float(s) * p + 1)) / (1 - q ** (float(s) * p + 1))) ** (1 / p)
            for s, c in terms.items()
        ) ** p
    except OverflowError:
        whole = math.inf  # no bound in float range: the shells decide
    if last < 0 or bound_coeff * q ** ((last + 1) * sigma) > 1e-17 * max(2 * whole, 1e-300):
        raise error
    for i in range(first, last + 1):
        rel = abs(sum(c.to_complex() * q ** (i * float(s - s_max)) for s, c in terms.items()))
        total += rel**p * one_minus * q ** (i * sigma)
        # past shell i every q**(i*(s - s_max)) is at most 1, which bounds the remainder
        if i >= 0 and bound_coeff * q ** ((i + 1) * sigma) <= 1e-17 * max(total, 1e-300):
            return total
    raise error


def lp_window_sum(fp: FieldParams, k: int, p: float, diffs: list[ComplexValue]) -> float:
    """Sum of |d|**p times the level-k coset measure over the differences d, one per coset of a window in ``coset_walk`` order.

    Left unrooted so that a caller can add a tail integral before taking the
    p-th root; 0.0 when every difference is an exact zero.  The powers are
    added left to right, as ``sum()`` is compensated from Python 3.12 on and
    would move the last bit between versions.
    """
    if all(dv.is_exact_zero() for dv in diffs):
        return 0.0
    return _power_sum(fp, k, p, map(abs, diffs))


def lp_numerator_sum(fp: FieldParams, k: int, p: float, den: int, diffs: list[Numerators]) -> float:
    """``lp_window_sum`` of differences given as (re, im) numerator pairs over den, one per coset in ``coset_walk`` order.

    Each part is the float of n / den: int true division rounds correctly,
    like float(Fraction), so the bits are the ring's.
    """
    if not any(map(any, diffs)):
        return 0.0
    return _power_sum(fp, k, p, (abs(complex(re / den, im / den)) for re, im in diffs))


def _power_sum(fp: FieldParams, k: int, p: float, magnitudes) -> float:
    """Sum of m**p over the magnitudes, added left to right, times the level-k coset measure."""
    total = 0.0
    for m in magnitudes:
        total += m**p
    return total * float(Fraction(fp.q) ** (-k))


def _lp_exponent(p) -> float:
    """The exponent of an L^p norm as a float; a finite p >= 1, else ValueError, and a bool is refused."""
    if isinstance(p, bool):
        raise TypeError(f"an L^p exponent cannot be the bool {p}")
    p = float(p)
    if not 1 <= p < math.inf:
        raise ValueError(f"L^p norms need a finite p >= 1, got {p}")
    return p


def lp_distance(f, g, p) -> float:
    """L^p distance between two core-plus-tail functions.

    Exact coset sums on the common refinement window plus a closed-form
    tail integral; a divergent tail raises instead of returning a number.
    """
    p = _lp_exponent(p)
    fe, ge = _as_extended(f), _as_extended(g)
    if fe.fp != ge.fp:
        raise UltrafracError("cannot compare functions over different fields")
    fp = fe.fp
    window = min(fe.window_level, ge.window_level)
    k = max(fe.constancy_level, ge.constancy_level)
    terms = _combined_tail_terms(fe, ge)
    if any(m for _, m in terms):
        raise DivergentIntegralError("L^p norm of a log-growth tail diverges")
    window_part = lp_window_sum(fp, k, p, [fe.evaluate(x) - ge.evaluate(x) for _, x in coset_walk(fp, window, k)])
    tail_part = _tail_lp_contribution(fp, {s: c for (s, _), c in terms.items()}, p, window)
    return (window_part + tail_part) ** (1.0 / p)


def lp_norm(f, p) -> float:
    fe = _as_extended(f)
    return lp_distance(fe, constant_on_ball(fe.fp, fe.window_level, 0), p)


def modulus_of_continuity(f: TestFunction, h: Point, p) -> float:
    """L^p norm of f - f(. - h); exactly zero within the constancy scale."""
    p = _lp_exponent(p)
    point(f.fp, *h.coords)  # the size test below ignores primes other than p and the coordinate count
    e = abs_exponent(f.fp, h)
    if e is None or e <= -f.constancy_level:
        return 0.0
    view = f._integer_view if isinstance(f, TestFunction) else None
    sources = None if view is None else f._shifted_addresses(h)
    if sources is None:
        return lp_distance(f, f.translated(h), p)
    # a rational table, h in its support: lp_distance on the integer numerators of f(x) - f(x - h)
    nums = view.numerators
    pairs = zip(map(nums.__getitem__, f.addresses()), map(nums.__getitem__, sources))
    diffs = [(x[0] - y[0], x[1] - y[1]) for x, y in pairs]
    return lp_numerator_sum(f.fp, f.constancy_level, p, view.denominator, diffs) ** (1.0 / p)


def lizorkin_project(f: TestFunction, window_level: int | None = None) -> TestFunction:
    """Project onto zero-mean functions by subtracting the average over a window ball."""
    wl = f.support_level if window_level is None else window_level
    if wl > f.support_level:
        raise ValueError("projection window must contain the support")
    c0 = f.integral() * (Fraction(f.fp.q) ** wl)
    return TestFunction.tabulate(f.fp, wl, f.constancy_level, lambda x: f.evaluate(x) - c0)
