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
from typing import Mapping

from .errors import DivergentIntegralError, InvalidPointError, UltrafracError
from .field import (
    Digits,
    FieldParams,
    Point,
    _ball_digits,
    abs_exponent,
    coset_digits,
    coset_walk,
    enumerate_digits,
)
from .numerics import (
    CV_ZERO,
    NV_ZERO,
    ComplexValue,
    as_fraction,
    geometric_tail,
    radial_monomial,
    scale_sum,
    value_kind,
)


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
        d = _ball_digits(self.fp, x, self.support_level, self.constancy_level)
        if d is not None:
            return self.values[d]
        self._exponent_beyond(x)
        return CV_ZERO

    def _exponent_beyond(self, x: Point) -> int:
        """e with |x| = q**e beyond the support, for a point that failed the address test; else InvalidPointError."""
        e = abs_exponent(self.fp, x)
        if e is None or e <= -self.support_level:
            raise InvalidPointError(f"{x} is not a point of the field model: a denominator is not a power of {self.fp.p}")
        return e

    def _ball_index(self, d: Digits) -> int:
        """Position of a constancy-level coset in the ball-sum layout.

        The base-q digit at each position packs the n coordinate digits, and
        the support-level position leads, so the ball at level l holding the
        coset has index ``_ball_index(d) // q**(constancy_level - l)``.
        """
        p, q = self.fp.p, self.fp.q
        idx = 0
        for t in range(self.constancy_level - self.support_level):
            idx = idx * q + sum(di[t] * p**i for i, di in enumerate(d))
        return idx

    @cached_property
    def _ball_sums(self) -> list[list[BallSum]]:
        """Sums over every ball, as ``[level - support_level][ball index]``.

        One bottom-up pass over the digit tree, run once per table: the q
        children of ball b are balls q*b .. q*b + q - 1 one level down.
        Sums are only ever added, so each is exact iff all its entries are.
        """
        q = self.fp.q
        leaves: list = [None] * len(self.values)
        for d, v in self.values.items():
            leaves[self._ball_index(d)] = BallSum.of(v)
        levels = [leaves]
        while len(levels[-1]) > 1:
            below = levels[-1]
            levels.append([reduce(operator.add, below[i : i + q]) for i in range(0, len(below), q)])
        levels.reverse()
        return levels

    def ball_sum(self) -> BallSum:
        """Sum of the whole table (the support ball)."""
        return self._ball_sums[0][0]

    def sphere_sums(self, d: Digits) -> list[BallSum]:
        """Sums over the spheres {|z - x| = q**(-j)} around the coset x with address d.

        Entry j - support_level covers j = support_level .. constancy_level - 1:
        the sphere at level j is the q - 1 sibling balls of x's own ball at
        level j + 1, so a point costs O(q * depth) once the table is summed.
        """
        levels = self._ball_sums
        q = self.fp.q
        idx = self._ball_index(d)
        out = []
        for t in range(1, len(levels)):
            own = idx // q ** (len(levels) - 1 - t)
            first = own - own % q
            out.append(reduce(operator.add, (levels[t][b] for b in range(first, first + q) if b != own)))
        return out

    def integral(self) -> ComplexValue:
        """Exact Haar integral: the sum of the table times the coset measure."""
        return self.ball_sum().value * Fraction(self.fp.q) ** (-self.constancy_level)

    def refined(self, support_level: int | None = None, constancy_level: int | None = None) -> "TestFunction":
        """Same function on a coarser window and/or finer constancy level."""
        sl = self.support_level if support_level is None else support_level
        k = self.constancy_level if constancy_level is None else constancy_level
        if sl > self.support_level or k < self.constancy_level:
            raise ValueError("refinement may only enlarge the window or refine constancy")
        if sl == self.support_level and k == self.constancy_level:
            return self
        return TestFunction.tabulate(self.fp, sl, k, self.evaluate)

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
        d = _ball_digits(self.fp, x, self.window_level, self.constancy_level)
        if d is not None:
            return self.core.values[d]
        return self.tail_value_at_exponent(self.core._exponent_beyond(x))

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
        fp, window, k = self.fp, self.window_level, self.constancy_level
        d = _ball_digits(fp, x, window, k)
        if d is not None:
            return window, self.core.sphere_sums(d), self.core.values[d]
        e = self.core._exponent_beyond(x)
        q = fp.q
        total = self.core.ball_sum()
        for m in range(-e, window):
            count = (q - 2 if m == -e else q - 1) * q ** (k - m - 1)
            if count:
                total = total + BallSum.of(self.tail_value_at_exponent(-m) * count)
        # at q = 2 the loop skips m = -e, so f(x) is not always among its terms
        return -e, [total], self.tail_value_at_exponent(e)

    def translated(self, h: Point) -> "ExtendedFunction":
        """The function x -> f(x - h); the window grows to hold the translated core."""
        e = abs_exponent(self.fp, h)
        window = self.window_level if e is None else min(self.window_level, -e)
        core = TestFunction.tabulate(self.fp, window, self.constancy_level, lambda x: self.evaluate(x - h))
        return ExtendedFunction(core, self.tail)


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


def lp_window_sum(fp: FieldParams, window: int, k: int, p: float, diff) -> float:
    """Sum of |diff(x)|**p times the coset measure over the level-k cosets of the window ball.

    Left unrooted so that a caller can add a tail integral before taking the
    p-th root; 0.0 when every difference is an exact zero.  The powers are
    added left to right, as ``sum()`` is compensated from Python 3.12 on and
    would move the last bit between versions.
    """
    diffs = [diff(x) for _, x in coset_walk(fp, window, k)]
    if all(dv.is_exact_zero() for dv in diffs):
        return 0.0
    total = 0.0
    for dv in diffs:
        total += abs(dv) ** p
    return total * float(Fraction(fp.q) ** (-k))


def _lp_exponent(p) -> float:
    """The exponent of an L^p norm as a float; a finite p >= 1, else ValueError."""
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
    window_part = lp_window_sum(fp, window, k, p, lambda x: fe.evaluate(x) - ge.evaluate(x))
    tail_part = _tail_lp_contribution(fp, {s: c for (s, _), c in terms.items()}, p, window)
    return (window_part + tail_part) ** (1.0 / p)


def lp_norm(f, p) -> float:
    return lp_distance(f, zero_function(_as_extended(f).fp), p)


def modulus_of_continuity(f: TestFunction, h: Point, p) -> float:
    """L^p norm of f - f(. - h); exactly zero within the constancy scale."""
    e = abs_exponent(f.fp, h)
    if e is None or e <= -f.constancy_level:
        return 0.0
    return lp_distance(f, f.translated(h), p)


def lizorkin_project(f: TestFunction, window_level: int | None = None) -> TestFunction:
    """Project onto zero-mean functions by subtracting the average over a window ball."""
    wl = f.support_level if window_level is None else window_level
    if wl > f.support_level:
        raise ValueError("projection window must contain the support")
    c0 = f.integral() * (Fraction(f.fp.q) ** wl)
    return TestFunction.tabulate(f.fp, wl, f.constancy_level, lambda x: f.evaluate(x) - c0)
