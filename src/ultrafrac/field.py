"""Coordinate model of a local field: points, balls, cosets, Haar measure.

The field of residue cardinality q = p**n is modeled as the coordinate
space Q_p^n: a point is a vector of n rationals with p-power denominators,
and the normalized absolute value is (max_j |x_j|_p)**n, so that all radii
and measures are integer powers of q.  A "level" is always an integer l
applied per coordinate; the ball at level l is

    B_l(c) = { x : |x_j - c_j|_p <= p**(-l) for all j },

which has normalized radius q**(-l) and Haar measure q**(-l).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from typing import Iterator

from .errors import CosetResolutionError, InvalidPointError, WorkSizeError


@lru_cache(maxsize=4096)
def _prime_power(p: int, k: int) -> Fraction:
    return Fraction(p) ** k

Digits = tuple[tuple[int, ...], ...]

# enumerate_digits refuses a walk of more than 2**_MAX_WALK_BITS cosets; the
# test suite's largest walk is 3**12 = 531 441, the CLI examples' a few hundred
_MAX_WALK_BITS = 20


# Miller-Rabin with the first 13 prime bases decides primality below this bound
# (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    """Deterministic primality of m < _MR_BOUND; ValueError at or above it."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    if m < 43 * 43:  # no prime factor up to 41
        return True
    if m >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {m} is prime: the primality test is proven below {_MR_BOUND}")
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Prime p and extension degree n; the residue cardinality is q = p**n."""

    p: int
    n: int = 1

    def __post_init__(self) -> None:
        for name, value in (("p", self.p), ("extension degree", self.n)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.n}")

    @property
    def q(self) -> int:
        return self.p**self.n


@dataclass(frozen=True)
class Point:
    """Element of the coordinate model: a tuple of rationals with p-power denominators."""

    coords: tuple[Fraction, ...]

    def __add__(self, other: "Point") -> "Point":
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Point") -> "Point":
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Point":
        return Point(tuple(-a for a in self.coords))

    def scaled_by_prime_power(self, fp: FieldParams, k: int) -> "Point":
        """Multiply every coordinate by p**k (the only multiplication points support)."""
        factor = _prime_power(fp.p, k)
        return Point(tuple(c * factor for c in self.coords))

    def __str__(self) -> str:
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def point(fp: FieldParams, *values) -> Point:
    """Validated Point constructor; coordinates must have p-power denominators."""
    if len(values) != fp.n:
        raise InvalidPointError(f"expected {fp.n} coordinates, got {len(values)}")
    coords = []
    for v in values:
        fr = v if isinstance(v, Fraction) else Fraction(v)
        den = fr.denominator
        while den % fp.p == 0:
            den //= fp.p
        if den != 1:
            raise InvalidPointError(f"coordinate {fr} has a denominator not a power of {fp.p}")
        coords.append(fr)
    return Point(tuple(coords))


def zero_point(fp: FieldParams) -> Point:
    return Point((Fraction(0),) * fp.n)


def valuation(fr: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None for zero."""
    if fr == 0:
        return None
    v = 0
    num = abs(fr.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = fr.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def abs_exponent(fp: FieldParams, x: Point) -> int | None:
    """Exponent e with |x| = q**e in the normalized absolute value; None for x = 0."""
    best: int | None = None
    for c in x.coords:
        v = valuation(c, fp.p)
        if v is None:
            continue
        e = -v
        if best is None or e > best:
            best = e
    return best


def abs_value(fp: FieldParams, x: Point) -> Fraction:
    """Normalized absolute value |x| as an exact rational (0 for the zero point)."""
    e = abs_exponent(fp, x)
    if e is None:
        return Fraction(0)
    return Fraction(fp.q) ** e


@dataclass(frozen=True)
class BallSpec:
    """Ball {x : |x_j - c_j|_p <= p**(-level) for all j}; measure q**(-level)."""

    center: Point
    level: int


@dataclass(frozen=True)
class SphereSpec:
    """Sphere {x : |x - c| = q**(-level)}; measure (1 - 1/q) * q**(-level)."""

    center: Point
    level: int


def haar_measure(fp: FieldParams, region: BallSpec | SphereSpec) -> Fraction:
    """Exact Haar measure of a ball or sphere at an integer level."""
    if isinstance(region, BallSpec):
        return Fraction(fp.q) ** (-region.level)
    if isinstance(region, SphereSpec):
        return (1 - Fraction(1, fp.q)) * Fraction(fp.q) ** (-region.level)
    raise TypeError(f"not a ball or sphere: {region!r}")


def _ball_digits(fp: FieldParams, x: Point, ambient_level: int, resolution: int) -> Digits | None:
    """Digit address of x at the given resolution, or None when x is not in the ambient ball.

    None also covers a coordinate whose denominator is not a power of p; a
    point with the wrong number of coordinates raises ``InvalidPointError``.
    """
    if resolution < ambient_level:
        raise CosetResolutionError(
            f"resolution {resolution} coarser than ambient level {ambient_level}"
        )
    if len(x.coords) != fp.n:
        raise InvalidPointError(f"{x} has {len(x.coords)} coordinates, expected {fp.n}")
    p = fp.p
    depth = resolution - ambient_level
    ints = _ball_integers(fp, x, ambient_level, p**depth)
    if ints is None:
        return None
    out = []
    for r in ints:
        ds = []
        for _ in range(depth):
            ds.append(r % p)
            r //= p
        out.append(tuple(ds))
    return tuple(out)


def _ball_integers(fp: FieldParams, x: Point, ambient_level: int, modulus: int) -> list[int] | None:
    """x_c * p**(-ambient_level) mod modulus for each coordinate, or None when x is not in the ambient ball.

    This is the integer sum_j a_j p**j of the coordinate's digits a_j, with
    modulus p**depth; None also covers a denominator that is not a power of p.
    """
    scale = _prime_power(fp.p, -ambient_level)
    out = []
    for xc in x.coords:
        # xc * p**(-ambient_level) is an integer iff this division leaves no remainder
        rel, rem = divmod(xc.numerator * scale.numerator, xc.denominator * scale.denominator)
        if rem:
            return None
        out.append(rel % modulus)
    return out


def coset_digits(fp: FieldParams, x: Point, ambient_level: int, resolution: int) -> Digits:
    """Digit address of x inside the ambient ball, at the given resolution."""
    d = _ball_digits(fp, x, ambient_level, resolution)
    if d is None:
        raise InvalidPointError(f"{x} is not inside the level-{ambient_level} ambient ball")
    return d


def digits_to_point(fp: FieldParams, digits: Digits, ambient_level: int) -> Point:
    """Canonical representative sum_j a_j p**j from a digit address."""
    scale = _prime_power(fp.p, ambient_level)
    coords = []
    for ds in digits:
        acc = 0  # the integer sum_j a_j p**j, so that each coordinate costs one Fraction
        for a in reversed(ds):
            acc = acc * fp.p + a
        coords.append(Fraction(acc * scale.numerator, scale.denominator))
    return Point(tuple(coords))


def enumerate_digits(fp: FieldParams, ambient_level: int, resolution: int) -> Iterator[Digits]:
    """All digit addresses at the given resolution, in lexicographic order.

    A walk of more than 2**_MAX_WALK_BITS cosets raises ``WorkSizeError``
    before any list is built.  The count p**(n * depth) is decided from its
    exponent first (p >= 2), so a far-out depth never builds q**depth.
    """
    if resolution < ambient_level:
        raise CosetResolutionError(
            f"resolution {resolution} coarser than ambient level {ambient_level}"
        )
    depth = resolution - ambient_level
    exponent = fp.n * depth
    if exponent > _MAX_WALK_BITS or fp.p**exponent > 2**_MAX_WALK_BITS:
        raise WorkSizeError(
            f"a walk of {fp.p}**{exponent} cosets (levels {ambient_level} to {resolution}) exceeds the limit of 2**{_MAX_WALK_BITS}"
        )
    per_coord = list(_cartesian(range(fp.p), repeat=depth))
    for combo in _cartesian(per_coord, repeat=fp.n):
        yield combo


@lru_cache(maxsize=64)
def _coordinate_integers(p: int, depth: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The integer A = sum_j a_j p**j of each digit tuple of one coordinate, in ``enumerate_digits`` order, and the tuple of each A."""
    per_coord = list(_cartesian(range(p), repeat=depth))
    ints = [sum(a * p**j for j, a in enumerate(ds)) for ds in per_coord]
    by_int: list[tuple[int, ...]] = [()] * len(per_coord)
    for a, ds in zip(ints, per_coord):
        by_int[a] = ds
    return tuple(ints), tuple(by_int)


@lru_cache(maxsize=64)
def _ball_indices(fp: FieldParams, depth: int) -> dict[Digits, int]:
    """Position of each depth-digit address in the ball-sum layout, in ``enumerate_digits`` order.

    Digit t of coordinate i adds p**i to the base-q digit at position t, and
    position 0 leads, so the ball t positions down that holds the coset at
    index i has index ``i // q**(depth - t)``.
    """
    p, q = fp.p, fp.q
    return {
        d: sum(a * p**i * q ** (depth - 1 - t) for i, ds in enumerate(d) for t, a in enumerate(ds))
        for d in enumerate_digits(fp, 0, depth)
    }


@lru_cache(maxsize=64)
def _window_locations(
    fp: FieldParams, ambient_level: int, support_level: int, resolution: int
) -> tuple[tuple[Digits, Digits | None, int | None], ...]:
    """(address, d, e) for each resolution-level coset of the ambient ball, in ``enumerate_digits`` order.

    (d, e) is where a table on the ball at ``support_level`` locates the
    coset's canonical point, read from its digits with no Point: d its
    address in that ball, or None with |x| = q**e beyond it.  A point is in
    the ball iff its digits below support_level all vanish; beyond it, the
    first digit that does not vanish, at position m, gives |x| = q**(-m).
    """
    lead = support_level - ambient_level
    pad = (0,) * -lead
    out = []
    for d in enumerate_digits(fp, ambient_level, resolution):
        if lead <= 0:
            out.append((d, tuple(pad + ds for ds in d), None))
            continue
        first = min(next((j for j, a in enumerate(ds[:lead]) if a), lead) for ds in d)
        if first == lead:
            out.append((d, tuple(ds[lead:] for ds in d), None))
        else:
            out.append((d, None, -(ambient_level + first)))
    return tuple(out)


def coset_walk(fp: FieldParams, ambient_level: int, resolution: int) -> Iterator[tuple[Digits, Point]]:
    """(digit address, canonical representative) of each resolution-level coset of the ambient ball.

    The order is that of ``enumerate_digits``.  This is the one place that
    turns addresses into points: window loops and ``TestFunction.tabulate``
    walk through it.
    """
    for d in enumerate_digits(fp, ambient_level, resolution):
        yield d, digits_to_point(fp, d, ambient_level)


def enumerate_cosets(fp: FieldParams, ambient_level: int, resolution: int) -> list[Point]:
    """Canonical representatives of the q**(resolution-ambient) cosets of the ambient ball.

    The level-``resolution`` balls around the returned points partition the
    level-``ambient_level`` ball; the order is lexicographic in the digits.
    """
    return [pt for _, pt in coset_walk(fp, ambient_level, resolution)]


@lru_cache(maxsize=512)
def _sphere_reps_cached(fp: FieldParams, level: int, resolution: int) -> tuple[Point, ...]:
    return tuple(pt for _, pt in coset_walk(fp, level, resolution) if abs_exponent(fp, pt) == -level)


def sphere_coset_reps(fp: FieldParams, level: int, resolution: int) -> list[Point]:
    """Representatives of the resolution-level cosets covering the sphere at ``level``."""
    if resolution <= level:
        raise CosetResolutionError("sphere cosets need resolution at least level + 1")
    return list(_sphere_reps_cached(fp, level, resolution))
