"""Exact scalar ring Q + Q*ln(q) (+ Q/ln(q)), tagged exact/float values,
closed-form geometric tail sums, and the integer and float views of a table.

Every formula in the package is built from factors q**(a*k) and ln(q); the
exact path keeps ln(q) symbolic so that identities whose ln(q) factors
cancel (the log-kernel normalizations) can be verified by exact rational
cancellation.  Arithmetic that mixes an exact value with a float, or that
leaves the ring, demotes to a float; demotion is visible through
``NumericValue.is_exact`` so tests can assert which path ran.

A table whose parts are all exact rationals has an integer view: one
(re, im) numerator pair per entry over one common denominator.  Every
route builds such tables from rational input; a table with a log part is
built by hand only and takes the ring path.  No route weight has a log
part either (the Riesz core's weights include its normalizer d, whose
1/ln(q) meets the ln(q) of each log kernel), so a route's weighted sum of
a view's entries adds in integers up to the first float term, with the
ring's own rounding from there on, and becomes one ``ExactScalar`` per
part only at the end (``integer_view``, then ``mixed_sum``: the one gate
and lane builder of every route; on exact rational weights the lane it
hands out is an ``IntegerSum``, whose ``folded`` folds an exact factor
and an exact constant into the weights, so that a route's whole value is
one numerator pair).  A Fourier phase of 1, i, -1 or -i only permutes and
negates a numerator pair, so the transform's exact outputs take
``quarter_turn_sum``, the lane's signed-permutation form.

A table whose parts are all floats (the Riesz potential of an irrational
order) has a float view instead: one (re, im) float pair per entry.  The
ring's float arithmetic is ``op(float(a), float(b))`` with an absorbing
exact zero, so ``mixed_sum`` over the float pairs, in the ring's order,
gives the ring's bits; only a route that keeps that order hands one in.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import DivergentSeriesError, ExactnessLost, FloatZeroDivisionError
from .field import FieldParams

def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction; floats convert via their binary expansion, and a bool is refused."""
    if isinstance(x, bool):
        raise TypeError(f"cannot convert the bool {x} to a rational")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot convert {x} to a rational")
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to a rational")


def _integer_root(base: int, k: int) -> int | None:
    """Integer r with r**k == base, or None; exact for integers of any size."""
    if k == 1:
        return base
    if base < 1:
        return None
    if base.bit_length() <= k:  # base < 2**k, so only 1 can be a root
        return 1 if base == 1 else None
    # integer Newton iteration down from 2**ceil(bits / k) >= the root
    r = 1 << -(-base.bit_length() // k)
    while True:
        s = ((k - 1) * r + base // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == base else None


_F0 = Fraction(0)


@dataclass(frozen=True, slots=True)
class ExactScalar:
    """Element a + b*ln(logbase) + c/ln(logbase) with rational coefficients.

    ``logbase`` is None exactly when b == c == 0 (a plain rational); the
    extra 1/ln(q) coefficient carries normalizers like (1-q)/(q*ln q) so
    that products with ln(q)-multiples cancel exactly.  Values are
    immutable and shared (``NV_ZERO``, cached constants); arithmetic builds
    its results through the unchecked ``_exact_scalar``.
    """

    a: Fraction
    b: Fraction = _F0
    c: Fraction = _F0
    logbase: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        object.__setattr__(self, "c", as_fraction(self.c))
        if self.b == 0 and self.c == 0:
            object.__setattr__(self, "logbase", None)
        elif self.logbase is None or self.logbase < 2:
            raise ValueError("log terms need a logbase >= 2")

    @classmethod
    def rational(cls, x) -> "ExactScalar":
        return cls(as_fraction(x))

    @classmethod
    def ln_q(cls, fp: FieldParams, coeff=1) -> "ExactScalar":
        return cls(Fraction(0), as_fraction(coeff), Fraction(0), fp.q)

    @classmethod
    def inv_ln_q(cls, fp: FieldParams, coeff=1) -> "ExactScalar":
        return cls(Fraction(0), Fraction(0), as_fraction(coeff), fp.q)

    @property
    def is_rational(self) -> bool:
        return self.logbase is None

    def is_zero(self) -> bool:
        return self.logbase is None and not self.a

    def _merged_base(self, other: "ExactScalar") -> int | None:
        if self.logbase is None:
            return other.logbase
        if other.logbase is None or other.logbase == self.logbase:
            return self.logbase
        raise ExactnessLost(
            f"mixed log bases {self.logbase} and {other.logbase} in exact arithmetic"
        )

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.logbase is None and other.logbase is None:
            return _exact_scalar(self.a + other.a)
        base = self._merged_base(other)
        return _exact_scalar(self.a + other.a, self.b + other.b, self.c + other.c, base)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.logbase is None and other.logbase is None:
            return _exact_scalar(self.a - other.a)
        base = self._merged_base(other)
        return _exact_scalar(self.a - other.a, self.b - other.b, self.c - other.c, base)

    def __neg__(self) -> "ExactScalar":
        if self.logbase is None:
            return _exact_scalar(-self.a)
        return _exact_scalar(-self.a, -self.b, -self.c, self.logbase)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.logbase is None and other.logbase is None:
            return _exact_scalar(self.a * other.a)
        base = self._merged_base(other)
        if (self.b and other.b) or (self.c and other.c):
            raise ExactnessLost("product leaves the ring Q + Q*ln q + Q/ln q")
        a = self.a * other.a + self.b * other.c + self.c * other.b
        b = self.a * other.b + self.b * other.a
        c = self.a * other.c + self.c * other.a
        return _exact_scalar(a, b, c, base)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if other.logbase is None:
            if not other.a:
                raise ZeroDivisionError("exact division by zero")
            if self.logbase is None:
                return _exact_scalar(self.a / other.a)
            inv = 1 / other.a
            return _exact_scalar(self.a * inv, self.b * inv, self.c * inv, self.logbase)
        base = self._merged_base(other)
        # ratios of pure log (or pure 1/log) multiples are rational
        if other.a == 0 and other.c == 0 and self.a == 0 and self.c == 0:
            return _exact_scalar(self.b / other.b)
        if other.a == 0 and other.b == 0 and self.a == 0 and self.b == 0:
            return _exact_scalar(self.c / other.c)
        if other.a == 0 and other.c == 0 and self.b == 0 and self.c == 0:
            return _exact_scalar(_F0, _F0, self.a / other.b, base)
        raise ExactnessLost("quotient leaves the ring Q + Q*ln q + Q/ln q")

    def evaluate(self) -> float:
        if self.logbase is None:
            return float(self.a)
        ln = math.log(self.logbase)
        return float(self.a) + float(self.b) * ln + float(self.c) / ln

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.a)
        parts = []
        if self.a != 0:
            parts.append(str(self.a))
        if self.b != 0:
            parts.append(f"{self.b}*ln({self.logbase})")
        if self.c != 0:
            parts.append(f"{self.c}/ln({self.logbase})")
        return " + ".join(parts) if parts else "0"


def _exact_scalar(a: Fraction, b: Fraction = _F0, c: Fraction = _F0, logbase: int | None = None) -> ExactScalar:
    """An arithmetic result, built without the checks of __init__; drops logbase once b == c == 0."""
    s = object.__new__(ExactScalar)
    object.__setattr__(s, "a", a)
    object.__setattr__(s, "b", b)
    object.__setattr__(s, "c", c)
    object.__setattr__(s, "logbase", logbase if logbase is None or b or c else None)
    return s


@dataclass(frozen=True, slots=True)
class NumericValue:
    """Tagged union Exact(ExactScalar) | Float(double).

    Exactly one of ``exact``/``approx`` is set.  Arithmetic stays exact when
    both operands are exact and the result is representable; otherwise the
    value demotes to a float, which is observable via ``is_exact``.
    """

    exact: ExactScalar | None
    approx: float | None = None

    def __post_init__(self) -> None:
        if (self.exact is None) == (self.approx is None):
            raise ValueError("NumericValue needs exactly one of exact/approx")

    @classmethod
    def from_exact(cls, es: ExactScalar) -> "NumericValue":
        return cls(es, None)

    @classmethod
    def from_rational(cls, x) -> "NumericValue":
        return cls(ExactScalar.rational(x), None)

    @classmethod
    def from_float(cls, x: float) -> "NumericValue":
        return cls(None, float(x))

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def is_exact_zero(self) -> bool:
        e = self.exact
        return e is not None and e.logbase is None and not e.a

    def __float__(self) -> float:
        return self.exact.evaluate() if self.exact is not None else self.approx  # type: ignore[return-value]

    @staticmethod
    def _coerce(x) -> "NumericValue":
        if isinstance(x, NumericValue):
            return x
        if isinstance(x, ExactScalar):
            return NumericValue.from_exact(x)
        if isinstance(x, (int, Fraction)):
            return _numeric_value(_exact_scalar(as_fraction(x)))
        if isinstance(x, float):
            return NumericValue.from_float(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to NumericValue")

    def _binary(self, other: "NumericValue", op) -> "NumericValue":
        """op on the exact operands, or on their floats once either is a float or op leaves the ring."""
        x, y = self.exact, other.exact
        if x is not None and y is not None:
            try:
                return _numeric_value(op(x, y))
            except ExactnessLost:
                pass
        a, b = float(self), float(other)
        try:
            return _numeric_value(None, op(a, b))
        except ZeroDivisionError:
            raise FloatZeroDivisionError(
                f"float division by zero: {a!r} / {b!r}; a divisor rounded to 0.0,"
                " as 1 - q**alpha does at an order alpha below about 1e-16"
            ) from None

    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented  # so that a ComplexValue on the right takes the reflected operation
        if self.is_exact_zero():
            return other
        if other.is_exact_zero():
            return self
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        # exact zero absorbs: keeps structural zeros exact through float factors
        if self.is_exact_zero() or other.is_exact_zero():
            return NV_ZERO
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._binary(other, operator.truediv)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        if self.exact is not None:
            return _numeric_value(-self.exact)
        return _numeric_value(None, -self.approx)  # type: ignore[operator]

    def pow_int(self, k: int) -> "NumericValue":
        if self.exact is not None:
            if k == 0:
                return NV_ONE
            if k == 1:
                return self
            if self.exact.logbase is None:
                return _numeric_value(_exact_scalar(self.exact.a**k))
        return _numeric_value(None, float(self) ** k)

    def __str__(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        return repr(self.approx)


def _numeric_value(exact: ExactScalar | None, approx: float | None = None) -> NumericValue:
    """An arithmetic result, built without the check of __init__."""
    v = object.__new__(NumericValue)
    object.__setattr__(v, "exact", exact)
    object.__setattr__(v, "approx", approx)
    return v


NV_ZERO = NumericValue.from_rational(0)
NV_ONE = NumericValue.from_rational(1)

# What a sum of values was built from: the kinds of its terms, OR-ed together.
KIND_NONZERO = 1  # some term is not an exact zero
KIND_LN = 2  # some exact term has a ln(q) part


def value_kind(v: NumericValue) -> int:
    """The KIND_* bits of a single value."""
    if v.exact is None:
        return KIND_NONZERO
    e = v.exact
    kind = 0 if e.is_zero() else KIND_NONZERO
    if e.b != 0:
        kind |= KIND_LN
    return kind


def scale_sum(factor: NumericValue, total: NumericValue, kind: int) -> NumericValue:
    """factor * total, on the path that summing factor * term term by term takes.

    ``total`` is an exact-aware sum of terms whose kinds OR to ``kind``, and
    ``factor`` has no 1/ln(q) part.  Each product factor * term is an exact
    zero when either side is, exact when both are exact and the product stays
    in the ring, and a float otherwise; their sum is exact iff every nonzero
    product is (a float term leaves ``total`` a float).  So terms that cancel
    to an exact zero against a float factor still give a float zero here.
    """
    if not kind & KIND_NONZERO or factor.is_exact_zero():
        return NV_ZERO
    fs = factor.exact
    if fs is None or (kind & KIND_LN and fs.b != 0):
        return _numeric_value(None, float(factor) * float(total))
    return factor * total


def q_pow(fp: FieldParams, exponent) -> NumericValue:
    """q**exponent; exact rational whenever q is a perfect power matching the denominator."""
    e = as_fraction(exponent)
    if e == 0:
        return NV_ONE
    root = _integer_root(fp.q, e.denominator)
    if root is not None:
        return _numeric_value(_exact_scalar(Fraction(root) ** e.numerator))
    try:
        q = float(fp.q)
    except OverflowError:
        # q beyond float range: only the power itself has to be a finite float
        return _numeric_value(None, math.exp(float(e) * math.log(fp.q)))
    return _numeric_value(None, q ** float(e))


def radial_monomial(fp: FieldParams, s, m: int, e: int) -> NumericValue:
    """|x|**s * (ln|x|)**m at |x| = q**e, for m = 0 or (s, m) = (0, 1)."""
    if m:
        return NumericValue.from_exact(ExactScalar.ln_q(fp, e))
    return q_pow(fp, s * e)


def geometric_tail(fp: FieldParams, s, j0: int) -> NumericValue:
    """Sum over j >= j0 of q**(-s*j), s > 0, in closed form."""
    s = as_fraction(s)
    if s <= 0:
        raise DivergentSeriesError(f"geometric tail needs s > 0, got {s}")
    x = q_pow(fp, -s)
    return x.pow_int(j0) / (NV_ONE - x)


def weighted_geometric_tail(fp: FieldParams, s, j0: int) -> NumericValue:
    """Sum over j >= j0 of j * q**(-s*j), s > 0, in closed form."""
    s = as_fraction(s)
    if s <= 0:
        raise DivergentSeriesError(f"weighted geometric tail needs s > 0, got {s}")
    x = q_pow(fp, -s)
    one_minus = NV_ONE - x
    return x.pow_int(j0) * (NumericValue.from_rational(j0) - (j0 - 1) * x) / (one_minus * one_minus)


@dataclass(frozen=True, slots=True)
class ComplexValue:
    """Complex value with independently tracked exact/float real and imaginary parts."""

    re: NumericValue
    im: NumericValue

    @classmethod
    def zero(cls) -> "ComplexValue":
        return cls(NV_ZERO, NV_ZERO)

    @classmethod
    def from_rational(cls, re, im=0) -> "ComplexValue":
        return cls(NumericValue.from_rational(re), NumericValue.from_rational(im))

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexValue":
        return cls(NumericValue.from_float(z.real), NumericValue.from_float(z.imag))

    @property
    def is_exact(self) -> bool:
        return self.re.is_exact and self.im.is_exact

    def is_exact_zero(self) -> bool:
        return self.re.is_exact_zero() and self.im.is_exact_zero()

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(self.to_complex())

    @staticmethod
    def _coerce(x) -> "ComplexValue":
        if isinstance(x, ComplexValue):
            return x
        if isinstance(x, complex):
            return ComplexValue.from_complex(x)
        return ComplexValue(NumericValue._coerce(x), NV_ZERO)

    def __add__(self, other):
        other = self._coerce(other)
        return ComplexValue(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return ComplexValue(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return ComplexValue(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, (ComplexValue, complex)):
            # a real factor: the two products with its exact zero imaginary part
            # are NV_ZERO, and re*x - NV_ZERO, NV_ZERO + im*x equal re*x, im*x part for part
            x = NumericValue._coerce(other)
            return ComplexValue(self.re * x, self.im * x)
        other = self._coerce(other)
        return ComplexValue(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = NumericValue._coerce(other)
        return ComplexValue(self.re / other, self.im / other)

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})i"


CV_ZERO = ComplexValue.zero()


# ---------------------------------------------------------------------------
# integer view of a rational table

Numerators = tuple[int, int]  # of the real part, then of the imaginary part
ZERO_NUMERATORS: Numerators = (0, 0)


class IntegerView(NamedTuple):
    """A rational table as integer numerators over one denominator.

    ``numerators[key]`` times 1/``denominator`` is the entry at key, real
    part then imaginary part; ``denominator`` is the least common
    denominator of every part.
    """

    denominator: int
    numerators: dict


def _over_one_denominator(rationals: list[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator of the rationals, and their numerators over it."""
    den = math.lcm(*(f.denominator for f in rationals))
    return den, [f.numerator * (den // f.denominator) for f in rationals]


def integer_view(values: Mapping) -> IntegerView | None:
    """The integer view of a table of ComplexValues, or None unless every part of every entry is an exact rational.

    Every route builds rational tables from rational input; a table with a
    ln or 1/ln part is built by hand only, and takes the ring path.
    """
    scalars = [part.exact for v in values.values() for part in (v.re, v.im)]
    if any(e is None or e.logbase is not None for e in scalars):
        return None
    den, nums = _over_one_denominator([e.a for e in scalars])
    return IntegerView(den, dict(zip(values, zip(nums[::2], nums[1::2]))))


class FloatView(NamedTuple):
    """An all-float table as its (re, im) float pairs: the float twin of ``IntegerView``."""

    pairs: dict


def float_view(values: Mapping) -> FloatView | None:
    """The float view of a table of ComplexValues, or None unless every part of every entry is a float.

    An exact part, an exact zero included, refuses: the ring treats it
    apart from every float.
    """
    pairs = {}
    for key, v in values.items():
        re, im = v.re.approx, v.im.approx
        if re is None or im is None:
            return None
        pairs[key] = (re, im)
    return FloatView(pairs)


def mixed_weights(weights: Sequence[NumericValue]) -> tuple[int, int, list[tuple[int, int | float]]] | None:
    """The weight count, one denominator W, and each weight that is not an exact zero as (position, numerator over W or float).

    None for an exact weight with a ln or 1/ln part, which no route hands
    in: against a rational table every term is then an exact rational or a
    float.
    """
    scalars = [w.exact for w in weights if w.exact is not None]
    if any(e.logbase is not None for e in scalars):
        return None
    w_den = math.lcm(*(e.a.denominator for e in scalars))
    terms = [
        (i, w.approx if w.exact is None else w.exact.a.numerator * (w_den // w.exact.a.denominator))
        for i, w in enumerate(weights)
        if not w.is_exact_zero()
    ]
    return len(weights), w_den, terms


def _float_bits(x) -> tuple[str, ...]:
    """``float.hex`` of every float in x, through tuples and the value classes.

    The gate cache keys on ``args`` by ==, and 0.0 == -0.0 with one hash, so
    these bits key it too: a lane built for one sign of zero must not serve
    the other.
    """
    if x.__class__ is float:
        return (x.hex(),)
    if x.__class__ is complex:
        return (x.real.hex(), x.imag.hex())
    if x.__class__ is NumericValue:
        return _float_bits(x.approx)
    if x.__class__ is ComplexValue:
        return _float_bits(x.re) + _float_bits(x.im)
    if isinstance(x, tuple):
        return tuple(b for item in x for b in _float_bits(item))
    return ()


@lru_cache(maxsize=1024)
def _cached_weights(weights_of: Callable, args: tuple, bits: tuple):
    return mixed_weights(weights_of(*args))


def mixed_sum(
    weights_of: Callable, args: tuple, view: IntegerView | FloatView | None
) -> Callable[[Iterable[Sequence]], ComplexValue] | None:
    """The sum of a route's weights times a table's pairs: integer numerators on a rational table, floats on an all-float one.

    ``weights_of(*args)`` lists the weights.  It is a route's module-level
    function of hashable constants (the frozen params and levels in
    ``args``), so ``mixed_weights`` runs once per process; a float in
    ``args`` also keys the cache by its bits.  None without a view or where
    that gate refuses.  Otherwise the returned function takes one pair per
    weight, in weight order, and gives each part of sum w * v exactly as
    the ring's sum of the products in that order.

    Where every weight is an exact rational and the view is an integer one,
    the function is an ``IntegerSum``, the exact lane.  Its sums are exact,
    and exact sums are the same in every order, so a route may fold a
    factor or a repeated term into its weights only on this lane
    (``IntegerSum.folded``).  Folding would reassociate the additions of a
    float view, so a float view never gets one.

    Elsewhere a term whose weight is an exact zero is skipped (the exact
    zero absorbs), and so is one whose numerator is; exact terms add in
    integers until the first float term; from there every term adds in
    order as a float, a float-weight term as (n / L) * w and an exact one
    as the float of its exact product.  On a float view every term is the
    float n * w, an exact weight taken as its float w / W, and every term
    adds in order, a float zero included: the ring keeps a float zero, so a
    cancelling sum stays a float.  Int true division rounds correctly, like
    ``float(Fraction)``, so the bits are the ring's.
    """
    if view is None:
        return None
    gated = _cached_weights(weights_of, args, _float_bits(args))
    if gated is None:
        return None
    count, w_den, terms = gated
    if view.__class__ is IntegerView and not any(w.__class__ is float for _, w in terms):
        return IntegerSum(count, tuple(terms), ZERO_NUMERATORS, w_den * view.denominator)

    if view.__class__ is FloatView:
        float_terms = [(i, w if w.__class__ is float else w / w_den) for i, w in terms]

        def part_sum(values: list[float]) -> NumericValue:
            total = None
            for i, w in float_terms:
                t = values[i] * w
                total = t if total is None else total + t
            return NV_ZERO if total is None else _numeric_value(None, total)

    else:
        den_v = view.denominator
        den = w_den * den_v

        def part_sum(nums: list[int]) -> NumericValue:
            acc, total = 0, None
            for i, w in terms:
                n = nums[i]
                if not n:
                    continue
                if w.__class__ is float:
                    t = n / den_v * w
                elif total is None:
                    acc += n * w
                    continue
                else:
                    t = n * w / den
                if total is not None:
                    total += t
                else:
                    total = acc / den + t if acc else t
            if total is not None:
                return _numeric_value(None, total)
            return _rational(acc, den)

    def weighted_sum(vectors: Iterable[Sequence]) -> ComplexValue:
        vectors = list(vectors)
        if len(vectors) != count:
            raise ValueError(f"{len(vectors)} vectors for {count} weights")
        return ComplexValue(part_sum([v[0] for v in vectors]), part_sum([v[1] for v in vectors]))

    return weighted_sum


class IntegerSum(NamedTuple):
    """The exact lane: sum w * v of a route's rational weights against a rational table's numerator pairs, plus a constant.

    ``mixed_sum`` hands it out with a zero constant.  Each weight is an
    integer over ``denominator`` / L, with L the view's denominator, so
    each part of the sum, ``constant`` included, is one integer over
    ``denominator``; its ``ExactScalar`` is built only when the sum is
    called as a value.
    """

    count: int
    terms: tuple[tuple[int, int], ...]  # (position, weight numerator), exact zeros left out
    constant: Numerators
    denominator: int

    def numerators(self, vectors: Iterable[Sequence[int]]) -> Numerators:
        """The (re, im) numerators of the sum over ``denominator``, for one pair per weight in weight order."""
        vectors = list(vectors)
        if len(vectors) != self.count:
            raise ValueError(f"{len(vectors)} vectors for {self.count} weights")
        re, im = self.constant
        for i, w in self.terms:
            x, y = vectors[i]
            re += w * x
            im += w * y
        return re, im

    def __call__(self, vectors: Iterable[Sequence[int]]) -> ComplexValue:
        re, im = self.numerators(vectors)
        return ComplexValue(_rational(re, self.denominator), _rational(im, self.denominator))

    def folded(self, factor: NumericValue, constant: ComplexValue) -> IntegerSum | None:
        """The lane of factor * (this sum + constant), or None unless factor and both parts of constant are exact rationals.

        factor multiplies every weight and the old constant, and factor *
        constant joins it, all over one new denominator: the same exact
        value as the ring's factor * (sum + constant), with no ring
        operation per sum.
        """
        parts = [v.exact for v in (factor, constant.re, constant.im)]
        if any(e is None or e.logbase is not None for e in parts):
            return None
        f, c_re, c_im = (e.a for e in parts)
        k_re, k_im = (f * (Fraction(n, self.denominator) + c) for n, c in zip(self.constant, (c_re, c_im)))
        den = math.lcm(self.denominator * f.denominator, k_re.denominator, k_im.denominator)
        scale = f.numerator * (den // (self.denominator * f.denominator))
        terms = tuple((i, w * scale) for i, w in self.terms)
        k_nums = (k_re.numerator * (den // k_re.denominator), k_im.numerator * (den // k_im.denominator))
        return IntegerSum(self.count, terms, k_nums, den)


def quarter_turn_sum(view: IntegerView, turns: Iterable[tuple[object, int]]) -> tuple[NumericValue, NumericValue]:
    """The (re, im) parts of the sum over (key, quarter) of the view's entry at key times i**quarter: the signed-permutation form of the lane.

    i**quarter permutes and negates an entry's (x, y) numerator pair: (x, y),
    (-y, x), (-x, -y) or (y, -x) for quarter 0, 1, 2 or 3.  So each part is
    one integer sum over the view's denominator, built as one exact rational;
    exact sums are the same in every order, so this is the ring's
    term-by-term sum of value * phase.
    """
    nums = view.numerators
    xs, ys = [0, 0, 0, 0], [0, 0, 0, 0]  # the numerator sums of each quarter count
    for key, quarter in turns:
        x, y = nums[key]
        xs[quarter] += x
        ys[quarter] += y
    den = view.denominator
    return _rational(xs[0] - ys[1] - xs[2] + ys[3], den), _rational(ys[0] + xs[1] - ys[2] - xs[3], den)


def _rational(n: int, den: int) -> NumericValue:
    """n / den as an exact value."""
    return _numeric_value(_exact_scalar(Fraction(n, den) if n else _F0))

