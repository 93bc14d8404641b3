"""Exact scalar ring Q + Q*ln(q) (+ Q/ln(q)), tagged exact/float values,
and closed-form geometric tail sums.

Every formula in the package is built from factors q**(a*k) and ln(q); the
exact path keeps ln(q) symbolic so that identities whose ln(q) factors
cancel (the log-kernel normalizations) can be verified by exact rational
cancellation.  Arithmetic that mixes an exact value with a float, or that
leaves the ring, demotes to a float; demotion is visible through
``NumericValue.is_exact`` so tests can assert which path ran.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergentSeriesError, ExactnessLost
from .field import FieldParams

def as_fraction(x) -> Fraction:
    """Exact conversion to Fraction; floats convert via their binary expansion."""
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
        return _numeric_value(None, op(float(self), float(other)))

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
KIND_FLOAT = 2  # some term is a float
KIND_LN = 4  # some exact term has a ln(q) part
KIND_INV_LN = 8  # some exact term has a 1/ln(q) part


def value_kind(v: NumericValue) -> int:
    """The KIND_* bits of a single value."""
    if v.exact is None:
        return KIND_NONZERO | KIND_FLOAT
    e = v.exact
    kind = 0 if e.is_zero() else KIND_NONZERO
    if e.b != 0:
        kind |= KIND_LN
    if e.c != 0:
        kind |= KIND_INV_LN
    return kind


def scale_sum(factor: NumericValue, total: NumericValue, kind: int) -> NumericValue:
    """factor * total, on the path that summing factor * term term by term takes.

    ``total`` is an exact-aware sum of terms whose kinds OR to ``kind``.  Each
    product factor * term is an exact zero when either side is, exact when both
    are exact and the product stays in the ring, and a float otherwise; their
    sum is exact iff every nonzero product is.  So terms that cancel to an
    exact zero against a float factor still give a float zero here.
    """
    if not kind & KIND_NONZERO or factor.is_exact_zero():
        return NV_ZERO
    fs = factor.exact
    if (
        fs is None
        or kind & KIND_FLOAT
        or (kind & KIND_LN and fs.b != 0)
        or (kind & KIND_INV_LN and fs.c != 0)
    ):
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
