"""Exact closed-form Haar integrals, the radial-times-locally-constant
quadrature engine, and brute-force oracles validating every closed form.

All infinite shell sums are evaluated through the closed geometric forms in
:mod:`ultrafrac.numerics`; the oracles are the only place truncation occurs
and they always report their analytic tail bound separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import (
    DivergentIntegralError,
    RegionMismatchError,
    UnsupportedIntegrandError,
)
from .field import (
    FieldParams,
    Point,
    SphereSpec,
    abs_exponent,
    haar_measure,
    point,
    sphere_coset_reps,
    zero_point,
)
from .functions import ExtendedFunction, _as_extended, radial_sum
from .numerics import (
    CV_ZERO,
    NV_ZERO,
    ComplexValue,
    ExactScalar,
    NumericValue,
    as_fraction,
    geometric_tail,
    q_pow,
    radial_monomial,
    weighted_geometric_tail,
)

# ---------------------------------------------------------------------------
# radial profiles and regions


class RadialProfile:
    """Base class for radial integrand factors."""

    @property
    def monomial(self) -> tuple[Fraction, int]:
        """(s, m) of a centered profile |x|**s * (ln|x|)**m."""
        raise TypeError(f"not a centered radial profile: {self!r}")


@dataclass(frozen=True)
class PowerProfile(RadialProfile):
    """|x|**exponent; integrable over a ball iff exponent > -1."""

    exponent: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponent", as_fraction(self.exponent))

    @property
    def monomial(self) -> tuple[Fraction, int]:
        return self.exponent, 0


@dataclass(frozen=True)
class LogProfile(RadialProfile):
    """ln|x|."""

    monomial = (Fraction(0), 1)


@dataclass(frozen=True)
class ShiftedProfile(RadialProfile):
    """base profile of |x - shift|."""

    base: RadialProfile
    shift: Point


@dataclass(frozen=True)
class Region:
    """Contiguous range of sphere levels [lo, hi]; None means unbounded.

    ``lo`` is the smallest included level (None: arbitrarily large absolute
    value), ``hi`` the largest (None: down to zero, i.e. a full ball).
    """

    lo: int | None
    hi: int | None

    @classmethod
    def everything(cls) -> "Region":
        return cls(None, None)

    @classmethod
    def ball(cls, level: int) -> "Region":
        return cls(level, None)

    @classmethod
    def sphere(cls, level: int) -> "Region":
        return cls(level, level)

    @classmethod
    def outside(cls, level: int) -> "Region":
        """{x : |x| >= q**(-level)}."""
        return cls(None, level)


def profile_value(fp: FieldParams, profile: RadialProfile, e: int) -> NumericValue:
    """Profile value at |x| = q**e."""
    return radial_monomial(fp, *profile.monomial, e)


# ---------------------------------------------------------------------------
# closed forms


def power_over_ball(fp: FieldParams, alpha, radius_exp: int) -> NumericValue:
    """Integral of |x|**(alpha-1) over {|x| <= q**radius_exp}, alpha > 0."""
    a = as_fraction(alpha)
    if a <= 0:
        raise DivergentIntegralError(f"power integral over a ball needs alpha > 0, got {a}")
    one_minus = NumericValue.from_rational(1 - Fraction(1, fp.q))
    return one_minus / (1 - q_pow(fp, -a)) * q_pow(fp, a * radius_exp)


def shifted_power_over_sphere(fp: FieldParams, alpha, radius_exp: int, a_abs_exp: int | None = None) -> NumericValue:
    """Integral of |x - a|**(alpha-1) over {|x| = q**radius_exp} with |a| = q**radius_exp."""
    a = as_fraction(alpha)
    if a <= 0:
        raise DivergentIntegralError(f"shifted power integral needs alpha > 0, got {a}")
    if a_abs_exp is not None and a_abs_exp != radius_exp:
        raise RegionMismatchError(
            f"|a| = q**{a_abs_exp} does not match the sphere radius q**{radius_exp}"
        )
    q = fp.q
    coeff = (q - 2 + q_pow(fp, -a)) / (q * (1 - q_pow(fp, -a)))
    return coeff * q_pow(fp, a * radius_exp)


def log_over_ball(fp: FieldParams, radius_exp: int) -> NumericValue:
    """Integral of ln|x| over {|x| <= q**radius_exp}; exact in Q*ln(q)."""
    coeff = (radius_exp - Fraction(1, fp.q - 1)) * Fraction(fp.q) ** radius_exp
    return NumericValue.from_exact(ExactScalar.ln_q(fp, coeff))


def shifted_log_over_sphere(fp: FieldParams, radius_exp: int, a_abs_exp: int | None = None) -> NumericValue:
    """Integral of ln|x - a| over {|x| = q**radius_exp} with |a| = q**radius_exp."""
    if a_abs_exp is not None and a_abs_exp != radius_exp:
        raise RegionMismatchError(
            f"|a| = q**{a_abs_exp} does not match the sphere radius q**{radius_exp}"
        )
    q = fp.q
    coeff = ((1 - Fraction(1, q)) * radius_exp - Fraction(1, q - 1)) * Fraction(q) ** radius_exp
    return NumericValue.from_exact(ExactScalar.ln_q(fp, coeff))


def ball_profile_integral(fp: FieldParams, profile: RadialProfile, radius_exp: int) -> NumericValue:
    """Integral of a radial profile over {|x| <= q**radius_exp}."""
    s, m = profile.monomial
    if m:
        return log_over_ball(fp, radius_exp)
    return power_over_ball(fp, s + 1, radius_exp)


def profile_coset_integral(fp: FieldParams, profile: RadialProfile, rel_exp: int | None, level: int) -> NumericValue:
    """Integral of profile(|x - c|) over a level-``level`` ball at distance q**rel_exp from c.

    ``rel_exp`` is the absolute-value exponent of (representative - c), None
    when the singular point c lies inside the ball.
    """
    if rel_exp is not None and rel_exp > -level:
        return profile_value(fp, profile, rel_exp) * Fraction(fp.q) ** (-level)
    return ball_profile_integral(fp, profile, -level)


# ---------------------------------------------------------------------------
# the quadrature workhorse


def _closed_far_sum(fp: FieldParams, profile: RadialProfile, f: ExtendedFunction, j_hi: int) -> ComplexValue:
    """Sum of profile * f over all shells j <= j_hi, where f is in tail regime.

    Each product term is c * |x|**s * (ln|x|)**m; over the shells j <= j_hi it
    is a geometric series (m = 0) or a j-weighted one (m = 1).
    """
    s_p, m_p = profile.monomial
    one_minus = 1 - Fraction(1, fp.q)
    total = CV_ZERO
    for c, s_t, m_t in f.tail.terms:
        s, m = s_p + s_t, m_p + m_t
        # m = 2 only for ln|x| against a log tail, where s = 0: it diverges here
        if s + 1 >= 0:
            raise DivergentIntegralError(f"far shells of the product term |x|**{s} * (ln|x|)**{m} diverge")
        weight = one_minus * NumericValue.from_exact(ExactScalar.ln_q(fp)) if m else one_minus
        series = weighted_geometric_tail if m else geometric_tail
        total = total + c * (weight * series(fp, -(s + 1), -j_hi))
    return total


def integrate_product(profile: RadialProfile, f, region: Region | None = None) -> ComplexValue:
    """Exact integral of profile(x) * f(x) over a shell-range region.

    Splits the region into the shells |x - c| = q**(-j) around the profile's
    center c (zero unless the profile is shifted).  The far shells, where f
    is its tail, sum in closed form; the sphere sums of f are weighted by the
    profile; the ball where f is constant takes the closed ball form.
    Divergence is detected structurally from the exponents, never by
    truncation.
    """
    fe = _as_extended(f)
    fp = fe.fp
    region = Region.everything() if region is None else region

    center = zero_point(fp)
    while isinstance(profile, ShiftedProfile):
        if region.lo is not None or region.hi is not None:
            raise UnsupportedIntegrandError(
                "shifted profiles are only supported over the whole field"
            )
        center = center + profile.shift
        profile = profile.base

    j0, sums, v0 = fe.sphere_sums(center)
    j_end = j0 + len(sums)  # f equals v0 = f(center) on |x - center| <= q**(-j_end)
    total = CV_ZERO

    # far shells (f in tail regime, |x| = |x - center|): j <= min(j0 - 1, hi)
    tail_hi = j0 - 1 if region.hi is None else min(j0 - 1, region.hi)
    if region.lo is None:
        total = total + _closed_far_sum(fp, profile, fe, tail_hi)
    else:
        for j in range(region.lo, tail_hi + 1):
            val = fe.tail_value_at_exponent(-j)
            if val.is_exact_zero():
                continue
            total = total + val * (profile_value(fp, profile, -j) * haar_measure(fp, SphereSpec(zero_point(fp), j)))

    # spheres where f varies: the profile is constant on each
    w_lo = j0 if region.lo is None else max(j0, region.lo)
    mid_hi = j_end - 1 if region.hi is None else min(j_end - 1, region.hi)
    coset_meas = Fraction(fp.q) ** (-fe.constancy_level)
    total = total + radial_sum(
        (profile_value(fp, profile, -j) * coset_meas, sums[j - j0]) for j in range(w_lo, mid_hi + 1)
    )

    # shells from j_end inward: f is constant there
    deep_lo = max(w_lo, j_end)
    if not v0.is_exact_zero():
        if region.hi is None:
            total = total + v0 * ball_profile_integral(fp, profile, -deep_lo)
        else:
            for j in range(deep_lo, region.hi + 1):
                total = total + v0 * (profile_value(fp, profile, -j) * haar_measure(fp, SphereSpec(zero_point(fp), j)))
    return total


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class OracleTailSpec:
    """Analytic bounds |integrand| <= coeff * |x|**exponent off the sampled shells."""

    inner: tuple[float, float] | None = None
    outer: tuple[float, float] | None = None


@dataclass(frozen=True)
class OracleResult:
    value: float
    tail_bound: float


def brute_force_oracle(
    fp: FieldParams,
    sampler: Callable[[Point], float],
    region: Region,
    resolution: int,
    tail_spec: OracleTailSpec | None = None,
) -> OracleResult:
    """Riemann-type coset sum at a fine level plus an analytic tail bound.

    Samples the integrand at canonical representatives of level-``resolution``
    cosets over the region's shells; parts of the region not covered by the
    sampled shells must be bounded through ``tail_spec``.
    """
    tail_spec = tail_spec or OracleTailSpec()
    q = fp.q
    lo = region.lo if region.lo is not None else -resolution
    hi = min(region.hi, resolution - 1) if region.hi is not None else resolution - 1
    meas = float(Fraction(q) ** (-resolution))

    value = 0.0
    for j in range(lo, hi + 1):
        for rep in sphere_coset_reps(fp, j, resolution):
            value += float(sampler(rep)) * meas

    bound = 0.0
    if region.hi is None:
        if tail_spec.inner is None:
            raise DivergentIntegralError("oracle needs an inner tail bound for a full ball")
        coeff, s = tail_spec.inner
        if s <= -1:
            raise DivergentIntegralError("inner tail bound must be integrable (s > -1)")
        bound += coeff * (1 - 1 / q) * float(geometric_tail(fp, as_fraction(s) + 1, resolution))
    if region.lo is None:
        if tail_spec.outer is None:
            raise DivergentIntegralError("oracle needs an outer tail bound for an unbounded region")
        coeff, s = tail_spec.outer
        if s >= -1:
            raise DivergentIntegralError("outer tail bound must be integrable (s < -1)")
        bound += coeff * (1 - 1 / q) * float(geometric_tail(fp, -(as_fraction(s) + 1), -(lo - 1)))
    return OracleResult(value, bound)


def _shifted_sphere_setup(fp: FieldParams, radius_exp: int) -> list[Point]:
    """Critical-shell cosets kept in the sphere {|x| = |a|}, for a shift a with |a| = q**radius_exp.

    The critical shell is |t| = q**radius_exp for t = x - a; a coset there
    belongs to the sphere {|x| = |a|} iff |rep + a| = |a|, checked exactly.
    """
    a_pt = point(fp, *([Fraction(fp.p) ** (-radius_exp)] + [0] * (fp.n - 1)))
    return [
        rep
        for rep in sphere_coset_reps(fp, -radius_exp, -radius_exp + 1)
        if abs_exponent(fp, rep + a_pt) == radius_exp
    ]


def oracle_power_over_ball(fp: FieldParams, alpha, radius_exp: int, depth: int = 40) -> NumericValue:
    """Shell-by-shell series for the power-over-ball integral, closed tail only."""
    a = as_fraction(alpha)
    if a <= 0:
        raise DivergentIntegralError(f"needs alpha > 0, got {a}")
    one_minus = 1 - Fraction(1, fp.q)
    total = NV_ZERO
    for lev in range(-radius_exp, -radius_exp + depth + 1):
        total = total + q_pow(fp, -a * lev) * one_minus
    return total + geometric_tail(fp, a, -radius_exp + depth + 1) * one_minus


def oracle_shifted_power_over_sphere(fp: FieldParams, alpha, radius_exp: int, depth: int = 40) -> NumericValue:
    """Series-plus-enumeration evaluation of the shifted power integral."""
    a = as_fraction(alpha)
    if a <= 0:
        raise DivergentIntegralError(f"needs alpha > 0, got {a}")
    kept = _shifted_sphere_setup(fp, radius_exp)
    coset_meas = Fraction(fp.q) ** (radius_exp - 1)
    total = q_pow(fp, (a - 1) * radius_exp) * (len(kept) * coset_meas)
    one_minus = 1 - Fraction(1, fp.q)
    for lev in range(-radius_exp + 1, -radius_exp + depth + 1):
        total = total + q_pow(fp, -a * lev) * one_minus
    return total + geometric_tail(fp, a, -radius_exp + depth + 1) * one_minus


def oracle_log_over_ball(fp: FieldParams, radius_exp: int, depth: int = 40) -> NumericValue:
    """Shell series for the log-over-ball integral; exact ln(q) coefficient."""
    one_minus = 1 - Fraction(1, fp.q)
    partial = Fraction(0)
    for lev in range(-radius_exp, -radius_exp + depth + 1):
        partial += (-lev) * Fraction(fp.q) ** (-lev)
    tail = weighted_geometric_tail(fp, 1, -radius_exp + depth + 1)
    ln_q = NumericValue.from_exact(ExactScalar.ln_q(fp))
    return (NumericValue.from_rational(partial) - tail) * one_minus * ln_q


def oracle_shifted_log_over_sphere(fp: FieldParams, radius_exp: int, depth: int = 40) -> NumericValue:
    """Series-plus-enumeration evaluation of the shifted log integral."""
    kept = _shifted_sphere_setup(fp, radius_exp)
    coset_meas = Fraction(fp.q) ** (radius_exp - 1)
    ln_q = NumericValue.from_exact(ExactScalar.ln_q(fp))
    total = ln_q * (radius_exp * len(kept) * coset_meas)
    one_minus = 1 - Fraction(1, fp.q)
    partial = Fraction(0)
    for lev in range(-radius_exp + 1, -radius_exp + depth + 1):
        partial += (-lev) * Fraction(fp.q) ** (-lev)
    tail = weighted_geometric_tail(fp, 1, -radius_exp + depth + 1)
    return total + (NumericValue.from_rational(partial) - tail) * one_minus * ln_q
