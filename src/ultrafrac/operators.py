"""Fractional differentiation on the coordinate field model.

Implements the normalizing constants, Riesz potentials (power kernel, log
kernel at the critical exponent), the hypersingular fractional derivative,
its truncation to |y - x| >= q**(-nu), the compactly supported averaging
kernel expressing the truncated operator applied to a Riesz potential as a
shell average of the original function, and the L^p inversion residual.

Everything is computed against the normalized absolute value of the ambient
model, so the working exponent is gamma = alpha / n; for n = 1 this is
alpha itself.  Local constancy kills every shell at or inside the constancy
scale exactly, so principal-value limits are attained at finite truncation
and the inversion residual vanishes identically once q**(-nu-1) is inside
the constancy scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Callable

from .errors import (
    HypothesisBoundaryWarning,
    HypothesisViolationError,
)
from .field import (
    FieldParams,
    Point,
    abs_exponent,
    coset_walk,
    point,
    sphere_coset_reps,
)
from .functions import (
    BallSum,
    ExtendedFunction,
    TestFunction,
    _as_extended,
    _lp_exponent,
    log_tail,
    lp_window_sum,
    modulus_of_continuity,
    power_tail,
    radial_sum,
)
from .integrate import LogProfile, PowerProfile, _closed_far_sum, profile_coset_integral
from .numerics import (
    CV_ZERO,
    ComplexValue,
    ExactScalar,
    NumericValue,
    as_fraction,
    geometric_tail,
    q_pow,
    weighted_geometric_tail,
)


@dataclass(frozen=True)
class OperatorParams:
    """Field model plus differentiation order alpha > 0.

    ``gamma`` = alpha / n is the exponent used against the normalized
    absolute value; the log-kernel branch is gamma == 1.
    """

    fp: FieldParams
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"order must be positive, got {self.alpha}")

    @property
    def gamma(self) -> Fraction:
        return self.alpha / self.fp.n

    @property
    def sigma(self) -> "Point":
        """Canonical scale element with |sigma| = q**(-1): the prime p itself."""
        return point(self.fp, *([self.fp.p] + [0] * (self.fp.n - 1)))


@dataclass(frozen=True)
class OperatorConstants:
    c: NumericValue
    d: NumericValue
    cd: NumericValue


@lru_cache(maxsize=256)
def constants(params: OperatorParams) -> OperatorConstants:
    """Normalizers of the hypersingular operator and the Riesz potential.

    The log branch carries its 1/ln(q) factor symbolically so that products
    with ln(q)-multiples (log kernel values) cancel to exact rationals.  For
    the power branch the product c*d is cross-checked against its single
    closed form before being returned.
    """
    fp = params.fp
    g = params.gamma
    q = fp.q
    c = (1 - q_pow(fp, g)) / (1 - q_pow(fp, -g - 1))
    if g == 1:
        d = NumericValue.from_exact(ExactScalar.inv_ln_q(fp, Fraction(1 - q, q)))
        cd = c * d
        return OperatorConstants(c, d, cd)
    if 2 * g == 1:
        # numerator and denominator coincide when gamma - 1 = -gamma
        d = NumericValue.from_rational(1)
    else:
        d = (1 - q_pow(fp, -g)) / (1 - q_pow(fp, g - 1))
    cd = c * d
    product_form = ((1 - q_pow(fp, -g)) * (1 - q_pow(fp, -g))) / (
        q_pow(fp, -2 * g - 1) - q_pow(fp, -g) - q_pow(fp, -g - 2) + q_pow(fp, -1)
    )
    if not math.isclose(float(cd), float(product_form), rel_tol=1e-12, abs_tol=1e-300):
        raise ArithmeticError("normalizer product fails its closed-form cross-check")
    return OperatorConstants(c, d, cd)


# ---------------------------------------------------------------------------
# averaging kernel


def kernel_r(params: OperatorParams, j: int) -> NumericValue:
    """Averaging kernel R on the shell |tau| = q**(-j); zero for j <= 0."""
    fp = params.fp
    g = params.gamma
    if j <= 0:
        return NumericValue.from_rational(0)
    if g == 1:
        return NumericValue.from_exact(ExactScalar.ln_q(fp, Fraction(1, fp.q - 1) + j))
    lead = (1 - Fraction(1, fp.q)) / (1 - q_pow(fp, -g))
    return 1 - lead * q_pow(fp, -j * (g - 1))


def kernel_r1(params: OperatorParams, j: int) -> NumericValue:
    """Normalized kernel R1 = c*d*R; positive with unit mass for 0 < gamma <= 1."""
    return constants(params).cd * kernel_r(params, j)


@lru_cache(maxsize=1024)
def kernel_normalization_tail(params: OperatorParams, j_from: int) -> NumericValue:
    """Closed form of sum over shells j >= j_from of R1 times the shell measure."""
    fp = params.fp
    g = params.gamma
    j_from = max(1, j_from)
    cd = constants(params).cd
    one_minus = 1 - Fraction(1, fp.q)
    if g == 1:
        ln_q = NumericValue.from_exact(ExactScalar.ln_q(fp))
        inner = ln_q * (
            Fraction(1, fp.q - 1) * geometric_tail(fp, 1, j_from)
            + weighted_geometric_tail(fp, 1, j_from)
        )
        return cd * (one_minus * inner)
    lead = (1 - Fraction(1, fp.q)) / (1 - q_pow(fp, -g))
    inner = geometric_tail(fp, 1, j_from) - lead * geometric_tail(fp, g, j_from)
    return cd * (one_minus * inner)


def kernel_normalization(params: OperatorParams) -> NumericValue:
    """Total kernel mass; equals 1, exactly on rational paths."""
    return kernel_normalization_tail(params, 1)


# ---------------------------------------------------------------------------
# kernel oracle: the defining integral evaluated by shell decomposition


def _critical_sphere_integral(params: OperatorParams, tau: Point, level: int, depth: int) -> float:
    """Integral of f(|xi + tau|) over {|xi| = q**(-level)} with |tau| = q**(-level).

    f is |.|**(gamma-1) (or ln|.| on the log branch).  Cosets where the
    ultrametric distance certifies constancy are summed directly; the single
    coset chain approaching -tau is refined to ``depth`` levels, and the
    remainder past ``depth`` is dropped.
    """
    fp = params.fp
    g = params.gamma
    q = float(fp.q)
    log_branch = g == 1

    def f_at(e: int) -> float:
        if log_branch:
            return e * math.log(fp.q)
        return q ** (e * float(g - 1))

    value = 0.0
    stack = [(rep, level + 1) for rep in sphere_coset_reps(fp, level, level + 1)]
    while stack:
        rep, lev = stack.pop()
        e = abs_exponent(fp, rep + tau)
        if e is not None and e > -lev:
            value += f_at(e) * q ** (-lev)
        elif lev - level < depth:
            # the q children of the node: rep itself, then rep shifted by each sphere coset
            stack.append((rep, lev + 1))
            stack.extend((rep + c, lev + 1) for c in sphere_coset_reps(fp, lev, lev + 1))
    return value


def kernel_r_oracle(params: OperatorParams, j: int, depth: int | None = None) -> float:
    """Defining shell integral of the averaging kernel, evaluated numerically.

    Shells where the ultrametric inequality collapses |xi + tau| are summed
    in closed form; the sphere |xi| = |tau| (present for j <= 0) is
    enumerated by recursive refinement around -tau.
    """
    fp = params.fp
    g = params.gamma
    q = float(fp.q)
    gf = float(g)
    if depth is None:
        depth = max(60, math.ceil(48.0 / (min(gf, 1.0) * math.log2(fp.q))))
    tau = point(fp, *([Fraction(fp.p) ** j] + [0] * (fp.n - 1)))
    log_branch = g == 1

    i0 = max(0, -j + 1)  # first shell with |xi| > |tau| (and >= 1)
    if log_branch:
        collapsed = (
            (1 - 1 / q)
            * math.log(fp.q)
            * (float(weighted_geometric_tail(fp, 1, i0)) + j * float(geometric_tail(fp, 1, i0)))
        )
    else:
        collapsed = (1 - 1 / q) * (
            float(geometric_tail(fp, 1, i0))
            - q ** (-j * (gf - 1)) * float(geometric_tail(fp, g, i0))
        )
    value = collapsed

    if j <= 0:
        sphere_val = _critical_sphere_integral(params, tau, j, depth)
        sphere_meas = (1 - 1 / q) * q ** (-j)
        if log_branch:
            const_part = (-j) * math.log(fp.q) * sphere_meas
            value += q ** (2 * j) * (sphere_val - const_part)
        else:
            const_part = q ** (-j * (gf - 1)) * sphere_meas
            value += q ** (j * (gf + 1)) * (sphere_val - const_part)
    return value


# ---------------------------------------------------------------------------
# Riesz potentials


def riesz_potential(params: OperatorParams, phi: TestFunction, window_level: int | None = None) -> ExtendedFunction:
    """Riesz potential: convolution with d*|x|**(gamma-1) (d1*ln|x| at gamma = 1).

    The core is computed exactly coset by coset on the window (default: the
    support ball of phi; constancy is preserved by the translation argument),
    and beyond the window the value is exactly d * (integral of phi) times
    the radial kernel, recorded as the analytic tail.

    The kernel is constant on each sphere |c - x| = q**(-j), so a core value
    is sum_j K_j * (sum of phi over that sphere) plus the singular coset's
    ball integral times phi(x).
    """
    fp = params.fp
    g = params.gamma
    if window_level is not None and window_level > phi.support_level:
        raise ValueError("window must contain the support of the input")
    w = phi.support_level if window_level is None else window_level
    k = phi.constancy_level
    d = constants(params).d
    profile = LogProfile() if g == 1 else PowerProfile(g - 1)
    shell_kernels = [profile_coset_integral(fp, profile, -j, k) for j in range(w, k)]
    inner_kernel = profile_coset_integral(fp, profile, None, k)

    fe = ExtendedFunction(phi)

    def core_value(x: Point) -> ComplexValue:
        j0, sums, value = fe.sphere_sums(x)
        terms = [*zip(shell_kernels[j0 - w :], sums), (inner_kernel, BallSum.of(value))]
        return radial_sum(terms) * d

    core = TestFunction.tabulate(fp, w, k, core_value)
    total = phi.integral()
    if g == 1:
        tail = log_tail(CV_ZERO, total * d)
    else:
        tail = power_tail(total * d, g - 1)
    return ExtendedFunction(core, tail)


# ---------------------------------------------------------------------------
# hypersingular operator and its truncation


def _difference_shell_sums(params: OperatorParams, u: ExtendedFunction, j_hi: int) -> Callable[[Point], ComplexValue]:
    """x -> shell sum of |z|**(-gamma-1) * (u(x+z) - u(x)) over shells j <= j_hi (j_hi < constancy_level).

    A finite shell is a sum over its q**(k-j) - q**(k-j-1) constancy-level
    cosets, taken as (sum of u over them) - (their count) * u(x).  The shells
    before the first sphere sum, j0, see u's tail and sum in closed form; a
    power tail must grow strictly slower than |z|**gamma for convergence.

    The shell weights depend on j alone and the far terms on j0 alone: every
    point of u's window has j0 = window, a point beyond it at |x| = q**(-l)
    has j0 = l.  So each is built once, at its first use, for all the points
    the returned function is called on.
    """
    fp = params.fp
    g = params.gamma
    q = fp.q
    k = u.constancy_level
    coset_meas = Fraction(q) ** (-k)

    @cache
    def weight(j: int) -> NumericValue:
        return q_pow(fp, (g + 1) * j) * coset_meas

    @cache
    def far_sum(j_far: int) -> ComplexValue:
        return _closed_far_sum(fp, PowerProfile(-g - 1), u, j_far)

    @cache
    def far_weight(j_far: int) -> NumericValue:
        return (1 - Fraction(1, q)) * geometric_tail(fp, g, -j_far)

    def shell_sum_at(x: Point) -> ComplexValue:
        j0, sums, ux = u.sphere_sums(x)
        total = CV_ZERO
        for j, shell_sum in zip(range(j0, j_hi + 1), sums):
            shell_acc = shell_sum.value - ux * ((q - 1) * q ** (k - j - 1))
            if not shell_acc.is_exact_zero():
                total = total + shell_acc * weight(j)
        j_far = min(j0 - 1, j_hi)
        far = far_sum(j_far)
        if not ux.is_exact_zero():
            far = far - ux * far_weight(j_far)
        return total + far

    return shell_sum_at


def _vladimirov(params: OperatorParams, u, nu: int | None) -> Callable[[Point], ComplexValue]:
    """x -> the difference integral at x, whole (nu None) or truncated to |z| >= q**(-nu)."""
    if nu is not None:
        _check_truncation(nu)
    ue = _as_extended(u)
    k = ue.constancy_level
    diff = _difference_shell_sums(params, ue, k - 1 if nu is None else min(nu, k - 1))
    c = constants(params).c
    return lambda x: diff(x) * c


def vladimirov_hypersingular(params: OperatorParams, u, x: Point) -> ComplexValue:
    """Fractional derivative as the hypersingular difference integral.

    Local constancy of u makes every shell inside the constancy scale vanish
    identically, so the principal-value limit equals the finite truncation
    at that scale; far shells use the exact tail algebra.
    """
    return _vladimirov(params, u, None)(x)


def _check_truncation(nu: int) -> None:
    if not isinstance(nu, int) or nu < 1:
        raise ValueError(f"truncation index must be a positive integer, got {nu}")


def truncated_vladimirov(params: OperatorParams, nu: int, u, x: Point) -> ComplexValue:
    """Difference integral truncated to |z| >= q**(-nu) (nu a positive integer)."""
    return _vladimirov(params, u, nu)(x)


def vladimirov_on_window(
    params: OperatorParams,
    u,
    window_level: int | None = None,
    nu: int | None = None,
) -> list[tuple[Point, ComplexValue]]:
    """Operator values at the cosets of the input window dilated by one level."""
    ue = _as_extended(u)
    w = (ue.window_level - 1) if window_level is None else window_level
    value = _vladimirov(params, ue, nu)
    return [(x, value(x)) for _, x in coset_walk(ue.fp, w, ue.constancy_level)]


# ---------------------------------------------------------------------------
# averaging representation and inversion residuals


def _integral_exactly_zero(phi) -> bool:
    pe = _as_extended(phi)
    return not pe.tail.terms and pe.core.integral().is_exact_zero()


def averaging_apply(params: OperatorParams, nu: int, phi, x: Point) -> ComplexValue:
    """Average of phi against the compactly supported shell kernel.

    Equals the truncated operator applied to the Riesz potential of phi.
    Shells inside the constancy scale contribute phi(x) times the closed
    kernel mass beyond them; only shells coarser than the constancy scale
    need explicit coset sums, so exact recovery of phi(x) emerges whenever
    nu >= constancy_level - 1.
    """
    _check_truncation(nu)
    if params.gamma > 1 and not _integral_exactly_zero(phi):
        raise HypothesisViolationError(
            "orders above the critical exponent require a zero-mean input"
        )
    pe = _as_extended(phi)
    fp = params.fp
    k = pe.constancy_level
    cd = constants(params).cd
    q_nu = Fraction(fp.q) ** nu
    coset_meas = Fraction(fp.q) ** (-k)  # every shell below has nu + j < k

    total = CV_ZERO
    j_star = max(1, k - nu)
    for j in range(1, j_star):
        inner = CV_ZERO
        for rep in sphere_coset_reps(fp, nu + j, k):
            v = pe.evaluate(x - rep)
            if v.is_exact_zero():
                continue
            inner = inner + v
        if not inner.is_exact_zero():
            total = total + inner * (cd * kernel_r(params, j) * coset_meas * q_nu)
    total = total + pe.evaluate(x) * kernel_normalization_tail(params, j_star)
    return total


def _decay_gate(params: OperatorParams, phi) -> None:
    pe = _as_extended(phi)
    if params.gamma == 1 and not pe.has_strong_decay:
        raise HypothesisViolationError(
            "the log-kernel inversion needs decay O(|x|**-beta) with beta > 1"
        )


def inversion_residual(params: OperatorParams, p, phi, nu: int) -> float:
    """L^p norm of (truncated operator of the Riesz potential of phi) - phi.

    The residual is supported in the support of phi enlarged to the scale
    q**(-nu-1) (the averaging kernel is compactly supported), so the norm is
    a finite coset sum.  It is exactly zero once nu >= constancy_level - 1.
    """
    p = _lp_exponent(p)
    _check_truncation(nu)
    _decay_gate(params, phi)
    g = params.gamma
    if g < 1 and p >= 1.0 / float(g):
        warnings.warn(
            f"p = {p} is outside the proven range [1, {1.0 / float(g):g}) for order {g}",
            HypothesisBoundaryWarning,
            stacklevel=2,
        )
    elif g == 1 and p != 1.0:
        warnings.warn(
            f"the log-kernel inversion is proven for p = 1 only; computing p = {p}",
            HypothesisBoundaryWarning,
            stacklevel=2,
        )
    pe = _as_extended(phi)
    w = min(pe.window_level, nu + 1)
    residual = lp_window_sum(
        params.fp, w, pe.constancy_level, p, lambda x: averaging_apply(params, nu, phi, x) - pe.evaluate(x)
    )
    return residual ** (1.0 / p)


def minkowski_bound(params: OperatorParams, p, phi: TestFunction, nu: int) -> float:
    """Integral of R1(tau) times the L^p modulus of continuity at sigma*tau.

    Upper bound for the inversion residual; only shells coarser than the
    constancy scale contribute because the modulus vanishes inside it.
    """
    p = _lp_exponent(p)
    _check_truncation(nu)
    fp = params.fp
    k = phi.constancy_level
    coset_meas = float(Fraction(fp.q) ** (nu - k))  # every shell below has j < k - nu
    total = 0.0
    for j in range(1, k - nu):
        r1 = float(kernel_r1(params, j))
        inner = 0.0
        for rep in sphere_coset_reps(fp, j, k - nu):
            h = rep.scaled_by_prime_power(fp, nu)
            inner += modulus_of_continuity(phi, h, p) * coset_meas
        total += r1 * inner
    return total
