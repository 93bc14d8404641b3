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
from functools import cache, lru_cache, partial
from typing import Callable

from .errors import (
    HypothesisBoundaryWarning,
    HypothesisViolationError,
)
from .field import (
    Digits,
    FieldParams,
    Point,
    _window_locations,
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
    _check_field,
    _lp_exponent,
    log_tail,
    lp_numerator_sum,
    lp_window_sum,
    modulus_of_continuity,
    power_tail,
    radial_sum,
)
from .integrate import LogProfile, PowerProfile, _check_oracle_work, _closed_far_sum, profile_coset_integral
from .numerics import (
    CV_ZERO,
    NV_ZERO,
    ComplexValue,
    ExactScalar,
    IntegerSum,
    NumericValue,
    as_fraction,
    geometric_tail,
    mixed_sum,
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
    enumerated by recursive refinement around -tau.  The refinement visits
    q nodes per level, each with coordinates of up to (|j| + depth) * log2(q)
    bits; that work is predicted, and refused above the oracle limit, before
    the refinement starts.
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
        # the floats first: a far-out j overflows here, not after a refinement whose cost grows with j**2
        sphere_meas = (1 - 1 / q) * q ** (-j)
        if log_branch:
            scale, const_part = q ** (2 * j), (-j) * math.log(fp.q) * sphere_meas
        else:
            scale, const_part = q ** (j * (gf + 1)), q ** (-j * (gf - 1)) * sphere_meas
        _check_oracle_work(fp.q * depth * (depth - j) * math.log2(fp.q), f"the kernel oracle's refinement to depth {depth}")
        value += scale * (_critical_sphere_integral(params, tau, j, depth) - const_part)
    return value


# ---------------------------------------------------------------------------
# Riesz potentials


@lru_cache(maxsize=1024)
def _riesz_kernels(params: OperatorParams, w: int, k: int) -> tuple[NumericValue, ...]:
    """The Riesz kernel integrated over a level-k coset on each sphere j = w .. k - 1, then over the singular coset."""
    fp = params.fp
    profile = LogProfile() if params.gamma == 1 else PowerProfile(params.gamma - 1)
    shells = (profile_coset_integral(fp, profile, -j, k) for j in range(w, k))
    return (*shells, profile_coset_integral(fp, profile, None, k))


def _riesz_weights(params: OperatorParams, w: int, k: int) -> tuple[NumericValue, ...]:
    """The Riesz kernels times d, for the lane's gate cache: rational at gamma = 1, where each pure ln(q) kernel meets the 1/ln(q) of d."""
    d = constants(params).d
    return tuple(kernel * d for kernel in _riesz_kernels(params, w, k))


def riesz_potential(params: OperatorParams, phi: TestFunction, window_level: int | None = None) -> ExtendedFunction:
    """Riesz potential: convolution with d*|x|**(gamma-1) (d1*ln|x| at gamma = 1).

    The core is computed exactly coset by coset on the window (default: the
    support ball of phi; constancy is preserved by the translation argument),
    and beyond the window the value is exactly d * (integral of phi) times
    the radial kernel, recorded as the analytic tail.

    The kernel is constant on each sphere |c - x| = q**(-j), so a core value
    is sum_j K_j * (sum of phi over that sphere) plus the singular coset's
    ball integral times phi(x).  Each window coset is located from its
    address, with no Point.  A rational phi whose kernels times d are exact
    rationals sums every point of its support at once, in one pass of
    ``mixed_sum``'s exact lane down phi's ball pyramid
    (``TestFunction._lane_numerators``).  Against float kernels (an
    irrational q**gamma) a rational phi sums each point on the mixed lane
    of the kernels alone, reading its spheres' numerators and their counts
    of nonzero entries (``TestFunction._nonzero_levels``), so that a sphere
    whose entries cancel keeps the ring's float 0.0; d then multiplies the
    sum, as it multiplies the ring's, since folding a float d into the
    kernels would round them apart.  Any other phi sums on the ring.
    Beyond the support |x - y| = |x| for every y in it, so the value there
    depends on |x| alone and is summed once per exponent, on phi's path:
    the lanes span the window's levels.
    """
    fp = params.fp
    g = params.gamma
    _check_field(fp, phi, "the operator")
    if window_level is not None and window_level > phi.support_level:
        raise ValueError("window must contain the support of the input")
    s = phi.support_level
    w = s if window_level is None else window_level
    k = phi.constancy_level
    d = constants(params).d
    *shell_kernels, inner_kernel = _riesz_kernels(params, w, k)

    fe = ExtendedFunction(phi)
    view, levels = phi._integer_view, range(w, k)
    lane = mixed_sum(_riesz_weights, (params, w, k), view)
    pairs = phi._lane_numerators(lane) if isinstance(lane, IntegerSum) else None
    mixed = mixed_sum(_riesz_kernels, (params, w, k), view) if pairs is None else None

    def core_value(addr: Digits | None, e: int | None) -> ComplexValue:
        if pairs is not None:
            return lane.value(pairs[addr] if addr is not None else lane.numerators(phi._prefix_spheres(None, e, levels)))
        if mixed is not None:
            counts = phi._prefix_spheres(addr, e, levels, phi._nonzero_levels)
            return mixed(phi._prefix_spheres(addr, e, levels), counts) * d
        j0, sums, value = fe._sphere_sums_at(addr, e)
        terms = [*zip(shell_kernels[j0 - w :], sums), (inner_kernel, BallSum.of(value))]
        return radial_sum(terms) * d

    beyond = cache(partial(core_value, None))
    core = TestFunction(fp, w, k, {x: core_value(addr, e) if addr is not None else beyond(e) for x, addr, e in _window_locations(fp, w, s, k)})
    total = phi.integral()
    if g == 1:
        tail = log_tail(CV_ZERO, total * d)
    else:
        tail = power_tail(total * d, g - 1)
    return ExtendedFunction(core, tail)


# ---------------------------------------------------------------------------
# hypersingular operator and its truncation


def _shell_weight(params: OperatorParams, k: int, j: int) -> NumericValue:
    """|z|**(-gamma-1) on the shell |z| = q**(-j), times the measure of a level-k coset."""
    return q_pow(params.fp, (params.gamma + 1) * j) * Fraction(params.fp.q) ** (-k)


def _far_weight(params: OperatorParams, j_far: int) -> NumericValue:
    """Measure of the shells j <= j_far against |z|**(-gamma-1)."""
    return (1 - Fraction(1, params.fp.q)) * geometric_tail(params.fp, params.gamma, -j_far)


def _shell_weights(params: OperatorParams, k: int, lo: int, hi: int) -> list[NumericValue]:
    """The weights of the spheres j = lo .. k - 1, zero past the truncation hi, then a zero for u(x): ``_prefix_differences``' last pair."""
    return [*(_shell_weight(params, k, j) if j <= hi else NV_ZERO for j in range(lo, k)), NV_ZERO]


def _engine_weights(params: OperatorParams, k: int, lo: int, hi: int) -> list[NumericValue]:
    """The weights of the spheres j = lo .. k - 1 (zero past the truncation hi), then that of u(x).

    u(x) enters shell j once per coset of the shell, (q - 1) * q**(k - j - 1)
    times, and the far shells j < lo against their measure, each with the
    minus sign of the difference u(x + z) - u(x).
    """
    q = params.fp.q
    *shells, _ = _shell_weights(params, k, lo, hi)
    counted = sum((w * ((q - 1) * q ** (k - j - 1)) for j, w in zip(range(lo, k), shells)), NV_ZERO)
    return [*shells, -counted - _far_weight(params, min(lo - 1, hi))]


def _difference_shell_sums(
    params: OperatorParams, u: ExtendedFunction, j_hi: int, c: NumericValue
) -> Callable[[Point, Digits | None, int | None], ComplexValue]:
    """(x, d, e) -> c times the shell sum of |z|**(-gamma-1) * (u(x+z) - u(x)) over shells j <= j_hi (j_hi < constancy_level).

    (d, e) is where u's core located x, and the engine reads it alone.
    A finite shell is a sum over its q**(k-j) - q**(k-j-1) constancy-level
    cosets, taken as (sum of u over them) - (their count) * u(x).  The shells
    before the first sphere sum, j0, see u's tail and sum in closed form; a
    power tail must grow strictly slower than |z|**gamma for convergence.

    The shell weights depend on j alone and the far terms on j0 alone: every
    point of u's window has j0 = window, a point beyond it at |x| = q**(-l)
    has j0 = l.  The weights and far sums are built once per route and
    looked up once per call.  Beyond the window the value depends on e
    alone (the whole core's ball sum and u's tail at e), so it is summed
    once per exponent.

    On a rational core whose weights, far sum and c are exact rationals,
    the shells sum in integers on ``mixed_sum``'s ``IntegerSum``, u(x)'s
    share of every shell, far shells included, folded into one weight, with
    c folded into every weight and c times the far sum added
    (``IntegerSum.folded``): the build runs one pass of it over the core
    (``TestFunction._lane_numerators``) and holds a numerator pair per point.
    Every other core with a view sums each shell's difference on
    ``mixed_sum``, then adds the far part, as the ring loop below does: a
    float term sees u(x)'s share of its own shell.  On an all-float core's
    float view the difference sums are float pairs, made by the ring loop's
    float operations in its order, and the lane adds their terms in shell
    order.  Off the integer lane, c multiplies the sum last.
    """
    fp = params.fp
    g = params.gamma
    q = fp.q
    k = u.constancy_level
    core, window = u.core, u.window_level

    shell_weight = cache(partial(_shell_weight, params, k))
    far_weight = cache(partial(_far_weight, params))

    @cache
    def far_sum(j_far: int) -> ComplexValue:
        return _closed_far_sum(fp, PowerProfile(-g - 1), u, j_far)

    def far_part(ux: ComplexValue, j_far: int) -> ComplexValue:
        far = far_sum(j_far)
        return far if ux.is_exact_zero() else far - ux * far_weight(j_far)

    def ring_sum(d: Digits | None, e: int | None) -> ComplexValue:
        j0, sums, ux = u._sphere_sums_at(d, e)
        total = CV_ZERO
        for j, shell_sum in zip(range(j0, j_hi + 1), sums):
            shell_acc = shell_sum.value - ux * ((q - 1) * q ** (k - j - 1))
            if not shell_acc.is_exact_zero():
                total = total + shell_acc * shell_weight(j)
        return (total + far_part(ux, min(j0 - 1, j_hi))) * c

    @cache
    def beyond(e: int) -> ComplexValue:
        return ring_sum(None, e)

    j_far = min(window - 1, j_hi)
    far = None if core._integer_view is None else far_sum(j_far)
    rational_far = far is not None and all(part.exact is not None and part.exact.is_rational for part in (far.re, far.im))
    lane = mixed_sum(_engine_weights, (params, k, window, j_hi), core._integer_view) if rational_far else None
    folded = lane.folded(c, far) if isinstance(lane, IntegerSum) else None
    pairs = None if folded is None else core._lane_numerators(folded)
    view = core._integer_view if core._integer_view is not None else core._float_view
    mixed = None if folded is not None else mixed_sum(_shell_weights, (params, k, window, j_hi), view)

    def shell_sum_at(x: Point, d: Digits | None, e: int | None) -> ComplexValue:
        if d is None:
            return beyond(e)
        if pairs is not None:
            return folded.value(pairs[d])
        if mixed is not None:
            return (mixed(core._prefix_differences(d, None, range(window, k))) + far_part(core.values[d], j_far)) * c
        return ring_sum(d, e)

    return shell_sum_at


def _vladimirov_at(params: OperatorParams, nu: int | None, u) -> Callable[[Point, Digits | None, int | None], ComplexValue]:
    """(x, d, e) -> the difference integral at x, whole (nu None) or truncated to |z| >= q**(-nu); (d, e) is where u's core located x."""
    if nu is not None:
        _check_truncation(nu)
    ue = _as_extended(u)
    _check_field(params.fp, ue, "the operator")
    k = ue.constancy_level
    return _difference_shell_sums(params, ue, k - 1 if nu is None else min(nu, k - 1), constants(params).c)


def _held_route(build, params, nu: int | None, f, x: Point) -> ComplexValue:
    """The located route ``build(params, nu, f)`` at x, held on the function f: a per-point caller builds each route once per function.

    The one holder of route state and the one per-point locate: f's core's
    ``_locate``, taken at build time.  The key (build, params, nu) holds no
    float: params, an ``OperatorParams`` or a ``multidim.DimensionBridge``,
    is frozen with a Fraction order and nu is an int or None.  Each builder
    keys its own routes, so an averaging route never serves a truncated
    call.  The truncation check runs on every call, and a build that raises
    holds nothing, so every call raises again.  Window loops build their
    route per call instead: held on a transient function, such as a Riesz
    potential, it would make a cycle that only the cyclic GC frees.
    """
    if nu is not None:
        _check_truncation(nu)
    routes = getattr(f, "_routes", None)
    if routes is None:  # not a function: the build raises its TypeError
        return build(params, nu, f)
    key = (build, params, nu)
    if key not in routes:
        at, locate = build(params, nu, f), _as_extended(f).core._locate
        routes[key] = lambda x: at(x, *locate(x))
    return routes[key](x)


def vladimirov_hypersingular(params: OperatorParams, u, x: Point) -> ComplexValue:
    """Fractional derivative as the hypersingular difference integral.

    Local constancy of u makes every shell inside the constancy scale vanish
    identically, so the principal-value limit equals the finite truncation
    at that scale; far shells use the exact tail algebra.
    """
    return _held_route(_vladimirov_at, params, None, u, x)


def _check_truncation(nu: int) -> None:
    if not isinstance(nu, int) or isinstance(nu, bool) or nu < 1:
        raise ValueError(f"truncation index must be a positive integer, got {nu}")


def truncated_vladimirov(params: OperatorParams, nu: int, u, x: Point) -> ComplexValue:
    """Difference integral truncated to |z| >= q**(-nu) (nu a positive integer)."""
    return _held_route(_vladimirov_at, params, nu, u, x)


def vladimirov_on_window(
    params: OperatorParams,
    u,
    window_level: int | None = None,
    nu: int | None = None,
) -> list[tuple[Point, ComplexValue]]:
    """Operator values at the cosets of the input window dilated by one level.

    Each coset is located from its address; the only Points built are the
    ones returned.  On a rational core under exact weights, c and far sum,
    the cosets of the core read one pass of the integer lane, and the
    cosets beyond it share one value per |x| (see ``_difference_shell_sums``).
    """
    ue = _as_extended(u)
    fp, k = ue.fp, ue.constancy_level
    w = (ue.window_level - 1) if window_level is None else window_level
    at = _vladimirov_at(params, nu, ue)
    located = _window_locations(fp, w, ue.window_level, k)
    return [(x, at(x, d, e)) for (_, x), (_, d, e) in zip(coset_walk(fp, w, k), located)]


# ---------------------------------------------------------------------------
# averaging representation and inversion residuals


@lru_cache(maxsize=1024)
def _averaging_weights(params: OperatorParams, nu: int, k: int) -> tuple[NumericValue, ...]:
    """Weights of the averaging spheres |z - x| = q**(-nu-j), j = 1 .. j_star - 1, for a table constant at level k.

    The last weight, that of f(x), is the kernel mass of the levels from j_star on.
    """
    j_star = max(1, k - nu)
    q = Fraction(params.fp.q)
    cd = constants(params).cd
    spheres = (cd * kernel_r(params, j) * q ** (-k) * q**nu for j in range(1, j_star))
    return (*spheres, kernel_normalization_tail(params, j_star))


def _inversion_weights(params: OperatorParams, nu: int, k: int) -> tuple[NumericValue, ...]:
    """The averaging weights with f(x)'s less one: average - f(x) at a point as one weighted sum."""
    *spheres, own = _averaging_weights(params, nu, k)
    return (*spheres, own - 1)


def _averaging_levels(nu: int, k: int) -> range:
    """The levels nu + j of the averaging spheres j = 1 .. j_star - 1 that need an explicit sum; every shell below has nu + j < k."""
    return range(nu + 1, nu + max(1, k - nu))


def _sphere_walk(fp: FieldParams, levels, k: int, weights, term: Callable[[Point], ComplexValue]) -> ComplexValue:
    """Sum over the spheres at ``levels`` of weight times the sum of term(rep) over the sphere's level-k cosets, exact zeros skipped as they absorb."""
    total = CV_ZERO
    for level, weight in zip(levels, weights):
        inner = sum((v for v in map(term, sphere_coset_reps(fp, level, k)) if not v.is_exact_zero()), CV_ZERO)
        if not inner.is_exact_zero():
            total = total + inner * weight
    return total


def _averaging(params: OperatorParams, nu: int, phi) -> Callable[[Point, Digits | None, int | None], ComplexValue]:
    """(x, d, e) -> averaging_apply at x; (d, e) is where phi's core located x.

    A point of a rational core that sees no tail sums its spheres, each a
    ball less a ball of ``TestFunction._pair_levels``, on the ``mixed_sum``
    lane; every other point walks them around x, in its own order.
    ``averaging_apply`` holds this route on phi (``_held_route``);
    ``inversion_residual`` builds it once per call.  The field and zero-mean
    checks run in the build, so a refused input holds nothing.
    """
    _check_truncation(nu)
    pe = _as_extended(phi)
    _check_field(params.fp, pe, "the operator")
    if params.gamma > 1 and (pe.tail.terms or not pe.core.integral().is_exact_zero()):
        raise HypothesisViolationError(
            "orders above the critical exponent require a zero-mean input"
        )
    fp = params.fp
    core, window, k = pe.core, pe.window_level, pe.constancy_level
    levels = _averaging_levels(nu, k)
    weights = _averaging_weights(params, nu, k)
    weighted = mixed_sum(_averaging_weights, (params, nu, k), core._integer_view)

    def average_at(x: Point, d: Digits | None, e: int | None) -> ComplexValue:
        if weighted is not None and (not pe.tail.terms or d is not None and nu + 1 >= window):
            return weighted(core._prefix_spheres(d, e, levels))
        total = _sphere_walk(fp, levels, k, weights, lambda rep: pe.evaluate(x - rep))
        return total + (core.values[d] if d is not None else pe.tail_value_at_exponent(e)) * weights[-1]

    return average_at


def averaging_apply(params: OperatorParams, nu: int, phi, x: Point) -> ComplexValue:
    """Average of phi against the compactly supported shell kernel.

    Equals the truncated operator applied to the Riesz potential of phi.
    Shells inside the constancy scale contribute phi(x) times the closed
    kernel mass beyond them; only shells coarser than the constancy scale
    need explicit coset sums, so exact recovery of phi(x) emerges whenever
    nu >= constancy_level - 1.
    """
    return _held_route(_averaging, params, nu, phi, x)


def inversion_residual(params: OperatorParams, p, phi, nu: int) -> float:
    """L^p norm of (truncated operator of the Riesz potential of phi) - phi.

    The residual is supported in the support of phi enlarged to the scale
    q**(-nu-1) (the averaging kernel is compactly supported), so the norm is
    a finite coset sum.  It is exactly zero once nu >= constancy_level - 1.

    Every coset is located from its digits.  A rational phi without a tail,
    under exact averaging weights, sums average - phi on one integer lane,
    -1 folded into the weight of phi(x), in one pass over phi's support
    (``TestFunction._lane_numerators``): no Point.  The powers add in
    ``coset_walk`` order, as on every other input.
    """
    p = _lp_exponent(p)
    average = _averaging(params, nu, phi)
    pe = _as_extended(phi)
    g = params.gamma
    if g == 1 and not pe.has_strong_decay:
        raise HypothesisViolationError(
            "the log-kernel inversion needs decay O(|x|**-beta) with beta > 1"
        )
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
    fp, core, k = params.fp, pe.core, pe.constancy_level
    w = min(pe.window_level, nu + 1)
    located = _window_locations(fp, w, core.support_level, k)
    lane = None if pe.tail.terms else mixed_sum(_inversion_weights, (params, nu, k), core._integer_view)
    if isinstance(lane, IntegerSum):
        levels, pairs = _averaging_levels(nu, k), core._lane_numerators(lane)
        diffs = [pairs[d] if d is not None else lane.numerators(core._prefix_spheres(d, e, levels)) for _, d, e in located]
        return lp_numerator_sum(fp, k, p, lane.denominator, diffs) ** (1.0 / p)
    diffs = [average(x, d, e) - (core.values[d] if d is not None else pe.tail_value_at_exponent(e))
             for (_, x), (_, d, e) in zip(coset_walk(fp, w, k), located)]
    return lp_window_sum(fp, k, p, diffs) ** (1.0 / p)


def minkowski_bound(params: OperatorParams, p, phi: TestFunction, nu: int) -> float:
    """Integral of R1(tau) times the L^p modulus of continuity at sigma*tau.

    Upper bound for the inversion residual; only shells coarser than the
    constancy scale contribute because the modulus vanishes inside it.
    """
    p = _lp_exponent(p)
    _check_truncation(nu)
    fp = params.fp
    _check_field(fp, phi, "the operator")
    k = phi.constancy_level
    total = 0.0
    for j in range(1, k - nu):
        coset_meas = float(Fraction(fp.q) ** (nu - k))  # of a level k - nu coset; in the loop, so a far-out nu with no shell builds no float
        r1 = float(kernel_r1(params, j))
        inner = 0.0
        for rep in sphere_coset_reps(fp, j, k - nu):
            h = rep.scaled_by_prime_power(fp, nu)
            inner += modulus_of_continuity(phi, h, p) * coset_meas
        total += r1 * inner
    return total
