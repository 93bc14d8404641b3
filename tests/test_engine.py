"""Differential tests of the ball-sum engine against the per-pair coset loops.

``riesz_potential``, ``_difference_shell_sums`` and ``integrate_product`` sum
each table over whole balls and spheres (``ExtendedFunction.sphere_sums``).
The oracles below are the direct loops over every (output, source) coset
pair that the engine replaced; on exact inputs both must give the same exact
values and the same exact-versus-float decision for every part of every
value.  ``fourier_transform`` is checked against the direct character sum
it replaced, and ``multiplier_vladimirov`` against its former double loop
over (output, frequency) pairs.  ``inversion_residual``, which builds one
averaging closure for its window, is checked bit for bit against one
``averaging_apply`` per point.  ``taibleson_direct`` and ``averaging_apply``,
which read each sphere of a rational table as a difference of two prefix
ball sums and sum on ``numerics.mixed_sum``, are checked bit for bit
against the coset walks they replaced.  On rational tables the engine
routes sum in integers (``numerics.mixed_sum``'s exact lane, an
``IntegerSum``, or its mixed lane against partly float weights or a far
sum that is not an exact rational; the Riesz core's mixed lane skips a
float-kernel sphere by its count of nonzero entries, checked bit for bit
against the ring with the integer view masked, beyond the support too), and the hypersingular engine sums an
all-float core on ``mixed_sum`` through its float view, bit for bit the
ring loop.  A table with a view is summed from its one pyramid, so no route
builds its ``BallSum`` pyramid.  A rational window sums in one pass of its integer lane down
the table's ball pyramid, checked at every address against the lane on
that point's own spheres: the hypersingular window with c and the far sum
folded into its integer lane, the Riesz core and the inversion residual
are checked against the coset walks, and build no Point but the ones
they return;
the encoding's round trip, the exactness gate's refusals and guards on which
path runs are checked here too, as is the holding of each per-point route
on its function: one build per (function, params, nu), and none pickled.
"""

import ast
import pickle
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from test_value_fingerprint import _part
from ultrafrac import field, fourier, functions, integrate, multidim, operators
from ultrafrac.errors import (
    HypothesisBoundaryWarning,
    HypothesisViolationError,
    UltrafracError,
    UnsupportedIntegrandError,
)
from ultrafrac.field import (
    FieldParams,
    SphereSpec,
    abs_exponent,
    coset_walk,
    digits_to_point,
    enumerate_digits,
    haar_measure,
    point,
    sphere_coset_reps,
    zero_point,
)
from ultrafrac.fourier import fourier_transform, fractional_part, multiplier_vladimirov, phase_value
from ultrafrac.functions import (
    ExtendedFunction,
    LogTail,
    PowerTail,
    TestFunction,
    ZeroTail,
    _as_extended,
    lizorkin_project,
    log_tail,
    lp_window_sum,
    power_tail,
)
from ultrafrac.integrate import (
    LogProfile,
    PowerProfile,
    Region,
    ShiftedProfile,
    _closed_far_sum,
    ball_profile_integral,
    integrate_product,
    profile_coset_integral,
    profile_value,
)
from ultrafrac.multidim import DimensionBridge, taibleson_direct, taibleson_via_extension
from ultrafrac.numerics import (
    CV_ZERO,
    NV_ONE,
    ComplexValue,
    ExactScalar,
    IntegerSum,
    NumericValue,
    geometric_tail,
    integer_view,
    mixed_sum,
    mixed_weights,
    q_pow,
)
from ultrafrac.operators import (
    OperatorParams,
    _difference_shell_sums,
    averaging_apply,
    constants,
    inversion_residual,
    kernel_normalization_tail,
    kernel_r,
    minkowski_bound,
    riesz_potential,
    truncated_vladimirov,
    vladimirov_hypersingular,
    vladimirov_on_window,
)

# ---------------------------------------------------------------------------
# oracles: the per-pair coset loops


def riesz_core_oracle(params, phi, window_level=None):
    """Core table of the Riesz potential, summed over every (output, source) pair."""
    fp = params.fp
    g = params.gamma
    w = phi.support_level if window_level is None else window_level
    k = phi.constancy_level
    d = constants(params).d
    profile = LogProfile() if g == 1 else PowerProfile(g - 1)
    sources = [(pt, v) for _, pt, v in phi.items() if not v.is_exact_zero()]
    table = {}
    for d_out in enumerate_digits(fp, w, k):
        x = digits_to_point(fp, d_out, w)
        acc = CV_ZERO
        for c_pt, v in sources:
            rel_e = abs_exponent(fp, x - c_pt)
            acc = acc + v * profile_coset_integral(fp, profile, rel_e, k)
        table[d_out] = acc * d
    return table


def difference_shell_sum_oracle(params, u, x, j_hi):
    """Shell sum of the hypersingular difference integral, coset by coset."""
    fp = params.fp
    g = params.gamma
    ux = u.evaluate(x)
    k = u.constancy_level
    window = u.window_level
    e_x = abs_exponent(fp, x)
    l_x = None if e_x is None else -e_x
    if l_x is not None and l_x < window:
        j_t = l_x
        finite_js = [l_x] if l_x <= j_hi else []
    else:
        j_t = window
        finite_js = list(range(j_t, j_hi + 1))
    total = CV_ZERO
    for j in finite_js:
        res = max(k, j + 1)
        coset_meas = Fraction(fp.q) ** (-res)
        shell_acc = CV_ZERO
        for rep in sphere_coset_reps(fp, j, res):
            dv = u.evaluate(x + rep) - ux
            if dv.is_exact_zero():
                continue
            shell_acc = shell_acc + dv
        if not shell_acc.is_exact_zero():
            total = total + shell_acc * (q_pow(fp, (g + 1) * j) * coset_meas)
    j_far = min(j_t - 1, j_hi)
    far = _closed_far_sum(fp, PowerProfile(-g - 1), u, j_far)
    return total + (far - ux * ((1 - Fraction(1, fp.q)) * geometric_tail(fp, g, -j_far)))


def taibleson_direct_oracle(bridge, f, x):
    """taibleson_direct with every shell walked coset by coset."""
    base = bridge.base
    ext = bridge.ext
    n = bridge.n
    alpha = bridge.alpha
    c_dir = (1 - q_pow(base, alpha)) / (1 - q_pow(base, -alpha - n))

    fx = f.evaluate(x)
    k = f.constancy_level
    window = f.support_level
    e_x = abs_exponent(ext, x)
    l_x = None if e_x is None else -e_x

    if l_x is not None and l_x < window:
        j_t = l_x
        finite_js = [l_x] if l_x <= k - 1 else []
    else:
        j_t = window
        finite_js = list(range(j_t, k))

    coset_meas = Fraction(bridge.p) ** (-k * n)  # every shell below has j < k
    total = CV_ZERO
    for j in finite_js:
        kernel = q_pow(base, (n + alpha) * j)
        shell_acc = CV_ZERO
        for rep in sphere_coset_reps(ext, j, k):
            dv = f.evaluate(x + rep) - fx
            if dv.is_exact_zero():
                continue
            shell_acc = shell_acc + dv
        if not shell_acc.is_exact_zero():
            total = total + shell_acc * (kernel * coset_meas)
    # far shells: f vanishes there, the difference is -f(x) on every shell
    if not fx.is_exact_zero():
        one_minus = 1 - Fraction(bridge.p) ** (-n)
        far = geometric_tail(base, alpha, -(j_t - 1))
        total = total - fx * (one_minus * far)
    return total * c_dir


def averaging_oracle(params, nu, phi, x):
    """averaging_apply with every sphere walked coset by coset."""
    pe = _as_extended(phi)
    if params.gamma > 1 and (pe.tail.terms or not pe.core.integral().is_exact_zero()):
        raise HypothesisViolationError("orders above the critical exponent require a zero-mean input")
    fp = params.fp
    k = pe.constancy_level
    cd = constants(params).cd
    q_nu = Fraction(fp.q) ** nu
    coset_meas = Fraction(fp.q) ** (-k)  # every shell below has nu + j < k
    j_star = max(1, k - nu)
    total = CV_ZERO
    for j in range(1, j_star):
        inner = CV_ZERO
        for rep in sphere_coset_reps(fp, nu + j, k):
            v = pe.evaluate(x - rep)
            if v.is_exact_zero():
                continue
            inner = inner + v
        if not inner.is_exact_zero():
            total = total + inner * (cd * kernel_r(params, j) * coset_meas * q_nu)
    return total + pe.evaluate(x) * kernel_normalization_tail(params, j_star)


def integrate_product_oracle(profile, f, region=None):
    """integrate_product as a coset loop: a shift translates the table to the origin first."""
    fe = _as_extended(f)
    fp = fe.fp
    region = Region.everything() if region is None else region
    if isinstance(profile, ShiftedProfile):
        if region.lo is not None or region.hi is not None:
            raise UnsupportedIntegrandError("shifted profiles are only supported over the whole field")
        return integrate_product_oracle(profile.base, fe.translated(-profile.shift), region)
    window = fe.window_level
    k = fe.constancy_level
    total = CV_ZERO
    tail_hi = window - 1 if region.hi is None else min(window - 1, region.hi)
    if region.lo is None:
        total = total + _closed_far_sum(fp, profile, fe, tail_hi)
    else:
        for j in range(region.lo, tail_hi + 1):
            val = fe.tail_value_at_exponent(-j)
            if not val.is_exact_zero():
                total = total + val * (profile_value(fp, profile, -j) * haar_measure(fp, SphereSpec(zero_point(fp), j)))
    w_lo = window if region.lo is None else max(window, region.lo)
    mid_hi = k - 1 if region.hi is None else min(k - 1, region.hi)
    coset_meas = Fraction(fp.q) ** (-k)
    for j in range(w_lo, mid_hi + 1):
        pv = profile_value(fp, profile, -j)
        for rep in sphere_coset_reps(fp, j, k):
            v = fe.core.evaluate(rep)
            if not v.is_exact_zero():
                total = total + v * (pv * coset_meas)
    deep_lo = max(w_lo, k)
    v0 = fe.core.evaluate(zero_point(fp))
    if not v0.is_exact_zero():
        if region.hi is None:
            total = total + v0 * ball_profile_integral(fp, profile, -deep_lo)
        else:
            for j in range(deep_lo, region.hi + 1):
                total = total + v0 * (profile_value(fp, profile, -j) * haar_measure(fp, SphereSpec(zero_point(fp), j)))
    return total


def pairing_arg(fp, x, xi):
    """Exact phase of the dual pairing sum_j x_j * xi_j, in [0, 1)."""
    total = Fraction(0)
    for a, b in zip(x.coords, xi.coords, strict=True):
        total += fractional_part(a * b)
    return fractional_part(total)


def fourier_transform_oracle(f, inverse=False):
    """fourier_transform as the direct character sum over every (frequency, coset) pair."""
    fp = f.fp
    m = -f.support_level
    k = f.constancy_level
    sign = -1 if inverse else 1
    scale = Fraction(fp.q) ** (-k)
    inputs = [(pt, v) for _, pt, v in f.items()]
    table = {}
    for d_out in enumerate_digits(fp, -k, m):
        xi = digits_to_point(fp, d_out, -k)
        acc = ComplexValue.zero()
        for c_pt, v in inputs:
            if v.is_exact_zero():
                continue
            acc = acc + v * phase_value(fractional_part(sign * pairing_arg(fp, c_pt, xi)))
        table[d_out] = acc * scale
    return TestFunction(fp, -k, m, table)


def multiplier_oracle(fp, exponent, f, window_level=None):
    """multiplier_vladimirov as a double loop over (output coset, nonzero frequency coset)."""
    exponent = Fraction(exponent)
    ft = fourier_transform_oracle(f)
    k_hat = ft.constancy_level
    window = (f.support_level - 1) if window_level is None else window_level
    scale = Fraction(fp.q) ** (-k_hat)
    zero_addr = tuple((0,) * (k_hat - ft.support_level) for _ in range(fp.n))
    hat_at_zero = ft.values[zero_addr]
    nonzero = [(pt, abs_exponent(fp, pt), v) for d, pt, v in ft.items() if d != zero_addr]
    out = []
    for d in enumerate_digits(fp, window, f.constancy_level):
        x = digits_to_point(fp, d, window)
        e_x = abs_exponent(fp, x)
        acc = CV_ZERO
        if e_x is None or e_x <= k_hat:
            for c_pt, e_c, v in nonzero:
                if not v.is_exact_zero():
                    phase = phase_value(fractional_part(-pairing_arg(fp, x, c_pt)))
                    acc = acc + v * phase * q_pow(fp, exponent * e_c) * scale
        j_start = k_hat if e_x is None else max(k_hat, e_x)
        s = (1 - Fraction(1, fp.q)) * geometric_tail(fp, exponent + 1, j_start)
        if e_x is not None and e_x - 1 >= k_hat:
            s = s - q_pow(fp, -exponent * (e_x - 1)) * Fraction(fp.q) ** (-e_x)
        out.append((x, (acc + hat_at_zero * s).to_complex()))
    return out


# ---------------------------------------------------------------------------
# comparison


def l1_scale(f: TestFunction) -> float:
    meas = float(Fraction(f.fp.q) ** (-f.constancy_level))
    return max(1.0, sum(abs(v) for v in f.values.values()) * meas)


def assert_same(got: ComplexValue, want: ComplexValue, slack: float) -> None:
    """Same path for each part; exact parts equal, float parts within 1e-12 relative plus slack."""
    for a, b in ((got.re, want.re), (got.im, want.im)):
        assert a.is_exact == b.is_exact, (got, want)
        if a.is_exact:
            assert a.exact == b.exact, (got, want)
        else:
            assert abs(float(a) - float(b)) <= 1e-12 * abs(float(b)) + slack, (got, want)


# ---------------------------------------------------------------------------
# inputs

# (p, n, largest depth): tables of at most 27 cosets keep the oracles quick
FIELDS = [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 1)]


@st.composite
def scalars(draw, fp, kinds):
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return NumericValue.from_rational(0)
    if kind == "float":
        return NumericValue.from_float(draw(st.sampled_from([0.0, 0.5, -1.25, 3.0, 1e-3])))
    # small numerators, so that entries often cancel to exact zeros over a sphere
    r = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 1, 2, 3])))
    if kind in ("ln2", "ln3"):
        return NumericValue.from_exact(ExactScalar(Fraction(0), r, Fraction(0), int(kind[2])))
    if kind == "ln":
        return NumericValue.from_exact(ExactScalar.ln_q(fp, r))
    if kind == "inv_ln":
        return NumericValue.from_exact(ExactScalar.inv_ln_q(fp, r))
    return NumericValue.from_rational(r)


EXACT_KINDS = ["zero", "rational", "rational", "ln", "inv_ln"]
ALL_KINDS = EXACT_KINDS + ["float", "float"]
# ln 2 and ln 3 in one table: its sums depend on their order, so the routes walk its spheres
TWO_LOG_KINDS = ["zero", "rational", "ln2", "ln3"]
# ln 3 alone: one log base, but against q != 3 a ln q weight meets a second one
FOREIGN_LOG_KINDS = ["zero", "rational", "ln3"]


@st.composite
def tables(draw, kinds):
    p, n, max_depth = draw(st.sampled_from(FIELDS))
    fp = FieldParams(p, n)
    s = draw(st.integers(-1, 1))
    k = s + draw(st.integers(0, max_depth))
    values = {
        d: ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero", "zero"] + kinds)))
        for d in enumerate_digits(fp, s, k)
    }
    alpha = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2]))
    return OperatorParams(fp, alpha), TestFunction(fp, s, k, values)


@st.composite
def extended(draw, kinds, cores=None):
    """(params, u): a table drawn from ``cores`` (default ``tables(kinds)``) under a zero, power or log tail with coefficients of ``kinds``."""
    params, core = draw(tables(kinds) if cores is None else cores)
    fp = params.fp
    tail_kind = draw(st.sampled_from(["zero", "power", "log"]))
    if tail_kind == "zero":
        return params, ExtendedFunction(core)
    coeff = ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero"] + kinds)))
    if tail_kind == "power":
        # the difference integral converges for tails below |x|**gamma
        exponent = draw(st.sampled_from([Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0)]))
        return params, ExtendedFunction(core, power_tail(coeff, exponent))
    const = ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero"] + kinds)))
    return params, ExtendedFunction(core, log_tail(const, coeff))


# floats an all-float table draws often: signed zeros cancel and keep their sign
FLOAT_POOL = [0.0, -0.0, 0.5, -1.25, 3.0, 1e-3]


def float_parts():
    return st.one_of(st.sampled_from(FLOAT_POOL), st.floats(allow_nan=False, allow_infinity=False)).map(NumericValue.from_float)


@st.composite
def float_tables(draw):
    """(params, f) with every part of every entry of f a float; ``tables(ALL_KINDS)`` almost never draws one."""
    p, n, max_depth = draw(st.sampled_from(FIELDS))
    fp = FieldParams(p, n)
    s = draw(st.integers(-1, 1))
    k = s + draw(st.integers(0, max_depth))
    values = {d: ComplexValue(draw(float_parts()), draw(float_parts())) for d in enumerate_digits(fp, s, k)}
    alpha = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(3, 2), 2]))
    return OperatorParams(fp, alpha), TestFunction(fp, s, k, values)


def dilated_window(f: TestFunction, widen: int) -> int:
    """The table's window dilated by up to ``widen`` levels, keeping at most 64 output cosets."""
    w = f.support_level - widen
    while w < f.support_level and f.fp.q ** (f.constancy_level - w) > 64:
        w += 1
    return w


def riesz_case(params, phi, widen):
    w = dilated_window(phi, widen)
    got = riesz_potential(params, phi, window_level=w).core.values
    want = riesz_core_oracle(params, phi, window_level=w)
    assert set(got) == set(want)
    slack = 1e-12 * l1_scale(phi)
    for d in want:
        assert_same(got[d], want[d], slack)


def shell_case(params, u, widen, cut):
    """Every point of a window dilated by ``widen`` levels; no truncation, and truncation ``cut`` levels up."""
    fp = params.fp
    k = u.constancy_level
    w = dilated_window(u.core, widen)
    slack = 1e-12 * l1_scale(u.core)
    for d in enumerate_digits(fp, w, k):
        x = digits_to_point(fp, d, w)
        for j_hi in sorted({k - 1, k - 1 - cut}):
            want = difference_shell_sum_oracle(params, u, x, j_hi)
            assert_same(_difference_shell_sums(params, u, j_hi, NV_ONE)(x, *u.core._locate(x)), want, slack)


PROFILES = [LogProfile()] + [
    PowerProfile(e) for e in (-3, -2, Fraction(-3, 2), -1, Fraction(-1, 2), Fraction(-1, 3), 0, Fraction(1, 2), 1, 2)
]


@st.composite
def points_at(draw, fp, lo, hi):
    """A point with |x| = q**(-lo) and p-adic digits only at positions lo .. hi - 1."""
    coords = [
        sum((draw(st.integers(0, fp.p - 1)) * Fraction(fp.p) ** t for t in range(lo + 1, hi)), Fraction(0))
        for _ in range(fp.n)
    ]
    coords[0] += draw(st.integers(1, fp.p - 1)) * Fraction(fp.p) ** lo
    return point(fp, *coords)


@st.composite
def integrals(draw, kinds):
    """(profile, f, region): bounded and unbounded regions, shifts inside and beyond the window."""
    _, u = draw(extended(kinds))
    w, k = u.window_level, u.constancy_level
    profile = draw(st.sampled_from(PROFILES))
    shape = draw(st.sampled_from(["all", "ball", "sphere", "outside", "range", "shift", "shift", "nested", "nested"]))
    if shape == "all":
        return profile, u, None
    if shape in ("shift", "nested"):
        # |shift| from the window's own level up to three levels beyond it
        for _ in range(1 + (shape == "nested")):
            profile = ShiftedProfile(profile, draw(points_at(u.fp, w - draw(st.integers(0, 3)), k + 1)))
        return profile, u, draw(st.sampled_from([None, None, Region.ball(w)]))
    lo = draw(st.integers(w - 3, k + 1))
    if shape == "range":
        return profile, u, Region(lo, lo + draw(st.integers(0, 4)))
    return profile, u, getattr(Region, shape)(lo)


def outcome(fn, *args):
    """fn(*args), or the type of the package error it raised."""
    try:
        return fn(*args)
    except UltrafracError as exc:
        return type(exc)


def integrate_case(profile, u, region):
    got = outcome(integrate_product, profile, u, region)
    want = outcome(integrate_product_oracle, profile, u, region)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
    else:
        assert_same(got, want, 1e-12 * l1_scale(u.core))


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from([EXACT_KINDS, FOREIGN_LOG_KINDS]).flatmap(tables), widen=st.integers(0, 2))
def test_riesz_engine_matches_pair_loop_on_exact_inputs(case, widen):
    riesz_case(*case, widen)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tables(ALL_KINDS), widen=st.integers(0, 1))
def test_riesz_engine_matches_pair_loop_on_float_inputs(case, widen):
    riesz_case(*case, widen)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from([EXACT_KINDS, FOREIGN_LOG_KINDS]).flatmap(extended), widen=st.integers(0, 2), cut=st.integers(1, 5))
def test_shell_sums_match_coset_loop_on_exact_inputs(case, widen, cut):
    shell_case(*case, widen, cut)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=extended(ALL_KINDS), widen=st.integers(0, 2), cut=st.integers(1, 5))
def test_shell_sums_match_coset_loop_on_float_inputs(case, widen, cut):
    shell_case(*case, widen, cut)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=integrals(EXACT_KINDS))
def test_integrate_product_matches_coset_loop_on_exact_inputs(case):
    integrate_case(*case)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=integrals(ALL_KINDS))
def test_integrate_product_matches_coset_loop_on_float_inputs(case):
    integrate_case(*case)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=extended(ALL_KINDS), profile=st.sampled_from(PROFILES), data=st.data())
def test_closed_far_shells_telescope_against_shell_loop(case, profile, data):
    # the shells lo .. hi summed one by one, plus the closed form beyond lo, are
    # the closed form beyond hi; lo is beyond the window, where f is its tail
    _, u = case
    assume(not isinstance(u.tail, ZeroTail))
    lo = u.window_level - data.draw(st.integers(1, 4))
    hi = lo + data.draw(st.integers(0, 4))
    whole = outcome(integrate_product, profile, u, Region.outside(hi))
    beyond = outcome(integrate_product, profile, u, Region.outside(lo - 1))
    if isinstance(whole, type):
        assert beyond is whole
        return
    shells = integrate_product(profile, u, Region(lo, hi))
    got, want = (shells + beyond).to_complex(), whole.to_complex()
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want), abs(shells.to_complex()), abs(beyond.to_complex()))


def test_shift_beyond_window_weights_the_tail_inside_the_shift():
    # |shift| = 9 is beyond the window, so on the ball |x - shift| <= 3 the function is its tail at 9
    fp = FieldParams(3)
    u = ExtendedFunction(_table(fp, 0, 2, [Fraction(i - 4, 2) for i in range(9)]), power_tail(2, -3))
    for base in (PowerProfile(1), PowerProfile(0), LogProfile()):
        profile = ShiftedProfile(base, point(fp, Fraction(2, 9)))
        got = integrate_product(profile, u)
        assert got.is_exact
        assert_same(got, integrate_product_oracle(profile, u), 0.0)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=extended(EXACT_KINDS), widen=st.integers(0, 2))
def test_extended_sphere_sums_are_direct_sphere_sums(case, widen):
    # at points inside and beyond the window: each listed sphere is the sum over
    # its cosets, the sphere before the list is in the tail, the one after is u(x),
    # and the value returned with the sums is u(x) part for part
    _, u = case
    fp, k = u.fp, u.constancy_level
    w = dilated_window(u.core, widen)
    for d in enumerate_digits(fp, w, k):
        x = digits_to_point(fp, d, w)
        j0, sums, value = u.sphere_sums(x)
        want = u.evaluate(x)
        assert (_part(value.re), _part(value.im)) == (_part(want.re), _part(want.im))
        for j, s in enumerate(sums, start=j0):
            direct = sum((u.evaluate(x + rep) for rep in sphere_coset_reps(fp, j, k)), CV_ZERO)
            assert_same(s.value, direct, 1e-12)
        j_end = j0 + len(sums)
        for j, want in ((j0 - 1, u.tail_value_at_exponent(1 - j0)), (j_end, u.evaluate(x))):
            for rep in sphere_coset_reps(fp, j, j + 1):
                assert_same(u.evaluate(x + rep), want, 0.0)


@st.composite
def residual_cases(draw, kinds):
    """(params, phi, nu, lp) with gamma below, at and above 1; a zero-mean core above it.

    The averaging levels j = 1 .. k - nu - 1 carry explicit sphere sums
    (none for nu >= k - 1), and the residual window nu + 1 is coarser than
    the core's window whenever there are more levels than the table is deep,
    so that a tail is reached.  Levels are dropped until the window's sphere
    cosets number at most about 2000.
    """
    p, n, max_depth = draw(st.sampled_from(FIELDS))
    fp = FieldParams(p, n)
    nu = draw(st.integers(1, 3))
    depth = draw(st.integers(1, max_depth))
    levels = draw(st.integers(-1, 3))
    while levels > 0 and fp.q ** (levels + max(levels, depth)) > 2000:
        levels -= 1
    k = nu + 1 + levels
    values = {
        d: ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero", "zero"] + kinds)))
        for d in enumerate_digits(fp, k - depth, k)
    }
    core = TestFunction(fp, k - depth, k, values)
    gamma = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]))
    params = OperatorParams(fp, gamma * fp.n)
    lp = draw(st.sampled_from([1.0, 2.0]))
    if gamma > 1:
        return params, lizorkin_project(core), nu, lp
    # the log branch needs decay faster than |x|**-1
    tails = ["zero", "power"] if gamma == 1 else ["zero", "power", "log"]
    tail_kind = draw(st.sampled_from(tails))
    if tail_kind == "zero":
        return params, ExtendedFunction(core), nu, lp
    coeff = ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero"] + kinds)))
    if tail_kind == "power":
        exponents = [Fraction(-2), Fraction(-3, 2)] if gamma == 1 else [Fraction(-2), Fraction(-1, 2), Fraction(0)]
        return params, ExtendedFunction(core, power_tail(coeff, draw(st.sampled_from(exponents)))), nu, lp
    const = ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero"] + kinds)))
    return params, ExtendedFunction(core, log_tail(const, coeff)), nu, lp


def residual_per_point(params, p, phi, nu):
    """The residual as one ``averaging_apply`` per point of its window."""
    pe = _as_extended(phi)
    w, k = min(pe.window_level, nu + 1), pe.constancy_level
    diffs = [averaging_apply(params, nu, phi, x) - pe.evaluate(x) for _, x in coset_walk(params.fp, w, k)]
    return lp_window_sum(params.fp, k, p, diffs) ** (1 / p)


def residual_case(params, phi, nu, lp):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisBoundaryWarning)
        got = outcome(inversion_residual, params, lp, phi, nu)
    want = outcome(residual_per_point, params, lp, phi, nu)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
    else:
        assert got.hex() == want.hex()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=residual_cases(EXACT_KINDS))
def test_residual_equals_its_per_point_formula_on_exact_inputs(case):
    residual_case(*case)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=residual_cases(ALL_KINDS))
def test_residual_equals_its_per_point_formula_on_float_inputs(case):
    residual_case(*case)


# (p, n, largest depth): rational tables of at most 64 cosets
RATIONAL_FIELDS = [(2, 1, 6), (3, 1, 3), (2, 2, 3), (3, 2, 1)]


@st.composite
def rational_windows(draw):
    """(params, u, widen): a rational table over p in {2, 3}, n in {1, 2}, N <= 64, constant at level k >= 2, under a tail.

    gamma runs over 1/2, 1, 3/2 and 2, so that the weights are exact
    rationals (q**gamma rational) or not.  The tail is none, a power with a
    rational far sum, one off the rationals, or a log tail, whose far sum
    has a ln q part.
    """
    p, n, max_depth = draw(st.sampled_from(RATIONAL_FIELDS))
    fp = FieldParams(p, n)
    depth = draw(st.integers(1, max_depth))
    s = draw(st.integers(max(0, 2 - depth), 1))
    values = {
        d: ComplexValue(draw(scalars(fp, ["zero", "rational", "rational"])), draw(scalars(fp, ["zero", "zero", "rational"])))
        for d in enumerate_digits(fp, s, s + depth)
    }
    params = OperatorParams(fp, n * draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])))
    core = TestFunction(fp, s, s + depth, values)
    tail = draw(st.sampled_from(["zero", "power", "power", "log"]))
    coeff = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
    if tail == "power":
        u = ExtendedFunction(core, power_tail(coeff, draw(st.sampled_from([Fraction(-2), Fraction(-1, 2), Fraction(0)]))))
    elif tail == "log":
        u = ExtendedFunction(core, log_tail(Fraction(1, 2), coeff))
    else:
        u = ExtendedFunction(core)
    return params, u, draw(st.integers(-1, 2))


def residual_oracle(params, p, phi, nu):
    """The residual as an lp sum of the coset walk's averages less phi."""
    w, k = min(phi.support_level, nu + 1), phi.constancy_level
    diffs = [averaging_oracle(params, nu, phi, x) - phi.evaluate(x) for _, x in coset_walk(params.fp, w, k)]
    return lp_window_sum(params.fp, k, p, diffs) ** (1 / p)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=rational_windows(), lp=st.sampled_from([1.0, 1.5, 3.0]))
def test_rational_windows_by_address_match_the_coset_walks(case, lp):
    # the hypersingular window, dilated, at its own window or one level finer,
    # is the coset walk times c, exactly where it is exact; a log tail's far
    # sum is not rational, so it never reaches the integer lane.  The Riesz
    # core is the pair loop, and the residual of the core the lp sum of the
    # averaging walk less phi, to the bit
    params, u, widen = case
    fp, core, k = params.fp, u.core, u.constancy_level
    c = constants(params).c
    slack = 1e-12 * l1_scale(core)
    w = dilated_window(core, widen)
    for nu in (None, 1, k - 1):
        j_hi = k - 1 if nu is None else min(nu, k - 1)
        with pytest.MonkeyPatch.context() as mp:
            folds = _counting(mp, IntegerSum, "folded")
            rows = vladimirov_on_window(params, u, w, nu)
        assert [x for x, _ in rows] == [x for _, x in coset_walk(fp, w, k)]
        for x, value in rows:
            assert_same(value, difference_shell_sum_oracle(params, u, x, j_hi) * c, slack)
        if isinstance(u.tail, LogTail):
            assert folds == []
    riesz_case(params, core, max(widen, 0))  # a Riesz window must hold the support
    phi = lizorkin_project(core) if params.gamma > 1 else core
    for nu in (1, k - 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypothesisBoundaryWarning)
            got, want = inversion_residual(params, lp, phi, nu), residual_oracle(params, lp, phi, nu)
        if all(weight.exact is not None for weight in operators._averaging_weights(params, nu, k)):
            assert got.hex() == want.hex(), nu
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), nu


@settings(max_examples=60, deadline=None)
@given(case=tables(["zero"]), shift=st.integers(-2, 3))
def test_window_locations_are_the_located_points(case, shift):
    # from the digits alone: the core's address, or the size of a point beyond it
    _, f = case
    fp, s, k = f.fp, f.support_level, f.constancy_level
    level = min(s - shift, k)
    assume(fp.q ** (k - level) <= 1024)
    want = [(d, *f._locate(x)) for d, x in coset_walk(fp, level, k)]
    assert list(field._window_locations(fp, level, s, k)) == want


@pytest.mark.parametrize("alpha", [1, 2])
def test_rational_windows_build_no_point_but_their_rows(monkeypatch, alpha):
    # an order-free N = 64 table at exact weights: the Riesz core and both
    # residuals locate nothing and build no Point, and the truncated window
    # on the potential builds only the 64 Points it returns, with a bounded
    # number of ring additions and products for its far sum, none per coset
    events = []
    locate, to_point = TestFunction._locate, field.digits_to_point
    add, mul = ComplexValue.__add__, ComplexValue.__mul__
    monkeypatch.setattr(TestFunction, "_locate", lambda self, x: events.append("locate") or locate(self, x))
    monkeypatch.setattr(field, "digits_to_point", lambda *args: events.append("point") or to_point(*args))
    monkeypatch.setattr(ComplexValue, "__add__", lambda a, b: events.append("ring") or add(a, b))
    monkeypatch.setattr(ComplexValue, "__mul__", lambda a, b: events.append("ring") or mul(a, b))
    f = _table(FieldParams(2, 2), 0, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)])
    params = OperatorParams(f.fp, alpha)
    u = riesz_potential(params, f)
    for nu in (1, 2):
        assert inversion_residual(params, 1, f, nu) >= 0.0
    assert "locate" not in events and "point" not in events
    for nu in (1, 2):
        events.clear()
        assert len(vladimirov_on_window(params, u, 0, nu)) == 64
        assert events.count("point") == 64
        assert "locate" not in events
        assert events.count("ring") < 16


@pytest.mark.parametrize("p", [1, 1.5, 3])
def test_residual_of_a_shuffled_table_is_the_canonical_one(p):
    # the powers add in coset_walk order, whatever the order of the values dict
    fp = FieldParams(2, 2)
    rng = random.Random(26)
    f = _table(fp, 0, 3, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(64)])
    items = list(f.values.items())
    rng.shuffle(items)
    g = TestFunction(fp, 0, 3, dict(items))
    assert list(g.values) != list(f.values)
    params = OperatorParams(fp, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisBoundaryWarning)
        got, want = inversion_residual(params, p, g, 1), inversion_residual(params, p, f, 1)
        assert got.hex() == want.hex() == residual_oracle(params, p, f, 1).hex()


def same_parts(got, want) -> bool:
    """Both raised the same package error, or every part is the same exact value or the same float bits."""
    if isinstance(got, type) or isinstance(want, type):
        return got is want
    return (_part(got.re), _part(got.im)) == (_part(want.re), _part(want.im))


def beyond(fp, level):
    """A point with |x| = q**(-level)."""
    return point(fp, Fraction(fp.p) ** level, *[0] * (fp.n - 1))


@st.composite
def direct_cases(draw):
    """(bridge, f, points): degree 1 or 2, alpha below, at and above n, points in and beyond the support.

    The table is exact (with ln q or a foreign ln 3), float-mixed, or
    holds ln 2 and ln 3, so that the prefix lane, against exact and float
    weights, and the coset walk are both reached; above alpha = n the table
    is projected to zero mean.
    """
    kinds = draw(st.sampled_from([EXACT_KINDS, ALL_KINDS, TWO_LOG_KINDS, FOREIGN_LOG_KINDS]))
    params, f = draw(tables(kinds))
    fp = params.fp
    alpha = fp.n * draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]))
    if alpha > fp.n:
        f = lizorkin_project(f)
    w = dilated_window(f, draw(st.integers(0, 2)))
    points = [x for _, x in coset_walk(fp, w, f.constancy_level)] + [beyond(fp, f.support_level - 3)]
    return DimensionBridge(fp.p, fp.n, alpha), f, points


@st.composite
def averaging_cases(draw):
    """(params, phi, nu, points): the residual cases of every table kind, at the residual window and beyond it."""
    kinds = draw(st.sampled_from([EXACT_KINDS, ALL_KINDS, TWO_LOG_KINDS, FOREIGN_LOG_KINDS]))
    params, phi, nu, _ = draw(residual_cases(kinds))
    pe = _as_extended(phi)
    w = min(pe.window_level, nu + 1)
    points = [x for _, x in coset_walk(pe.fp, w, pe.constancy_level)] + [beyond(pe.fp, w - 2)]
    return params, phi, nu, points


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=direct_cases())
def test_taibleson_direct_matches_coset_walk(case):
    bridge, f, points = case
    for x in points:
        assert same_parts(outcome(taibleson_direct, bridge, f, x), outcome(taibleson_direct_oracle, bridge, f, x)), x


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=averaging_cases())
def test_averaging_matches_coset_walk(case):
    params, phi, nu, points = case
    for x in points:
        got = outcome(averaging_apply, params, nu, phi, x)
        assert same_parts(got, outcome(averaging_oracle, params, nu, phi, x)), x


def _counting(monkeypatch, module, name, calls=None):
    """Replace module.name with a wrapper that records each call's arguments in ``calls`` (a new list by default); return the record."""
    calls = [] if calls is None else calls
    inner = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or inner(*args))
    return calls


def test_order_free_tables_walk_no_sphere(monkeypatch):
    # every sphere of an order-free table without a tail is two prefix ball
    # sums apart, and every point sums on the lane, against exact weights
    # (alpha = 1, 2) and against float ones (alpha = 1/2: cd and the odd
    # direct shell weights are irrational over Q_2 squared)
    walks = _counting(monkeypatch, operators, "sphere_coset_reps")
    lanes = _counting_lanes(monkeypatch, multidim)
    _counting_lanes(monkeypatch, operators, lanes)
    fp = FieldParams(2, 2)
    f = _table(fp, 0, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)])
    zero_mean = lizorkin_project(f)
    points = [x for _, x in coset_walk(fp, -1, 3)]
    alphas = (1, 2, Fraction(1, 2))
    for alpha in alphas:
        bridge = DimensionBridge(2, 2, alpha)
        params = OperatorParams(fp, alpha)
        phi = f if alpha == 1 else zero_mean
        assert constants(params).cd.is_exact == (alpha != Fraction(1, 2))
        for x in points:
            assert same_parts(taibleson_direct(bridge, f, x), taibleson_direct_oracle(bridge, f, x)), (alpha, x)
            for nu in (1, 2):
                assert same_parts(averaging_apply(params, nu, phi, x), averaging_oracle(params, nu, phi, x)), (alpha, nu, x)
    assert walks == []
    assert sorted(lanes) == sorted(["_direct_weights", "_averaging_weights", "_averaging_weights"] * len(points) * len(alphas))


@pytest.mark.parametrize("kind", ["float", "two log bases"])
def test_order_dependent_tables_walk_their_spheres(monkeypatch, kind):
    fp = FieldParams(2)
    if kind == "float":
        entries = [NumericValue.from_float(0.1 * i) for i in range(8)]
    else:
        entries = [NumericValue.from_exact(ExactScalar(Fraction(0), Fraction(i), Fraction(0), 2 + i % 2)) for i in range(8)]
    f = _table(fp, 0, 3, entries)
    walks = _counting(monkeypatch, operators, "sphere_coset_reps")
    bridge, params = DimensionBridge(2, 1, Fraction(1, 2)), OperatorParams(fp, Fraction(1, 2))
    for x in [x for _, x in coset_walk(fp, -1, 3)]:
        assert same_parts(taibleson_direct(bridge, f, x), taibleson_direct_oracle(bridge, f, x))
        assert same_parts(averaging_apply(params, 1, f, x), averaging_oracle(params, 1, f, x))
    assert walks


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1], ids=str)
def test_averaging_reads_prefix_spheres_under_a_tail(monkeypatch, alpha):
    # under a tail, a point of the window whose spheres stay inside it sums
    # on the lane; every other point walks all its spheres, bit for bit the oracle
    walks = _counting(monkeypatch, operators, "sphere_coset_reps")
    lanes = _counting_lanes(monkeypatch)
    fp = FieldParams(2)
    core = _table(fp, 3, 6, [Fraction((5 * i) % 11 - 5, 1 + i % 3) for i in range(8)])
    phi = ExtendedFunction(core, power_tail(Fraction(1, 3), -2))
    params = OperatorParams(fp, alpha)
    points = [x for _, x in coset_walk(fp, 2, 6)]
    assert len(points) == 16
    for nu in (1, 2):
        for x in points:
            assert same_parts(averaging_apply(params, nu, phi, x), averaging_oracle(params, nu, phi, x)), (nu, x)
    # nu = 1: the first sphere, at level 2, reaches past the window at level 3,
    # so all 16 points walk their 4 spheres j = 1 .. 4.  nu = 2: the 8 points
    # of the window take the lane, the 8 beyond it walk their 3 spheres
    assert lanes == ["_averaging_weights"] * 8
    assert len(walks) == 16 * 4 + 8 * 3


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1], ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_averaging_reads_spheres_beyond_the_support(monkeypatch, p, alpha):
    # nu = 1 on a table at levels 4 .. 6: around a point of the support the
    # spheres at levels 2 and 3 reach past it, level 2 below support_level - 1,
    # so the lane reads them from balls coarser than the support; every
    # point of the level-2 window sums on the lane, bit for bit the oracle
    lanes = _counting_lanes(monkeypatch)
    rng = random.Random(p)
    fp = FieldParams(p)
    f = _table(fp, 4, 6, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(p**2)])
    params = OperatorParams(fp, alpha)
    points = [x for _, x in coset_walk(fp, 2, 6)]
    for x in points:
        assert same_parts(averaging_apply(params, 1, f, x), averaging_oracle(params, 1, f, x)), x
    assert lanes == ["_averaging_weights"] * len(points)


def test_each_level_weight_is_built_once_across_points(monkeypatch):
    # 64 per-point calls at nu = 1 on a table down to level 6: levels j = 1 .. 4
    fp = FieldParams(2)
    f = _table(fp, 0, 6, [Fraction(i % 5 - 2, 3) for i in range(64)])
    params = OperatorParams(fp, Fraction(1, 2))
    operators._averaging_weights.cache_clear()
    calls = _counting(monkeypatch, operators, "kernel_r")
    for _, x in coset_walk(fp, 0, 6):
        averaging_apply(params, 1, f, x)
    assert sorted(j for _, j in calls) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# per-point routes held on the caller's function


def _held_route_case():
    """An N = 64 rational table over FieldParams(2, 2), levels 0 .. 3, with a nonzero integral, and its 64 points."""
    fp = FieldParams(2, 2)
    f = _table(fp, 0, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)])
    assert not f.integral().is_exact_zero()
    return f, [x for _, x in coset_walk(fp, 0, 3)]


def test_per_point_routes_are_built_once_per_function(monkeypatch):
    f, points = _held_route_case()
    g = _table(f.fp, 0, 3, [Fraction(i % 5 - 2, 3) for i in range(64)])
    params, bridge = OperatorParams(f.fp, 1), DimensionBridge(2, 2, 1)
    # the window loops build their route per call, so they are the reference
    want = [(vladimirov_on_window(params, h, 0, 1), vladimirov_on_window(bridge.ext_params, h, 0)) for h in (f, g)]
    averaging = _counting(monkeypatch, operators, "_averaging")
    vladimirov = _counting(monkeypatch, operators, "_vladimirov_at")
    direct = _counting(monkeypatch, multidim, "_direct")
    for h, (truncated, whole) in zip((f, g), want):
        for x, t, w in zip(points, truncated, whole, strict=True):
            assert t[0] == w[0] == x
            assert same_parts(averaging_apply(params, 1, h, x), averaging_oracle(params, 1, h, x)), x
            assert same_parts(truncated_vladimirov(params, 1, h, x), t[1]), x
            assert same_parts(taibleson_via_extension(bridge, h, x), w[1]), x
            assert same_parts(taibleson_direct(bridge, h, x), taibleson_direct_oracle(bridge, h, x)), x
    # 64 points of each table: one build per (function, params, nu)
    assert [(a, nu) for a, nu, _ in averaging] == [(params, 1)] * 2
    assert [(a, nu) for a, nu, _ in vladimirov] == [(params, 1), (bridge.ext_params, None)] * 2
    assert [(b, nu) for b, nu, _ in direct] == [(bridge, None)] * 2
    assert [id(h) for *_, h in averaging] == [id(f), id(g)]
    assert [id(h) for *_, h in vladimirov] == [id(f), id(f), id(g), id(g)]
    assert [id(h) for *_, h in direct] == [id(f), id(g)]


def test_taibleson_direct_holds_one_lane_per_table(monkeypatch):
    # the 64 support points of a table share one route per bridge, and it
    # builds one lane; the route is held on the table under the key of its
    # own builder, beside the extension route that it checks
    f, points = _held_route_case()
    builds = _counting(monkeypatch, multidim, "mixed_sum")
    bridges = [DimensionBridge(2, 2, alpha) for alpha in (1, 2)]
    for bridge in bridges:
        for x in points:
            assert same_parts(taibleson_direct(bridge, f, x), taibleson_direct_oracle(bridge, f, x)), (bridge, x)
            taibleson_via_extension(bridge, f, x)
    assert [(weights_of, args) for weights_of, args, _ in builds] == [
        (multidim._direct_weights, (bridge, 3, 0, 0)) for bridge in bridges
    ]
    assert set(f._routes) == {
        *((multidim._direct, bridge, None) for bridge in bridges),
        *((operators._vladimirov_at, bridge.ext_params, None) for bridge in bridges),
    }
    assert len({id(route) for route in f._routes.values()}) == 4


def test_held_averaging_routes_are_keyed_by_order_and_truncation():
    f, points = _held_route_case()
    for alpha in (1, 2):  # gamma = 1/2, then the log branch gamma = 1
        params = OperatorParams(f.fp, alpha)
        for nu in (1, 2):
            for x in points[::8]:
                assert same_parts(averaging_apply(params, nu, f, x), averaging_oracle(params, nu, f, x)), (alpha, nu, x)
    assert len(f._routes) == 4
    # an averaging route never serves a truncated call
    params = OperatorParams(f.fp, 1)
    for x in points[::8]:
        assert same_parts(truncated_vladimirov(params, 1, f, x), operators._vladimirov_at(params, 1, f)(x, *f._locate(x))), x


@pytest.mark.parametrize("nu", [0, True, 1.0], ids=repr)
def test_truncation_is_checked_after_a_route_is_held(nu):
    # True and 1.0 hash and compare equal to the held key nu = 1
    f, points = _held_route_case()
    params, x = OperatorParams(f.fp, 1), points[0]
    averaging_apply(params, 1, f, x)
    truncated_vladimirov(params, 1, f, x)
    for route in (averaging_apply, truncated_vladimirov):
        with pytest.raises(ValueError, match="positive integer"):
            route(params, nu, f, x)


def test_refused_input_raises_on_every_call():
    f, points = _held_route_case()
    params = OperatorParams(f.fp, 3)  # gamma = 3/2 needs a zero-mean input
    for _ in range(2):
        with pytest.raises(HypothesisViolationError, match="zero-mean"):
            averaging_apply(params, 1, f, points[0])
        with pytest.raises(UltrafracError, match="max-norm operator needs a table over"):
            taibleson_direct(DimensionBridge(2, 3, 1), f, points[0])  # f is over FieldParams(2, 2)
    assert f._routes == {}
    # an argument that is no function has nowhere to hold a route, and is refused as before
    for route in (averaging_apply, truncated_vladimirov):
        with pytest.raises(TypeError, match="expected a function"):
            route(params, 1, object(), points[0])


def test_functions_pickle_after_per_point_calls():
    f, points = _held_route_case()
    params, bridge = OperatorParams(f.fp, 1), DimensionBridge(2, 2, 1)
    u = ExtendedFunction(f, power_tail(Fraction(1, 3), -5))
    cases = [
        (f, lambda h, x: averaging_apply(params, 1, h, x)),
        (f, lambda h, x: truncated_vladimirov(params, 2, h, x)),
        (f, lambda h, x: taibleson_via_extension(bridge, h, x)),
        (f, lambda h, x: taibleson_direct(bridge, h, x)),
        (u, lambda h, x: averaging_apply(params, 1, h, x)),
        (u, lambda h, x: vladimirov_hypersingular(params, h, x)),
    ]
    before = [[route(h, x) for x in points[::4]] for h, route in cases]
    assert len(f._routes) == 4 and len(u._routes) == 2
    copies = {id(h): pickle.loads(pickle.dumps(h)) for h in (f, u)}
    for h, copy in ((f, copies[id(f)]), (u, copies[id(u)])):
        assert copy == h and "_routes" not in copy.__dict__ and h._routes
    for (h, route), values in zip(cases, before):
        for x, want in zip(points[::4], values):
            assert same_parts(route(copies[id(h)], x), want), x


@settings(max_examples=60, deadline=None)
@given(case=tables(["zero", "rational"]))
def test_prefix_table_is_the_engine_ball_sums(case):
    # the one ball pyramid agrees, at every level and ball, with the entries
    # grouped here by their per-coordinate digit prefixes: numerators over the
    # table's one denominator in _pair_levels, BallSums in _ball_sums
    _, f = case
    view = f._integer_view
    q, depth = f.fp.q, f.constancy_level - f.support_level
    index = field._ball_indices(f.fp, depth)
    for t in range(depth + 1):
        prefix_sums = {}
        for d, (re, im) in view.numerators.items():
            key = tuple(ds[:t] for ds in d)
            s_re, s_im = prefix_sums.get(key, (0, 0))
            prefix_sums[key] = (s_re + re, s_im + im)
        assert len(f._pair_levels[t]) == len(f._ball_sums[t]) == len(prefix_sums) == q**t
        for d in f.values:
            ball, want = index[d] // q ** (depth - t), prefix_sums[tuple(ds[:t] for ds in d)]
            assert f._pair_levels[t][ball] == want
            s = f._ball_sums[t][ball].value
            assert _over(want, view.denominator) == (s.re.exact, s.im.exact)


@st.composite
def rational_pyramids(draw):
    """A complex rational table over Q_p or its degree-2 model, p = 2 or 3, at support level -1 .. 3, of at most 81 cosets."""
    fp = FieldParams(draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2])))
    s = draw(st.integers(-1, 3))
    k = s + draw(st.integers(0, {2: 4, 3: 3, 4: 3, 9: 2}[fp.q]))
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    return TestFunction(fp, s, k, {d: ComplexValue.from_rational(draw(part), draw(part)) for d in enumerate_digits(fp, s, k)})


@settings(max_examples=60, deadline=None)
@given(f=rational_pyramids(), alpha=st.sampled_from([1, 2]))
def test_lane_pass_is_each_points_reading(f, alpha):
    # one pass down the ball pyramid gives, at every address, the numerators
    # the lane sums from that point's own spheres.  The lanes: the Riesz lane
    # from the support level; the folded engine lane, whole and truncated at
    # nu = 1; the inversion lane at each nu = 1 .. k + 1, whose first level
    # nu + 1 lies below the support level, inside the support, or past it at
    # nu >= k - 1, where the lane is f(x)'s weight alone
    fp, s, k = f.fp, f.support_level, f.constancy_level
    params, view = OperatorParams(fp, alpha), f._integer_view
    c = constants(params).c
    lanes = [(mixed_sum(operators._riesz_weights, (params, s, k), view), range(s, k))]
    for j_hi in (k - 1, min(1, k - 1)):
        engine = mixed_sum(operators._engine_weights, (params, k, s, j_hi), view)
        far = _closed_far_sum(fp, PowerProfile(-params.gamma - 1), ExtendedFunction(f), min(s - 1, j_hi))
        lanes.append((engine.folded(c, far) if isinstance(engine, IntegerSum) else None, range(s, k)))
    for nu in range(1, max(k, 1) + 2):
        lanes.append((mixed_sum(operators._inversion_weights, (params, nu, k), view), operators._averaging_levels(nu, k)))
    lanes = [(lane, levels) for lane, levels in lanes if isinstance(lane, IntegerSum)]
    assert lanes
    for lane, levels in lanes:
        assert lane.count == len(levels) + 1
        want = {d: lane.numerators(f._prefix_spheres(d, None, levels)) for d in f.values}
        assert f._lane_numerators(lane) == want


def _over(nums, den) -> tuple[ExactScalar, ExactScalar]:
    """A numerator pair over den as the exact rational of each part."""
    return tuple(ExactScalar(Fraction(n, den)) for n in nums)


def all_rational(f: TestFunction) -> bool:
    """Every part of every entry an exact rational."""
    return all(part.exact is not None and part.exact.is_rational for v in f.values.values() for part in (v.re, v.im))


@settings(max_examples=80, deadline=None)
@given(case=st.sampled_from([EXACT_KINDS, ALL_KINDS, TWO_LOG_KINDS, FOREIGN_LOG_KINDS]).flatmap(tables))
def test_integer_view_round_trips(case):
    # the view exists exactly when every part of every entry is an exact
    # rational; each numerator pair over the view's denominator is its entry,
    # part for part, and that denominator is the least common one of all parts
    _, f = case
    view = integer_view(f.values)
    assert (view is None) == (not all_rational(f))
    if view is None:
        return
    assert set(view.numerators) == set(f.values)
    for d, v in f.values.items():
        assert len(view.numerators[d]) == 2
        assert _over(view.numerators[d], view.denominator) == (v.re.exact, v.im.exact)
    coeffs = [part.exact.a for v in f.values.values() for part in (v.re, v.im)]
    assert all((c * view.denominator).denominator == 1 for c in coeffs)
    for r in range(2, view.denominator + 1):
        if view.denominator % r == 0 and all(r % s for s in range(2, r)):  # r a prime factor
            assert any((c * (view.denominator // r)).denominator != 1 for c in coeffs)


@pytest.mark.parametrize("base", [2, 3], ids=["ln_q_entries", "foreign_ln_3"])
def test_log_kernel_refuses_log_entries(monkeypatch, base):
    # at gamma = 1 the Riesz kernels are ln 2 multiples: against ln 2 entries
    # their products leave the ring, against ln 3 entries they meet a second
    # log base.  A table with a log part has no integer view, so no lane pass
    # runs on it and the pair loop's exact-versus-float decisions hold
    passes = _counting(monkeypatch, TestFunction, "_lane_numerators")
    fp = FieldParams(2)
    f = _table(fp, 0, 3, [ExactScalar(Fraction(i % 3), Fraction(i % 4 - 1, 2), Fraction(0), base) for i in range(8)])
    assert f._integer_view is None
    riesz_case(OperatorParams(fp, 1), f, 1)
    assert passes == []


def _has_inv_ln(v: NumericValue) -> bool:
    return v.exact is not None and v.exact.c != 0


def _has_log_part(v: NumericValue) -> bool:
    return v.exact is not None and v.exact.logbase is not None


@pytest.mark.parametrize("alpha", [Fraction(1, 4), Fraction(1, 2), 1, 2], ids=str)
@pytest.mark.parametrize("p, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_no_route_weight_has_an_inv_ln_part(monkeypatch, p, n, alpha):
    # the one 1/ln q quantity, the normalizer d at alpha = n, enters the
    # Riesz lane's weights, where it meets the ln q of each pure log kernel:
    # no weight list handed to a lane has a ln or a 1/ln part, and the one
    # gate refuses either.  No radial factor handed to scale_sum has a 1/ln part
    fp = FieldParams(p, n)
    params, bridge = OperatorParams(fp, alpha), DimensionBridge(p, n, alpha)
    assert _has_inv_ln(constants(params).d) == (alpha == n)
    s, k = -1, 2
    weights = [
        *operators._riesz_weights(params, s - 1, k),
        *operators._engine_weights(params, k, s, k - 1),
        *(w for nu in (1, 2) for w in operators._averaging_weights(params, nu, k + 1)),
        *(w for j_t in (s - 2, s) for w in multidim._direct_weights(bridge, k, j_t, s)),
    ]
    factors = []
    radial_sum = integrate.radial_sum

    def spy(terms):
        terms = list(terms)
        factors.extend(w for w, _ in terms)
        return radial_sum(terms)

    monkeypatch.setattr(integrate, "radial_sum", spy)
    f = _table(fp, s, k, [Fraction(i % 5 - 2, 3) for i in range(fp.q ** (k - s))])
    riesz = LogProfile() if params.gamma == 1 else PowerProfile(params.gamma - 1)
    for profile in (riesz, LogProfile(), ShiftedProfile(riesz, params.sigma)):
        integrate_product(profile, f)
    assert factors
    assert not [w for w in weights if _has_log_part(w)]
    assert not [w for w in (*operators._riesz_kernels(params, s - 1, k), *factors) if _has_inv_ln(w)]

    view = integer_view({0: ComplexValue.from_rational(0), 1: ComplexValue.from_rational(Fraction(1, 2), -1)})
    for log_part in (ExactScalar.inv_ln_q(fp), ExactScalar.ln_q(fp)):
        weight = NumericValue.from_exact(log_part)
        assert mixed_weights([NV_ONE, weight]) is None
        assert mixed_sum(tuple, ((NV_ONE, weight),), view) is None


@pytest.mark.parametrize("alpha", [1, 2])
def test_exact_engine_routes_sum_no_sphere_values(monkeypatch, alpha):
    # an order-free N = 64 table against exact weights: every window point of
    # the Riesz core, the hypersingular window and the extension reading sums
    # in integers, without a BallSum sphere or a radial_sum; the routes call
    # the located form of sphere_sums, so both forms are counted
    calls = []
    sphere_sums, located = ExtendedFunction.sphere_sums, ExtendedFunction._sphere_sums_at
    monkeypatch.setattr(ExtendedFunction, "sphere_sums", lambda self, x: calls.append(x) or sphere_sums(self, x))
    monkeypatch.setattr(ExtendedFunction, "_sphere_sums_at", lambda self, d, e: calls.append((d, e)) or located(self, d, e))
    _counting(monkeypatch, operators, "radial_sum", calls)
    fp = FieldParams(2, 2)
    f = _table(fp, 0, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)])
    params = OperatorParams(fp, alpha)
    u = riesz_potential(params, f)
    for nu in (None, 1, 2):
        for g in (f, u):
            assert len(vladimirov_on_window(params, g, window_level=0, nu=nu)) == 64
    bridge = DimensionBridge(2, 2, alpha)
    for _, x in coset_walk(f.fp, 0, 3):
        taibleson_via_extension(bridge, f, x)
    assert calls == []


@pytest.mark.parametrize("alpha", [1, Fraction(1, 2)], ids=str)
def test_engine_window_locates_no_point(monkeypatch, alpha):
    # the window of an order-free N = 64 table over Q_2 squared dilated by
    # two levels: 1024 cosets, each located from its address.  The 64 of the
    # core sum in integers (at alpha = 1/2 on the mixed lane); the 960 beyond
    # it lie at |x| = q or q**2, and each exponent is summed once per call
    calls = []
    locate = TestFunction._locate
    monkeypatch.setattr(TestFunction, "_locate", lambda self, x: calls.append(x) or locate(self, x))
    located = ExtendedFunction._sphere_sums_at
    spheres = []
    monkeypatch.setattr(ExtendedFunction, "_sphere_sums_at", lambda self, d, e: spheres.append((d, e)) or located(self, d, e))
    lanes = _counting_lanes(monkeypatch)
    f = _table(FieldParams(2, 2), 0, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)])
    params = OperatorParams(f.fp, alpha)
    for nu in (None, 1):
        rows = vladimirov_on_window(params, f, -2, nu)
        assert len(rows) == 1024
    assert calls == []
    assert sorted(spheres) == [(None, 1), (None, 1), (None, 2), (None, 2)]
    assert len(lanes) == (0 if alpha == 1 else 128)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1], ids=str)
def test_dilated_riesz_window_sums_once_per_exponent(monkeypatch, alpha):
    # beyond phi's support |x - y| = |x| for every y in it, so a Riesz window
    # dilated by 4 levels sums each of the 4 exponents there once, on the
    # lane and off the ring, and every value of its 64 cosets is the pair
    # loop's.  The exact lane (alpha = 1) reads each exponent's spheres once,
    # the mixed lane (alpha = 1/2) their numerators and their counts
    located = ExtendedFunction._sphere_sums_at
    calls = []
    monkeypatch.setattr(ExtendedFunction, "_sphere_sums_at", lambda self, d, e: calls.append((d, e)) or located(self, d, e))
    prefix = TestFunction._prefix_spheres
    beyond = []

    def counted(self, d, e, levels, pyramid=None):
        if d is None:
            beyond.append(e)
        return prefix(self, d, e, levels, pyramid)

    monkeypatch.setattr(TestFunction, "_prefix_spheres", counted)
    fp = FieldParams(2)
    phi = _table(fp, 0, 2, [1, Fraction(-1, 2), 0, Fraction(3, 4)])
    assert dilated_window(phi, 4) == -4
    riesz_case(OperatorParams(fp, alpha), phi, 4)
    assert calls == []
    assert sorted(beyond) == sorted([1, 2, 3, 4] * (1 if alpha == 1 else 2))


def _counting_lookups(monkeypatch):
    """Record every ``TestFunction._locate``, every ``evaluate`` of either function class, and every ``abs_exponent``, wherever imported."""
    events = []
    for cls in (TestFunction, ExtendedFunction):
        for name in ("_locate", "evaluate") if cls is TestFunction else ("evaluate",):
            inner = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, x, inner=inner, name=name: events.append(name) or inner(self, x))
    for module in (field, functions, integrate, operators, multidim, fourier):
        if hasattr(module, "abs_exponent"):
            _counting(monkeypatch, module, "abs_exponent", events)
    return events


def _float_workload_table():
    """The operators-float table shape: p = 2, complex rational entries, levels -2 .. 4, N = 64."""
    rng = random.Random(29)
    values = [ComplexValue.from_rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(64)]
    return _table(FieldParams(2), -2, 4, values)


def test_window_loops_locate_no_point(monkeypatch):
    # the residual at nu = 1 and the multiplier route on the operators-float
    # table shape at alpha = 1/2 read every coset's location from its digits:
    # no locate, no evaluate and no abs_exponent; the values are the per-point ones
    f = _float_workload_table()
    params = OperatorParams(f.fp, Fraction(1, 2))
    with pytest.MonkeyPatch.context() as mp:
        events = _counting_lookups(mp)
        residual = inversion_residual(params, 1, f, 1)
        rows = multiplier_vladimirov(f.fp, params.gamma, f)
    assert events == []
    assert residual.hex() == residual_per_point(params, 1.0, f, 1).hex()
    want = multiplier_oracle(f.fp, params.gamma, f)
    assert [x for x, _ in rows] == [x for x, _ in want]
    scale = max([1.0] + [abs(b) for _, b in want])
    assert all(abs(a - b) <= 1e-12 * scale for (_, a), (_, b) in zip(rows, want))
    # a per-point call locates its point once, on a table whose route is built under the count
    g = _float_workload_table()
    events = _counting_lookups(monkeypatch)
    for x, _ in rows[:8]:
        events.clear()
        averaging_apply(params, 1, g, x)
        assert events == ["_locate"], x


@pytest.mark.parametrize("alpha", [1, Fraction(1, 2)], ids=str)
def test_taibleson_window_locates_no_point(monkeypatch, alpha):
    # both columns of the max-norm window on an N = 64 rational table over
    # Q_2 squared read one location per coset; each is the per-point route's
    # value, and a per-point call locates its point once (taking the size of
    # a point beyond the support there) and evaluates nothing
    f = _table(FieldParams(2, 2), 0, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)])
    bridge = DimensionBridge(2, 2, alpha)
    with pytest.MonkeyPatch.context() as mp:
        events = _counting_lookups(mp)
        rows = multidim.taibleson_on_window(bridge, f)
    assert events == [] and len(rows) == 256
    events = _counting_lookups(monkeypatch)
    for x, direct, via_ext in rows:
        for route, want in ((taibleson_direct, direct), (taibleson_via_extension, via_ext)):
            events.clear()
            assert same_parts(route(bridge, f, x), want), x
            assert events.count("_locate") == 1 and "evaluate" not in events, x


@pytest.mark.parametrize("order_free", [True, False], ids=["rational", "float entry"])
def test_minkowski_bound_translates_on_addresses(monkeypatch, order_free):
    # every translation h of the bound on an order-free rational N = 64 table
    # lies in the support, so the modulus of continuity reads the table at
    # shifted integer addresses: no locate and no Point per translation.  A
    # float entry sends each translation back to the ring path, which does both.
    events = []
    locate, to_point = TestFunction._locate, field.digits_to_point
    monkeypatch.setattr(TestFunction, "_locate", lambda self, x: events.append("locate") or locate(self, x))
    monkeypatch.setattr(field, "digits_to_point", lambda *args: events.append("point") or to_point(*args))
    per_translation = []
    modulus = operators.modulus_of_continuity

    def counted(phi, h, p):
        before = len(events)
        out = modulus(phi, h, p)
        per_translation.append(len(events) - before)
        return out

    monkeypatch.setattr(operators, "modulus_of_continuity", counted)
    values = [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)]
    if not order_free:
        values[5] = 0.25
    f = _table(FieldParams(2, 2), 0, 3, values)
    assert (f._integer_view is not None) == order_free
    for alpha in (1, 2):
        minkowski_bound(OperatorParams(f.fp, alpha), 2, f, 1)
    assert len(per_translation) == 2 * 3  # the q - 1 level-2 cosets of the level-1 sphere, scaled by p**nu, once per alpha
    assert all(n == 0 for n in per_translation) == order_free


@pytest.mark.parametrize("module", [operators, multidim, fourier], ids=lambda m: m.__name__)
def test_routes_do_no_numerator_arithmetic(module):
    # the integer encoding stays behind numerics.mixed_sum and its IntegerSum,
    # numerics.quarter_turn_sum and the table's own numerator tables: the
    # routes import none of its parts
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {
        "add_weighted",
        "ZERO_NUMERATORS",
        "Numerators",
        "integer_view",
        "mixed_weights",
        "float_view",
        "FloatView",
    }


def _counting_lanes(monkeypatch, module=operators, calls=None):
    """Wrap module.mixed_sum so that every call of a lane it hands out records its weights' function in ``calls`` (a new list by default); return the record.

    An ``IntegerSum`` stays one, so the routes that fold or read numerators
    still take it; only its own calls are recorded, not those of a lane
    folded from it.
    """
    calls = [] if calls is None else calls
    mixed_sum = module.mixed_sum

    def counted(weights_of, args, view):
        lane = mixed_sum(weights_of, args, view)
        if isinstance(lane, IntegerSum):

            class CountedSum(IntegerSum):
                def __call__(self, vectors):
                    calls.append(weights_of.__name__)
                    return IntegerSum.__call__(self, vectors)

            return CountedSum(*lane)
        return lane and (lambda vectors, counts=None: calls.append(weights_of.__name__) or lane(vectors, counts))

    monkeypatch.setattr(module, "mixed_sum", counted)
    return calls


def test_float_weights_take_the_mixed_lane(monkeypatch):
    # alpha = 1/2 over Q_2: q**(3j/2) is irrational at odd j, so the engine
    # weights fail the exactness check; the Riesz core, the engine and the
    # averaging route sum the rational table on the mixed lane instead, the
    # Riesz core against its kernels alone and with no lane pass, and every
    # value is the oracle's
    lanes = _counting_lanes(monkeypatch)
    passes = _counting(monkeypatch, TestFunction, "_lane_numerators")
    fp = FieldParams(2)
    f = _table(fp, -1, 3, [Fraction(i % 7 - 3, 1 + i % 4) for i in range(16)])
    params = OperatorParams(fp, Fraction(1, 2))
    slack = 1e-12 * l1_scale(f)
    got = riesz_potential(params, f).core.values
    for d, want in riesz_core_oracle(params, f).items():
        assert_same(got[d], want, slack)
    assert passes == []
    c = constants(params).c
    for nu in (None, 1, 2):
        j_hi = f.constancy_level - 1 if nu is None else nu
        for x, value in vladimirov_on_window(params, f, window_level=-2, nu=nu):
            assert_same(value, difference_shell_sum_oracle(params, ExtendedFunction(f), x, j_hi) * c, slack)
    # the Riesz core's 16 points, then 16 of the 32 window points lie in the
    # core, once per truncation
    assert lanes == ["_riesz_kernels"] * 16 + ["_shell_weights"] * 48
    lanes.clear()
    bridge = DimensionBridge(2, 1, Fraction(1, 2))
    for _, x in coset_walk(fp, -2, 3):
        assert same_parts(taibleson_direct(bridge, f, x), taibleson_direct_oracle(bridge, f, x))
        assert same_parts(averaging_apply(params, 1, f, x), averaging_oracle(params, 1, f, x))
    # without a tail every point of the averaging route takes the lane
    assert lanes == ["_averaging_weights"] * 32


@pytest.mark.parametrize("tail", ["ln", "float"])
def test_far_sum_off_the_rationals_takes_the_shell_lane(monkeypatch, tail):
    # exact weights (alpha = 1 over Q_2) against a rational core, under a tail
    # whose far sum is not an exact rational: the engine folds no such far
    # sum, so every window point sums its shell differences on mixed_sum and
    # adds the far part after the lane, bit for bit the coset loop
    folds = _counting(monkeypatch, IntegerSum, "folded")
    lanes = _counting_lanes(monkeypatch)
    fp = FieldParams(2)
    core = _table(fp, 0, 3, [Fraction((5 * i) % 11 - 5, 1 + i % 3) for i in range(8)])
    t = log_tail(0, Fraction(1, 3)) if tail == "ln" else power_tail(Fraction(1, 3), Fraction(-1, 2))
    u = ExtendedFunction(core, t)
    params = OperatorParams(fp, 1)
    assert all(w.exact is not None and w.exact.is_rational for w in operators._shell_weights(params, 3, 0, 2))
    far = _closed_far_sum(fp, PowerProfile(-2), u, -1)
    assert far.re.exact is None or not far.re.exact.is_rational
    c = constants(params).c
    for nu in (None, 1, 2):
        j_hi = 2 if nu is None else nu
        for x, value in vladimirov_on_window(params, u, window_level=0, nu=nu):
            assert same_parts(value, difference_shell_sum_oracle(params, u, x, j_hi) * c), (nu, x)
    assert folds == []
    assert lanes == ["_shell_weights"] * 8 * 3


def _value_bits(rows):
    """The points of a route's rows with each value's parts, a float by its bits; a raised package error as its type."""
    if isinstance(rows, type):
        return rows
    return [(x, _part(v.re), _part(v.im)) for x, v in rows]


def _zero_table_under_a_signed_zero_tail():
    """A +0.0 table under a -0.0 power tail: the lane's float zero meets the far part's -0.0, where an exact zero would keep its sign."""
    fp = FieldParams(2)
    core = TestFunction(fp, 0, 2, {d: ComplexValue.from_complex(0j) for d in enumerate_digits(fp, 0, 2)})
    return OperatorParams(fp, Fraction(1, 2)), ExtendedFunction(core, power_tail(complex(-0.0, -0.0), -1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=extended(["zero", "rational", "float"], float_tables()))
@example(case=_zero_table_under_a_signed_zero_tail())
def test_float_tables_take_the_lane_bit_for_bit(case):
    # an all-float core sums its window on the mixed lane, through its float
    # view, and gives every bit the ring loop gives with the view masked
    params, u = case
    for nu in (None, 1, 2):
        with pytest.MonkeyPatch.context() as mp:
            lanes = _counting_lanes(mp)
            got = outcome(vladimirov_on_window, params, u, u.window_level, nu)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TestFunction, "_float_view", property(lambda self: None))
            want = outcome(vladimirov_on_window, params, u, u.window_level, nu)
        assert _value_bits(got) == _value_bits(want)
        # every point of the window is a point of the core
        assert lanes == ["_shell_weights"] * len(u.core.values)


def test_float_riesz_core_takes_the_lane(monkeypatch):
    # the workload's float shape: the Riesz potential of a complex rational
    # table at alpha = 1/2 is all floats, and its truncated operator sums
    # every point of the window on the float view, no sphere from BallSums
    fp = FieldParams(2)
    phi = _table(fp, -2, 4, [ComplexValue.from_rational(Fraction(i % 7 - 3, 1 + i % 4), Fraction(i % 5 - 2, 1 + i % 3)) for i in range(64)])
    params = OperatorParams(fp, Fraction(1, 2))
    u = riesz_potential(params, phi)
    assert u.core._float_view is not None
    located = ExtendedFunction._sphere_sums_at
    calls = []
    monkeypatch.setattr(ExtendedFunction, "_sphere_sums_at", lambda self, d, e: calls.append((d, e)) or located(self, d, e))
    lanes = _counting_lanes(monkeypatch)
    for nu in (1, 2):
        assert len(vladimirov_on_window(params, u, -2, nu)) == 64
    assert calls == []
    assert lanes == ["_shell_weights"] * 128


def test_float_tables_keep_the_ring_off_the_engine(monkeypatch):
    # the averaging route reads no ball sum of an all-float table, since
    # a sphere as a ball minus a ball would reassociate float additions; the
    # Riesz potential of one walks every point's spheres through BallSums,
    # since scale_sum keeps a float zero where the lane would skip a term,
    # and reads them as its float pyramid's sibling sums, with no lane pass
    fp = FieldParams(2)
    f = _table(fp, -2, 4, [complex(0.25 * (i % 9) - 1.0, -0.0 if i % 5 else 0.0) for i in range(64)])
    assert f._float_view is not None
    params = OperatorParams(fp, Fraction(1, 2))
    for _, x in coset_walk(fp, -2, 4):
        assert same_parts(averaging_apply(params, 1, f, x), averaging_oracle(params, 1, f, x))
    assert "_pair_levels" not in f.__dict__
    located = ExtendedFunction._sphere_sums_at
    calls = []
    monkeypatch.setattr(ExtendedFunction, "_sphere_sums_at", lambda self, d, e: calls.append((d, e)) or located(self, d, e))
    passes = _counting(monkeypatch, TestFunction, "_lane_numerators")
    riesz_potential(params, f)
    assert len(calls) == 64
    assert passes == [] and "_ball_sums" not in f.__dict__


def _operator_routes(f: TestFunction, alpha) -> list[TestFunction]:
    """Run every operator route on f at order alpha; return the tables they read beyond f: the Riesz potential's core."""
    params, bridge = OperatorParams(f.fp, alpha), DimensionBridge(f.fp.p, f.fp.n, alpha)
    points = [x for _, x in coset_walk(f.fp, f.support_level - 1, f.constancy_level)]
    u = riesz_potential(params, f, f.support_level - 2)
    vladimirov_on_window(params, f)
    vladimirov_on_window(params, u)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypothesisBoundaryWarning)
        inversion_residual(params, 1, f, 1)
    minkowski_bound(params, 1, f, 1)
    multiplier_vladimirov(f.fp, params.gamma, f)
    lizorkin_project(f)
    for x in points:
        averaging_apply(params, 1, f, x)
        taibleson_direct(bridge, f, x)
        taibleson_via_extension(bridge, f, x)
    with pytest.raises(HypothesisViolationError):  # the zero-mean check reads the whole table's sum
        averaging_apply(OperatorParams(f.fp, 2 * f.fp.n), 1, f, points[0])
    return [u.core]


@pytest.mark.parametrize("kind", ["rational", "float"])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1], ids=str)
def test_tables_with_a_view_build_no_ball_sum_pyramid(kind, alpha):
    # every route sums a table with a view from its one pyramid,
    # _pair_levels: whole-table sums read its root and rows beyond the
    # support read the lane, so no route builds the BallSum pyramid
    rng = random.Random(3)
    if kind == "rational":
        parts = [(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for _ in range(16)]
    else:
        parts = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(16)]
    f = _table(FieldParams(2), -1, 3, [ComplexValue._coerce(complex(*c)) if kind == "float" else ComplexValue.from_rational(*c) for c in parts])
    assert (f._integer_view if kind == "rational" else f._float_view) is not None
    for table in [f, *_operator_routes(f, alpha)]:
        if table._integer_view is not None or table._float_view is not None:
            assert "_ball_sums" not in table.__dict__
    # a table with a ln part has no view: it sums on the ring, from BallSums
    one = NumericValue.from_exact(ExactScalar.ln_q(f.fp))
    logs = _table(f.fp, -1, 1, (0, one, -one, one))
    with pytest.MonkeyPatch.context() as mp:
        radial = _counting(mp, operators, "radial_sum")
        riesz_potential(OperatorParams(f.fp, alpha), logs)
    assert len(radial) == 4 and "_ball_sums" in logs.__dict__


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tables(ALL_KINDS), widen=st.integers(1, 3))
def test_multiplier_matches_double_loop(case, widen):
    params, f = case
    w = dilated_window(f, widen)
    got = multiplier_vladimirov(f.fp, params.gamma, f, w)
    want = multiplier_oracle(f.fp, params.gamma, f, w)
    assert [x for x, _ in got] == [x for x, _ in want]
    # relative to the largest value: a value that cancels to near zero keeps the terms' rounding
    scale = max([1.0] + [abs(b) for _, b in want])
    for (_, a), (_, b) in zip(got, want):
        assert abs(a - b) <= 1e-12 * scale


# (p, n, largest depth D): at most 125 cosets keep the direct sum quick
FOURIER_FIELDS = [(2, 1, 4), (3, 1, 4), (5, 1, 3), (2, 2, 3), (3, 2, 2), (5, 2, 1)]


@st.composite
def transform_tables(draw, kind_lists=(ALL_KINDS, EXACT_KINDS, ["zero"] * 6 + ALL_KINDS, ["float"])):
    p, n, max_depth = draw(st.sampled_from(FOURIER_FIELDS))
    fp = FieldParams(p, n)
    s = draw(st.integers(-2, 1))
    k = s + draw(st.integers(0, max_depth))
    kinds = draw(st.sampled_from(kind_lists))
    # nonzero entries only where the lowest `sparse` digits vanish: every phase
    # is then exact at more frequencies
    sparse = draw(st.integers(0, k - s))
    values = {
        d: CV_ZERO
        if any(any(ds[:sparse]) for ds in d)
        else ComplexValue(draw(scalars(fp, kinds)), draw(scalars(fp, ["zero", "zero"] + kinds)))
        for d in enumerate_digits(fp, s, k)
    }
    return TestFunction(fp, s, k, values)


def assert_same_transform(got: TestFunction, want: TestFunction) -> None:
    """Same levels and addresses; per part the same path, equal exact values, floats within 1e-12 of the largest."""
    assert (got.support_level, got.constancy_level) == (want.support_level, want.constancy_level)
    assert list(got.values) == list(want.values)
    scale = max([1.0] + [abs(v) for v in want.values.values()])
    for d, w in want.values.items():
        for a, b in ((got.values[d].re, w.re), (got.values[d].im, w.im)):
            assert a.is_exact == b.is_exact, (d, got.values[d], w)
            if a.is_exact:
                assert a.exact == b.exact, (d, got.values[d], w)
            else:
                assert abs(float(a) - float(b)) <= 1e-12 * scale, (d, got.values[d], w)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=transform_tables(), inverse=st.booleans())
def test_fft_matches_direct_character_sum(f, inverse):
    assert_same_transform(fourier_transform(f, inverse), fourier_transform_oracle(f, inverse))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(f=transform_tables([["zero", "rational", "rational"], ["zero"] * 4 + ["rational"]]), inverse=st.booleans())
def test_rational_transform_matches_direct_character_sum(f, inverse):
    # every part exact and rational: the quarter-turn outputs are integer sums on the table's integer view
    assert f._integer_view is not None
    assert_same_transform(fourier_transform(f, inverse), fourier_transform_oracle(f, inverse))


@settings(max_examples=60, deadline=None)
@given(case=tables(ALL_KINDS))
def test_integral_is_the_term_by_term_sum(case):
    _, f = case
    meas = Fraction(f.fp.q) ** (-f.constancy_level)
    want = CV_ZERO
    for v in f.values.values():
        want = want + v * meas
    assert_same(f.integral(), want, 1e-12 * l1_scale(f))


# ---------------------------------------------------------------------------
# pinned examples


def _table(fp, s, k, values):
    addrs = list(enumerate_digits(fp, s, k))
    return TestFunction(fp, s, k, {d: ComplexValue._coerce(v) for d, v in zip(addrs, values)})


@pytest.mark.parametrize("alpha", [Fraction(1, 2), 1])
def test_cancelling_sphere_still_demotes(alpha):
    # at the origin the two nonzero sources cancel on one sphere.  Against the
    # irrational kernel 2**(-1/2) each product is a float; at alpha = 1 the
    # kernel is a ln(2) multiple and so are the entries, and each product
    # leaves the exact ring.  Either way the term-by-term sum is a float zero.
    fp = FieldParams(2)
    one = NumericValue.from_rational(1) if alpha != 1 else NumericValue.from_exact(ExactScalar.ln_q(fp))
    phi = _table(fp, -1, 1, (0, 0, one, -one))
    params = OperatorParams(fp, alpha)
    u = riesz_potential(params, phi)
    at_origin = u.core.evaluate(zero_point(fp))
    assert not at_origin.re.is_exact and float(at_origin.re) == 0.0
    assert at_origin.im.is_exact_zero()
    riesz_case(params, phi, 0)


@st.composite
def cancelling_tables(draw):
    """(params, phi): parts in {0, 1, -1} over Q_p or its degree-2 model, p = 2 or 3, so that spheres often cancel, at an order whose kernels are partly or wholly irrational, or rational (gamma = 1/2 at q = 4) or ln(q) multiples (gamma = 1)."""
    fp = FieldParams(draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2])))
    s = draw(st.integers(-1, 1))
    k = s + draw(st.integers(0, {2: 4, 3: 3, 4: 3, 9: 2}[fp.q]))
    part = st.sampled_from([0, 1, -1])
    values = {d: ComplexValue.from_rational(draw(part), draw(part)) for d in enumerate_digits(fp, s, k)}
    alpha = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), 1, Fraction(3, 2)]))
    return OperatorParams(fp, alpha), TestFunction(fp, s, k, values)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cancelling_tables(), widen=st.integers(0, 2))
@example(case=(OperatorParams(FieldParams(2), Fraction(1, 2)), _table(FieldParams(2), -1, 1, (0, 0, 1, -1))), widen=0)
def test_rational_riesz_core_takes_the_mixed_lane_bit_for_bit(case, widen):
    # against float kernels a rational table sums every point of its support,
    # and each exponent beyond it, on the mixed lane, which skips a
    # float-kernel sphere only where none of its entries is nonzero; against
    # exact kernels times d it sums them on the exact lane.  Either way no row
    # runs the ring, and every bit, and every exact-versus-float decision, is
    # the ring's, run with the integer view masked
    params, phi = case
    w = dilated_window(phi, widen)
    with pytest.MonkeyPatch.context() as mp:
        lanes = _counting_lanes(mp)
        radial = _counting(mp, operators, "radial_sum")
        got = riesz_potential(params, phi, w).core.values
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TestFunction, "_integer_view", property(lambda self: None))
        want = riesz_potential(params, phi, w).core.values
    assert _value_bits(list(got.items())) == _value_bits(list(want.items()))
    exact = isinstance(mixed_sum(operators._riesz_weights, (params, w, phi.constancy_level), phi._integer_view), IntegerSum)
    assert radial == []
    assert lanes == ([] if exact else ["_riesz_kernels"] * (len(phi.values) + phi.support_level - w))


def test_rational_riesz_core_sums_no_sphere_values(monkeypatch):
    # the operators-float table shape at alpha = 1/2: the kernels 2**(j/2)
    # are irrational at odd j, yet no point of the support sums a BallSum
    # sphere or calls radial_sum.  Dilated by two levels, the window sums
    # each exponent beyond the support on the lane too, and a table with ln
    # entries still sums every point on the ring
    located = ExtendedFunction._sphere_sums_at
    calls = []
    monkeypatch.setattr(ExtendedFunction, "_sphere_sums_at", lambda self, d, e: calls.append((d, e)) or located(self, d, e))
    radial = _counting(monkeypatch, operators, "radial_sum")
    phi = _float_workload_table()
    params = OperatorParams(phi.fp, Fraction(1, 2))
    assert len(riesz_potential(params, phi).core.values) == 64
    assert calls == [] and radial == []
    assert len(riesz_potential(params, phi, phi.support_level - 2).core.values) == 256
    assert calls == [] and radial == []
    calls.clear()
    radial.clear()
    one = NumericValue.from_exact(ExactScalar.ln_q(phi.fp))
    logs = _table(phi.fp, -1, 1, (0, 0, one, -one))
    assert logs._integer_view is None
    riesz_potential(params, logs)
    assert len(calls) == len(radial) == 4


@pytest.mark.parametrize("tail", ["power", "log"])
def test_point_outside_window_sees_root_sum_and_tail(tail):
    fp = FieldParams(3)
    params = OperatorParams(fp, Fraction(1, 2))
    core = _table(fp, 0, 1, (1, 0, Fraction(-1, 2)))
    t = power_tail(2, Fraction(-1)) if tail == "power" else log_tail(1, Fraction(1, 3))
    u = ExtendedFunction(core, t)
    assert isinstance(u.tail, PowerTail if tail == "power" else LogTail)
    x = point(fp, Fraction(1, 9))
    for j_hi in range(-3, 1):
        assert_same(_difference_shell_sums(params, u, j_hi, NV_ONE)(x, *core._locate(x)), difference_shell_sum_oracle(params, u, x, j_hi), 1e-12)


def test_sphere_sums_are_sibling_ball_sums():
    fp = FieldParams(2, 2)
    values = [Fraction(i, 3) for i in range(16)]
    f = _table(fp, 0, 2, values)
    for d, pt, _v in f.items():
        sums = f.sphere_sums(d)
        for j, s in enumerate(sums):
            direct = sum(
                (f.evaluate(pt + rep).re.exact.a for rep in sphere_coset_reps(fp, j, 2)),
                Fraction(0),
            )
            assert s.value.re.exact.a == direct
    assert f.ball_sum().value.re.exact.a == sum(values)


@pytest.mark.parametrize("inverse", [False, True])
def test_quarter_phase_moves_the_float_to_the_other_part(inverse):
    # one entry, at A = 1, with a float real part and an exact-zero imaginary
    # part; at B = 1 the phase is i (forward) or -i (inverse), so v * phase
    # has an exact-zero real part and a float imaginary part
    fp = FieldParams(2)
    half = NumericValue.from_float(0.5)
    # addresses run A = 0, 2, 1, 3: digit a_j weighs p**j and the last digit varies fastest
    f = _table(fp, 0, 2, (0, 0, ComplexValue(half, NumericValue.from_rational(0)), 0))
    hat = fourier_transform(f, inverse)
    at_b1 = hat.values[((1, 0),)]
    assert at_b1.re.is_exact_zero()
    assert not at_b1.im.is_exact and float(at_b1.im) == (-0.125 if inverse else 0.125)
    at_b0 = hat.values[((0, 0),)]
    assert not at_b0.re.is_exact and at_b0.im.is_exact_zero()
    assert_same_transform(hat, fourier_transform_oracle(f, inverse))


def test_p2_quarter_turn_frequencies_stay_exact():
    # D = 4 at p = 2: the phase at B is exact for every A iff B = 4*k, and the
    # entry at A = 1 is nonzero, so exactly the outputs at B = 0, 4, 8, 12 are exact
    fp = FieldParams(2)
    f = _table(fp, -1, 3, [Fraction(i - 7, 3) + i * i for i in range(16)])
    for inverse in (False, True):
        hat = fourier_transform(f, inverse)
        for d, v in hat.values.items():
            b = sum(a * 2**j for j, a in enumerate(d[0]))
            assert v.re.is_exact == v.im.is_exact == (b % 4 == 0), (b, v)
        assert_same_transform(hat, fourier_transform_oracle(f, inverse))


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1)])
def test_second_log_base_in_a_quarter_turn_sum_demotes(order):
    # ln 2 and ln 3 in one sum leave the ring, unless the ln 2 terms have
    # cancelled before ln 3 comes; at p = 2, D = 2 every phase is a quarter turn
    fp = FieldParams(2)
    logs = [ExactScalar.ln_q(fp), ExactScalar.ln_q(fp, -1), ExactScalar.ln_q(FieldParams(3))]
    f = _table(fp, 0, 2, [NumericValue.from_exact(logs[i]) for i in order] + [1])
    for inverse in (False, True):
        assert_same_transform(fourier_transform(f, inverse), fourier_transform_oracle(f, inverse))
    assert fourier_transform(f).values[((0, 0),)].re.is_exact == (order == (0, 1, 2))


@pytest.mark.parametrize("inverse", [False, True])
def test_cancelling_quarter_turn_sum_stays_an_exact_zero(inverse):
    # at p = 2, D = 2 every phase is a quarter turn; the entries cancel at B = 0
    # (their sum) and at B = 2 (the phase (-1)**A), part by part
    fp = FieldParams(2)
    third = Fraction(1, 3)
    values = [ComplexValue.from_rational(re, im) for re, im in ((1, -2), (-1, 2), (third, 1), (-third, -1))]
    f = _table(fp, 0, 2, values)
    hat = fourier_transform(f, inverse)
    assert hat.values[((0, 0),)].is_exact_zero() and hat.values[((0, 1),)].is_exact_zero()
    assert_same_transform(hat, fourier_transform_oracle(f, inverse))


@pytest.mark.parametrize("entry", ["rational", "float", "log"])
def test_rational_quarter_turns_skip_the_ring_loop(monkeypatch, entry):
    # a rational N = 64 table sums its exact outputs on the integer view; one
    # float entry, or one ln(2) entry, sends every exact output through the ring
    calls = []
    ring = fourier._quarter_turn_sum
    monkeypatch.setattr(fourier, "_quarter_turn_sum", lambda *args: calls.append(args[1]) or ring(*args))
    fp = FieldParams(2)
    values = [Fraction(i % 7 - 3, 1 + i % 4) for i in range(64)]
    values[5] = {"rational": values[5], "float": 0.25, "log": NumericValue.from_exact(ExactScalar.ln_q(fp))}[entry]
    f = _table(fp, -2, 4, values)
    hat = fourier_transform(f)
    # D = 6: every phase is exact only at the outputs B = 0, 16, 32, 48
    exact_outputs = [d for d, v in hat.values.items() if v.is_exact]
    assert len(exact_outputs) == (0 if entry == "float" else 4)
    assert len(calls) == (0 if entry == "rational" else 4)
