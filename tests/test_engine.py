"""Differential tests of the ball-sum engine against the per-pair coset loops.

``riesz_potential``, ``_difference_shell_sums`` and ``integrate_product`` sum
each table over whole balls and spheres (``ExtendedFunction.sphere_sums``).
The oracles below are the direct loops over every (output, source) coset
pair that the engine replaced; on exact inputs both must give the same exact
values and the same exact-versus-float decision for every part of every
value.  ``fourier_transform`` is checked against the direct character sum
it replaced, and ``multiplier_vladimirov`` against its former double loop
over (output, frequency) pairs.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from test_value_fingerprint import _part
from ultrafrac.errors import UltrafracError, UnsupportedIntegrandError
from ultrafrac.field import (
    FieldParams,
    SphereSpec,
    abs_exponent,
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
    log_tail,
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
from ultrafrac.numerics import CV_ZERO, ComplexValue, ExactScalar, NumericValue, geometric_tail, q_pow
from ultrafrac.operators import (
    OperatorParams,
    _difference_shell_sums,
    constants,
    riesz_potential,
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
    if kind == "ln":
        return NumericValue.from_exact(ExactScalar.ln_q(fp, r))
    if kind == "inv_ln":
        return NumericValue.from_exact(ExactScalar.inv_ln_q(fp, r))
    return NumericValue.from_rational(r)


EXACT_KINDS = ["zero", "rational", "rational", "ln", "inv_ln"]
ALL_KINDS = EXACT_KINDS + ["float", "float"]


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
def extended(draw, kinds):
    params, core = draw(tables(kinds))
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
            assert_same(_difference_shell_sums(params, u, j_hi)(x), want, slack)


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
@given(case=tables(EXACT_KINDS), widen=st.integers(0, 2))
def test_riesz_engine_matches_pair_loop_on_exact_inputs(case, widen):
    riesz_case(*case, widen)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tables(ALL_KINDS), widen=st.integers(0, 1))
def test_riesz_engine_matches_pair_loop_on_float_inputs(case, widen):
    riesz_case(*case, widen)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=extended(EXACT_KINDS), widen=st.integers(0, 2), cut=st.integers(1, 5))
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
def transform_tables(draw):
    p, n, max_depth = draw(st.sampled_from(FOURIER_FIELDS))
    fp = FieldParams(p, n)
    s = draw(st.integers(-2, 1))
    k = s + draw(st.integers(0, max_depth))
    kinds = draw(st.sampled_from([ALL_KINDS, EXACT_KINDS, ["zero"] * 6 + ALL_KINDS, ["float"]]))
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
        assert_same(_difference_shell_sums(params, u, j_hi)(x), difference_shell_sum_oracle(params, u, x, j_hi), 1e-12)


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
