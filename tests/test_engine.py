"""Differential tests of the ball-sum engine against the per-pair coset loops.

``riesz_potential`` and ``_difference_shell_sum`` sum each table over whole
balls and spheres.  The oracles below are the direct loops over every
(output, source) coset pair that the engine replaced; on exact inputs both
must give the same exact values and the same exact-versus-float decision
for every part of every value.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ultrafrac.field import (
    FieldParams,
    abs_exponent,
    digits_to_point,
    enumerate_digits,
    point,
    sphere_coset_reps,
    zero_point,
)
from ultrafrac.functions import (
    ExtendedFunction,
    LogTail,
    PowerTail,
    TestFunction,
    log_tail,
    power_tail,
)
from ultrafrac.integrate import LogProfile, PowerProfile, profile_coset_integral
from ultrafrac.numerics import CV_ZERO, ComplexValue, ExactScalar, NumericValue, q_pow
from ultrafrac.operators import (
    OperatorParams,
    _difference_shell_sum,
    _far_difference_sum,
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
    return total + _far_difference_sum(params, u, ux, min(j_t - 1, j_hi))


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
            assert_same(_difference_shell_sum(params, u, x, j_hi), want, slack)


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
        assert_same(_difference_shell_sum(params, u, x, j_hi), difference_shell_sum_oracle(params, u, x, j_hi), 1e-12)


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
