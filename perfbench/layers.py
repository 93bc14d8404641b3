"""Per-layer numbers of the traced run: the size sweep, the scalar microbenchmarks,
and the per-module metrics assembled from the tracer's report."""

from __future__ import annotations

import math
import operator
import statistics
from fractions import Fraction
from time import perf_counter

from tracer import MODULES, VALUE_OPS
from ultrafrac.field import FieldParams
from ultrafrac.fourier import fourier_transform, multiplier_vladimirov
from ultrafrac.numerics import ComplexValue, ExactScalar, NumericValue
from ultrafrac.operators import OperatorParams, inversion_residual, riesz_potential, vladimirov_on_window
from workloads import FRACTION_REFERENCE_PER_S, fraction_reference, random_table

SWEEP_FUNCS = ("riesz_potential", "vladimirov_on_window", "inversion_residual", "fourier_transform", "multiplier_vladimirov")


def _sweep_point(fp: FieldParams, support_level: int, constancy_level: int, rng) -> dict[str, float]:
    """Untraced seconds of each swept function on one random table (alpha = 1), at nominal speed."""
    phi = random_table(fp, support_level, constancy_level, rng)
    params = OperatorParams(fp, 1)
    out = {}
    potential = {}
    calls = {
        "riesz_potential": lambda: potential.update(u=riesz_potential(params, phi)),
        "vladimirov_on_window": lambda: vladimirov_on_window(params, potential["u"], window_level=support_level, nu=1),
        "inversion_residual": lambda: inversion_residual(params, 1, phi, 1),
        "fourier_transform": lambda: fourier_transform(phi),
        "multiplier_vladimirov": lambda: multiplier_vladimirov(fp, params.gamma, phi),
    }
    for name, call in calls.items():
        out[name] = _mean_time(call) * _reference_scale()
    return out


def _mean_time(call, budget_s: float = 0.25) -> float:
    """Mean of calls repeated until the budget is spent (one call at large N)."""
    n = 0
    t0 = perf_counter()
    while True:
        call()
        n += 1
        spent = perf_counter() - t0
        if spent >= budget_s:
            return spent / n


def _reference_scale(budget_s: float = 0.1) -> float:
    """Reference rate right now over the nominal rate, as the end-to-end times are scaled."""
    n = 0
    t0 = perf_counter()
    while True:
        fraction_reference()
        n += 1
        spent = perf_counter() - t0
        if spent >= budget_s:
            return n / spent / FRACTION_REFERENCE_PER_S


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(rng, smoke: bool) -> dict[str, float]:
    """Log-log slope in N over p = 2, N in {16, 32, 64, 128}, plus one p = 3 and one degree-2 point."""
    fp2 = FieldParams(2)
    ks = (2, 3, 4, 5) if smoke else (4, 5, 6, 7)
    points = [_sweep_point(fp2, 0, k, rng) for k in ks]
    p3 = _sweep_point(FieldParams(3), 0, 2 if smoke else 3, rng)
    deg2 = _sweep_point(FieldParams(2, 2), 0, 1 if smoke else 2, rng)
    logn = [math.log(2**k) for k in ks]
    out = {}
    for name in SWEEP_FUNCS:
        out[f"sweep.{name}.n_slope"] = _slope(logn, [math.log(p[name]) for p in points])
        out[f"sweep.{name}.nmax_s"] = points[-1][name]
        out[f"sweep.{name}.p3_s"] = p3[name]
        out[f"sweep.{name}.deg2_s"] = deg2[name]
    return out


def microbench(smoke: bool) -> dict[str, float]:
    """Nanoseconds per scalar-ring operation, median of five timed loops of 50 ms, at nominal speed."""
    fp = FieldParams(2)
    a = NumericValue.from_rational(Fraction(3, 8))
    b = NumericValue.from_rational(Fraction(-5, 16))
    log_a = NumericValue.from_exact(ExactScalar.ln_q(fp, Fraction(3, 4)))
    log_b = NumericValue.from_exact(ExactScalar.inv_ln_q(fp, Fraction(-1, 3)))
    fa = NumericValue.from_float(0.7071067811865476)
    fb = NumericValue.from_float(1.4142135623730951)
    ca, cb = ComplexValue(fa, fb), ComplexValue(fb, fa)
    cases = {
        "numerics.exact_add_ns": (operator.add, a, b, True),
        "numerics.exact_mul_ns": (operator.mul, a, b, True),
        "numerics.log_mul_ns": (operator.mul, log_a, log_b, True),
        "numerics.float_mul_ns": (operator.mul, fa, fb, False),
        "numerics.complex_mul_ns": (operator.mul, ca, cb, False),
    }
    budget_s = 0.005 if smoke else 0.05
    out = {}
    for name, (op, x, y, exact) in cases.items():
        if op(x, y).is_exact != exact:
            raise AssertionError(f"{name}: operands left their arithmetic path")
        samples = [_mean_time(lambda: [op(x, y) for _ in range(100)], budget_s) / 100 * 1e9 for _ in range(5)]
        out[name] = statistics.median(samples) * _reference_scale()
    return out


def module_metrics(report: dict, n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from a (merged) tracer report."""
    calls, incl, selfs, ctr = report["calls"], report["incl_s"], report["self_s"], report["counters"]

    def per(x: float) -> float:
        return x / n_ops

    out = {f"{m}.self_s": per(selfs.get(m, 0.0)) for m in MODULES}
    hits, misses = ctr.get("field.cache_hits", 0), ctr.get("field.cache_misses", 0)
    out.update(
        {
            "numerics.exact_scalars_built": per(calls.get("numerics.ExactScalar.__init__", 0)),
            "numerics.value_ops": per(sum(calls.get(n, 0) for n in VALUE_OPS)),
            "numerics.demotions": per(ctr.get("numerics.demotions", 0)),
            "numerics.q_pow_calls": per(calls.get("numerics.q_pow", 0)),
            "field.cosets_enumerated": per(ctr.get("field.cosets_enumerated", 0)),
            "field.abs_exponent_calls": per(calls.get("field.abs_exponent", 0)),
            "field.coset_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "integrate.profile_coset_integral_calls": per(calls.get("integrate.profile_coset_integral", 0)),
            "integrate.oracle_s": per(sum(t for n, t in incl.items() if n.startswith("integrate.oracle_"))),
            "functions.evaluate_calls": per(
                calls.get("functions.TestFunction.evaluate", 0) + calls.get("functions.ExtendedFunction.evaluate", 0)
            ),
            "functions.lp_distance_s": per(incl.get("functions.lp_distance", 0.0)),
            "operators.constants_calls": per(calls.get("operators.constants", 0)),
            "fourier.phase_value_calls": per(calls.get("fourier.phase_value", 0)),
        }
    )
    for fn in ("riesz_potential", "vladimirov_on_window", "averaging_apply", "inversion_residual", "kernel_r_oracle"):
        out[f"operators.{fn}_s"] = per(incl.get(f"operators.{fn}", 0.0))
    return out


def units() -> dict[str, str]:
    """Unit of every per-layer metric; module figures are per traced op."""
    out = {f"{m}.self_s": "s/op" for m in MODULES}
    for name in (
        "numerics.exact_scalars_built",
        "numerics.value_ops",
        "numerics.demotions",
        "numerics.q_pow_calls",
        "field.cosets_enumerated",
        "field.abs_exponent_calls",
        "integrate.profile_coset_integral_calls",
        "functions.evaluate_calls",
        "operators.constants_calls",
        "fourier.phase_value_calls",
    ):
        out[name] = "count/op"
    for name in ("integrate.oracle_s", "functions.lp_distance_s") + tuple(
        f"operators.{fn}_s" for fn in ("riesz_potential", "vladimirov_on_window", "averaging_apply", "inversion_residual", "kernel_r_oracle")
    ):
        out[name] = "s/op"
    out["field.coset_cache_hit_ratio"] = "1"
    out["cli.import_s"] = "s"
    out["cli.process_start_s"] = "s"
    out["trace.overhead_ratio"] = "1"
    for fn in SWEEP_FUNCS:
        out[f"sweep.{fn}.n_slope"] = "1"
        for point in ("nmax_s", "p3_s", "deg2_s"):
            out[f"sweep.{fn}.{point}"] = "s"
    for name in ("exact_add_ns", "exact_mul_ns", "log_mul_ns", "float_mul_ns", "complex_mul_ns"):
        out[f"numerics.{name}"] = "ns"
    return out
