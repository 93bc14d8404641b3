"""Parent-versus-change benchmark records: alternating perfbench pairs and an in-process sweep.

    python3 tools/bench_record.py pairs --parent A --change B --pairs 10 --seconds 30 --out pairs.jsonl
    python3 tools/bench_record.py summary --runs pairs.jsonl
    python3 tools/bench_record.py sweep --parent A --change B

A and B are two source checkouts (for example ``git archive`` of each commit,
unpacked), each with its own ``src/`` and ``perfbench/``.

``pairs`` runs ``perfbench/run.py --trace 0`` once per side for every pair
index and workload, on seeds 41, 42, ...: the parent first on even pair
indices and the change first on odd ones, the three workloads interleaved
within each index.  Each run appends one JSON line to --out as it finishes.
``summary`` prints, per workload and end-to-end metric, the quartiles of
each side, how many pairs the change wins, the median change against the
bound in ``BENCHMARK.json``, and a verdict: ``unresolved`` where the
parent's interquartile range, relative to its median, exceeds the bound
(unless every change run beats every parent run), else ``within_bound`` or
``beyond_bound`` by the median change.  ``gain`` applies the rule for
claiming an improvement: the change wins at least nine tenths of the pairs
(ties count for neither side) and its median is better than the parent's
by more than the parent's interquartile range.  A workload with fewer
than two pairs has no quartiles and reads ``too few pairs``.

``sweep`` times four routes in a fresh interpreter per side and size, on
one random exact table per size (p = 2, n = 1, support level 0, N = 16, 64,
256, 1024 cosets), alternating the sides: at alpha = 1
``operators.minkowski_bound`` (L^2, nu = 1), ``operators.riesz_potential``
and ``operators.vladimirov_on_window`` on the table's own window, and
``operators.riesz_potential`` at alpha = 1/2, whose kernels are partly
irrational.  Each route is timed over a loop of calls, each on a new copy
of the table, grown until the loop lasts at least SWEEP_MIN_SECONDS, since
a single call below about a millisecond is timer and scheduler noise.  Per
route it prints the seconds per call (the best loop of the repeats), the
log-log slope in N, the speedup and whether both sides give the same
values in every bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("operators-exact", "operators-float", "cli-oneshot")
FIRST_SEED = 41
SWEEP_LEVELS = (4, 6, 8, 10)  # N = 2**k
SWEEP_MIN_SECONDS = 0.2  # the shortest timed loop of one route at one size
ROOT = Path(__file__).resolve().parent.parent


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], **metrics}


def pairs(args) -> None:
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    with open(args.out, "a") as out:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in WORKLOADS:
                for side in order:
                    record = {"workload": workload, "side": side, "seed": seed, **_run(sides[side], workload, seed, args.seconds)}
                    out.write(json.dumps(record) + "\n")
                    out.flush()


def _quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summary(args) -> None:
    runs = [json.loads(line) for line in Path(args.runs).read_text().splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        paired = [s for s in by_seed.values() if len(s) == 2]
        if len(paired) < 2:
            out[workload] = {"pairs": len(paired), "all_correct": all(r["correct"] for r in mine), "verdict": "too few pairs"}
            continue
        table = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            par = [s["parent"][name] for s in paired]
            chg = [s["change"][name] for s in paired]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            ties = sum(c == p for p, c in zip(par, chg))
            mp, mc = statistics.median(par), statistics.median(chg)
            change = (mc - mp) / mp if mp else 0.0
            worse = change if lower else -change
            q1, _, q3 = statistics.quantiles(par, n=4, method="inclusive")
            better_by = mp - mc if lower else mc - mp
            spread = (q3 - q1) / abs(mp) if mp else (0.0 if q3 == q1 else math.inf)
            separated = max(chg) < min(par) if lower else min(chg) > max(par)
            if spread > metric["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "within_bound" if worse <= metric["bound"] else "beyond_bound"
            table[name] = {
                "parent_q1_median_q3": _quartiles(par),
                "change_q1_median_q3": _quartiles(chg),
                "change_wins": f"{wins}/{len(paired)}",
                "ties": ties,
                "median_change": round(change, 4),
                "parent_iqr": round(q3 - q1, 4),
                "within_bound": worse <= metric["bound"],
                "verdict": verdict,
                "gain": 10 * wins >= 9 * len(paired) and better_by > q3 - q1,
            }
        out[workload] = {"pairs": len(paired), "all_correct": all(r["correct"] for r in mine), **table}
    print(json.dumps(out, indent=1))


SWEEP_ROUTES = ("minkowski_bound", "riesz_potential", "vladimirov_on_window", "riesz_potential_half")


def _seconds_per_call(route, fresh, repeats: int) -> tuple[float, object]:
    """route over a loop of new tables from ``fresh``: the loop's length doubles until it lasts SWEEP_MIN_SECONDS, then the best of ``repeats`` loops of that length, per call, and the last call's value."""
    import time

    def loop(calls: int) -> tuple[float, object]:
        tables = [fresh() for _ in range(calls)]
        t0 = time.perf_counter()
        for phi in tables:
            value = route(phi)
        return time.perf_counter() - t0, value

    calls = 1
    elapsed, value = loop(calls)
    while elapsed < SWEEP_MIN_SECONDS:
        calls *= 2
        elapsed, value = loop(calls)
    for _ in range(repeats - 1):
        elapsed = min(elapsed, loop(calls)[0])
    return elapsed / calls, value


def _sweep_point(level: int, repeats: int) -> None:
    """One size in this interpreter: print, per route, seconds per call and a digest of its values' bits."""
    import hashlib
    import random
    from fractions import Fraction

    from ultrafrac.field import FieldParams, enumerate_digits
    from ultrafrac.functions import TestFunction
    from ultrafrac.numerics import ComplexValue
    from ultrafrac.operators import OperatorParams, minkowski_bound, riesz_potential, vladimirov_on_window

    fp = FieldParams(2)
    params, half = OperatorParams(fp, 1), OperatorParams(fp, Fraction(1, 2))
    rng = random.Random(level)
    values = {d: ComplexValue.from_rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for d in enumerate_digits(fp, 0, level)}
    routes = {
        "minkowski_bound": lambda phi: minkowski_bound(params, 2, phi, 1).hex(),
        "riesz_potential": lambda phi: [str(v) for v in riesz_potential(params, phi).core.values.values()],
        "vladimirov_on_window": lambda phi: [str(v) for _, v in vladimirov_on_window(params, phi, 0)],
        "riesz_potential_half": lambda phi: [str(v) for v in riesz_potential(half, phi).core.values.values()],
    }
    out = {}
    for name in SWEEP_ROUTES:
        # a new table per call: no cached view or pyramid is reused
        seconds, value = _seconds_per_call(routes[name], lambda: TestFunction(fp, 0, level, dict(values)), repeats)
        out[name] = {"seconds": seconds, "value": hashlib.sha256(json.dumps(value).encode()).hexdigest()}
    print(json.dumps(out))


def _slope(levels, seconds) -> float:
    xs = [k * math.log(2) for k in levels]
    ys = [math.log(s) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def sweep(args) -> None:
    sides = {"parent": Path(args.parent), "change": Path(args.change)}
    points = {side: {} for side in sides}
    for i, level in enumerate(SWEEP_LEVELS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, __file__, "sweep-point", "--level", str(level), "--repeats", str(args.repeats)]
            env = {**os.environ, "PYTHONPATH": str(sides[side] / "src")}
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env).stdout
            points[side][level] = json.loads(out)
    result = {"N": [2**k for k in SWEEP_LEVELS]}
    for route in SWEEP_ROUTES:
        table = {}
        for side, by_level in points.items():
            seconds = [by_level[k][route]["seconds"] for k in SWEEP_LEVELS]
            table[side] = {"seconds": [round(s, 6) for s in seconds], "n_slope": round(_slope(SWEEP_LEVELS, seconds), 3)}
        table["speedup"] = [round(p / c, 2) for p, c in zip(table["parent"]["seconds"], table["change"]["seconds"])]
        table["same_bits"] = all(points["parent"][k][route]["value"] == points["change"][k][route]["value"] for k in SWEEP_LEVELS)
        result[route] = table
    print(json.dumps(result, indent=1))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("--runs", required=True)
    w = sub.add_parser("sweep")
    w.add_argument("--parent", required=True)
    w.add_argument("--change", required=True)
    w.add_argument("--repeats", type=int, default=3)
    pt = sub.add_parser("sweep-point")
    pt.add_argument("--level", type=int, required=True)
    pt.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.command == "sweep-point":
        _sweep_point(args.level, args.repeats)
    else:
        {"pairs": pairs, "summary": summary, "sweep": sweep}[args.command](args)


if __name__ == "__main__":
    main()
