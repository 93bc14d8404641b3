"""Benchmark of ultrafrac: one workload, one seed, one run.

    python3 perfbench/run.py --workload operators-exact --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from ./src.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run of the same workload.
The line before it holds diagnostics (tail percentile, sample counts, the raw
wall-clock figures, the reference-loop rate and the load average).  Exit code 0
means the run completed, whether or not every check passed ("correct" says that).

On a shared 2-vCPU virtual machine, the speed of Python code drifts by up to
40% from one minute to the next.  Every end-to-end time is therefore scaled to
a nominal machine: between ops the benchmark runs a fixed reference unit of
work like the ops' own (Fraction arithmetic for the operator workloads, a
fresh interpreter importing a few stdlib modules for cli-oneshot), and times
are multiplied by the run's reference rate over the workload's nominal rate.
On that VM this cut the run-to-run spread of ops_per_s from 13-37% to 1.5-5%.
The process and its children are pinned to one CPU, so the reference runs
where the ops run.  The unscaled figures are in the diagnostics line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 5
PROBE_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["operators-exact", "operators-float", "cli-oneshot"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny tables, for the self-test")
    ap.add_argument("--inject", choices=["value", "csv"], default=None, help="make one output wrong, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_library() -> None:
    """Put ./src first on the path and make sure that is where ultrafrac comes from."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ultrafrac

    if Path(ultrafrac.__file__).resolve().parent != (SRC / "ultrafrac").resolve():
        raise SystemExit(f"perfbench: ultrafrac imported from {ultrafrac.__file__}, not from {SRC}")


def setup(args, scratch: Path):
    """Imports, input generation, golden outputs and one warm-up cycle; returns the workload."""
    import_library()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliOneshot:
        wl = cls(args.seed, args.smoke, ROOT, scratch)
    else:
        wl = cls(args.seed, args.smoke)
    for op in wl.warm_cycle():
        op.run()
    wl.injector = workloads.Injector(args.inject)
    return wl


def child_output(argv: list[str]) -> str:
    """Run a probe child and return the last line it prints."""
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True, timeout=120)
    return done.stdout.strip().splitlines()[-1]


class Speed:
    """Reference rate measured during a run; ``scale`` maps its times to the nominal machine."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.units = 0
        self.seconds = 0.0

    def sample(self, min_seconds: float = 0.0) -> None:
        """Run reference units, at least one and until ``min_seconds`` have passed."""
        t0 = perf_counter()
        while True:
            self.wl.reference()
            self.units += 1
            if perf_counter() - t0 >= min_seconds:
                break
        self.seconds += perf_counter() - t0

    @property
    def per_s(self) -> float:
        return self.units / self.seconds

    @property
    def scale(self) -> float:
        return self.per_s / self.wl.reference_per_s


def setup_seconds(args) -> list[dict]:
    """Set-up time of fresh processes, each doing the full set-up once."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        argv.append("--smoke")
    return [json.loads(child_output(argv)) for _ in range(SETUP_SAMPLES)]


class Tally:
    """Latency, failures and exactness of the ops run; samples the reference after each op."""

    def __init__(self, speed: Speed | None = None) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.exact = 0
        self.values = 0
        self.speed = speed

    def run(self, op) -> None:
        t0 = perf_counter()
        try:
            res = op.run()
        except Exception:  # an op that raises is a failed op; the run goes on
            self.latencies.append(perf_counter() - t0)
            self.failed += 1
            print(f"perfbench: op {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            self.latencies.append(perf_counter() - t0)
            self.exact += res.exact
            self.values += res.values
        if self.speed is not None and len(self.latencies) % self.speed.wl.reference_every == 0:
            self.speed.sample()


def percentile(xs: list[float], pct: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[pct - 1] if len(xs) > 1 else xs[0]


def timed_loop(wl, seconds: float, speed: Speed) -> tuple[Tally, float, list[float]]:
    """Closed loop, one client: whole cycles until the time is up; returns the cycle times too."""
    tally = Tally(speed)
    cycle_s = []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        for op in wl.cycle():
            tally.run(op)
        cycle_s.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if elapsed >= seconds:
            return tally, elapsed, cycle_s


def peak_rss_mb(wl) -> float:
    import resource

    if hasattr(wl, "peak_rss_mb"):
        return wl.peak_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(args, scratch: Path) -> tuple[dict, dict, Tally]:
    setups = setup_seconds(args)
    wl = setup(args, scratch)
    speed = Speed(wl)
    tally, elapsed, cycle_s = timed_loop(wl, args.seconds, speed)
    lat_ms = [x * 1e3 for x in tally.latencies]
    n = len(lat_ms)
    op_s = sum(tally.latencies)
    raw = {
        "setup_s": statistics.median(s["seconds"] for s in setups),
        "ops_per_s": n / op_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": percentile(lat_ms, wl.tail_percentile),
    }
    scale = speed.scale
    metrics = {
        "setup_s": (statistics.median(s["seconds"] * s["scale"] for s in setups), "s"),
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "pass_ratio": ((n - tally.failed) / n, "1"),
        "exact_share": (tally.exact / tally.values if tally.values else 0.0, "1"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    diag = {
        "tail_percentile": wl.tail_percentile,
        "samples": n,
        "beyond_tail": sum(1 for x in lat_ms if x > raw["op_tail_ms"]),
        "output_values": tally.values,
        "raw_wall_clock": raw,
        "reference_per_s": speed.per_s,
        "setup_reference_scale": [s["scale"] for s in setups],
        "cycle_s": cycle_s,
        "elapsed_s": elapsed,
    }
    return metrics, diag, tally


def traced(args, scratch: Path) -> tuple[dict, dict, Tally]:
    wl = setup(args, scratch)
    import layers
    import tracer as tracing
    import workloads

    process_start = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT, timeout=60)
        process_start.append(perf_counter() - t0)
    import_probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import ultrafrac.cli; print(time.perf_counter() - t)"
    )
    import_s = [float(child_output([sys.executable, "-c", import_probe, str(SRC)])) for _ in range(PROBE_REPEATS)]

    speed = Speed(wl)
    speed.sample(0.1)
    extra = layers.sweep(wl.rng, args.smoke)
    extra.update(layers.microbench(args.smoke))

    tally = Tally()
    plain_s = traced_s = 0.0
    n_traced = 0
    reports: list[dict] = []
    span_dumps: list[dict] = []
    is_cli = isinstance(wl, workloads.CliOneshot)
    t_start = perf_counter()
    cycles = 0
    while True:
        ops = wl.cycle()
        order = (False, True) if cycles % 2 == 0 else (True, False)
        for with_trace in order:
            tr = None
            if with_trace and not is_cli:
                tr = tracing.Tracer()
                tr.install()
            if is_cli:
                wl.traced = with_trace
            t0 = perf_counter()
            for op in ops:
                if tr is not None:
                    with tr.span(f"bench.{op.name}"):
                        tally.run(op)
                else:
                    tally.run(op)
            dt = perf_counter() - t0
            if with_trace:
                traced_s += dt
                n_traced += len(ops)
            else:
                plain_s += dt
            if tr is not None:
                tr.uninstall()
                reports.append(tr.report())
                span_dumps.append(tr.spans())
        cycles += 1
        if perf_counter() - t_start >= args.seconds:
            break
    speed.sample(0.1)
    if is_cli:
        reports = [r["report"] for r in wl.reports]
        span_dumps = [r["spans"] for r in wl.reports]
    report = tracing.merge_reports(reports)
    metrics = layers.module_metrics(report, n_traced)
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics["cli.process_start_s"] = statistics.median(process_start)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics.update(extra)
    OUT.mkdir(exist_ok=True)
    tracing.write_spans(OUT / f"spans-{args.workload}.json", span_dumps)
    units = layers.units()
    diag = {
        "cycles": cycles,
        "traced_ops": n_traced,
        "spans": sum(len(s["span_name"]) for s in span_dumps),
        "reference_per_s": speed.per_s,
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, diag, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ultrafrac" / "__init__.py").is_file():
        print(f"perfbench: no ultrafrac sources under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        if args.setup_probe:
            t0 = perf_counter()
            wl = setup(args, scratch)
            seconds = perf_counter() - t0
            speed = Speed(wl)
            speed.sample(0.15)
            print(json.dumps({"seconds": seconds, "scale": speed.scale}))
            return 0
        if args.trace:
            metrics, diag, tally = traced(args, scratch)
        else:
            metrics, diag, tally = end_to_end(args, scratch)
    diag.update({"workload": args.workload, "seed": args.seed, "loadavg": list(os.getloadavg())})
    print(json.dumps({"diagnostics": diag}))
    result = {
        "correct": tally.failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
