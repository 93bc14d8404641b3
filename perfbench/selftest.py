"""Self-test of the benchmark itself: python3 perfbench/selftest.py

For every workload, a smoke run at tiny N must emit exactly the metrics named
in BENCHMARK.json (end-to-end untraced, per-layer traced) with every check
passing; a run with one deliberately wrong output (a perturbed operator value,
or one altered CSV byte) must count a failed op; and a checkout holding only
BENCHMARK.json and the benchmark's files must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INJECT = {"operators-exact": "value", "operators-float": "value", "cli-oneshot": "csv"}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(run(name, trace))
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{name} --trace {trace}: metrics and units match BENCHMARK.json {key}")
            check(res["correct"] and res["failed"] == 0, f"{name} --trace {trace}: every check passes")
            if trace == 0:
                check(res["metrics"]["pass_ratio"]["value"] == 1.0, f"{name}: pass_ratio is 1.0")
        res = result(run(name, 0, "--inject", INJECT[name]))
        check(
            not res["correct"] and res["failed"] == 1 and res["metrics"]["pass_ratio"]["value"] < 1.0,
            f"{name} --inject {INJECT[name]}: exactly one failed op lowers pass_ratio",
        )

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        printed = any(line.startswith('{"correct"') for line in done.stdout.splitlines())
        check(done.returncode != 0 and not printed, "without the sources: non-zero exit and no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
