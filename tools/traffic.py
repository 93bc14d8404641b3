"""Line traffic of the library: which statements each source of work reaches.

    python3 tools/traffic.py [--cycles N] [--smoke] [FILE:LINE ...]

Five sources run in one process, each under its own ``trace.Trace``, and
only the counts of ``src/ultrafrac`` are kept:

* ``import``: importing the library and the two modules below, so that
  code run only at import time counts as reached;
* ``operators-exact`` and ``operators-float``: N cycles (default 2) of the
  ops of that workload in ``perfbench/workloads.py``, built from seed 7,
  or from its small smoke tables with ``--smoke``;
* ``cli``: the 15 golden CLI commands of that file, through
  ``ultrafrac.cli.run``, with their output discarded;
* ``fingerprint``: the three digested value streams of
  ``tests/test_value_fingerprint.py``: ``_stream()``,
  ``_log_table_stream()`` and ``_float_table_stream()``.

With FILE:LINE arguments (FILE relative to ``src/ultrafrac``, for example
``numerics.py:620``) it prints how often each source ran each of those
lines.  Without them it prints every executable line of the library that
no source reaches, as FILE:LINE and its code (the lines ``trace`` reports
as missing).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import trace
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ultrafrac"
SEED = 7  # the seed of the traced perfbench runs


def _traced(work) -> Counter:
    """Run work() under ``trace`` and return its line counts in the library, keyed (file name, line)."""
    # no ignoredirs: trace caches an ignore decision by bare module name, so
    # ignoring the standard library would drop ultrafrac/__init__.py as well
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(work)
    prefix = str(PACKAGE) + "/"
    return Counter(
        {(name[len(prefix) :], line): n for (name, line), n in tracer.results().counts.items() if name.startswith(prefix)}
    )


def _import() -> None:
    import test_value_fingerprint  # noqa: F401
    import ultrafrac.cli  # noqa: F401
    import workloads  # noqa: F401


def _workload(name: str, cycles: int, smoke: bool):
    import workloads

    workload = workloads.WORKLOADS[name](SEED, smoke)  # tables are built before tracing starts

    def work():
        for _ in range(cycles):
            for op in workload.cycle():
                op.run()

    return work


def _cli():
    import workloads
    from ultrafrac.cli import run

    def work():
        for command in workloads.GOLDEN_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run(command.split())
            if code != 0:
                raise SystemExit(f"{command!r} exited {code}")

    return work


def _fingerprint():
    import warnings

    import test_value_fingerprint

    def work():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            test_value_fingerprint._stream()
            test_value_fingerprint._log_table_stream()
            test_value_fingerprint._float_table_stream()

    return work


def _unreached(hits: dict[str, Counter]) -> list[str]:
    """FILE:LINE and its code for every executable line of the library that no source reaches."""
    reached = {key for counter in hits.values() for key in counter}
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        # line 0 (a module's first instruction) and None (3.13: no source line) are no lines of code
        for line in sorted(filter(None, trace._find_executable_linenos(str(path)))):
            if (path.name, line) not in reached:
                out.append(f"{path.name}:{line}: {lines[line - 1].strip()}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cycles", type=int, default=2, help="cycles of each operator workload (default 2)")
    ap.add_argument("--smoke", action="store_true", help="the workloads' small smoke tables")
    ap.add_argument("lines", nargs="*", metavar="FILE:LINE", help="lines to count, FILE relative to src/ultrafrac")
    args = ap.parse_args(argv)
    wanted = []
    for spec in args.lines:
        name, _, line = spec.rpartition(":")
        if not (PACKAGE / name).is_file() or not line.isdigit():
            ap.error(f"not a FILE:LINE of src/ultrafrac: {spec!r}")
        wanted.append((name, int(line)))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    hits = {"import": _traced(_import)}
    for name in ("operators-exact", "operators-float"):
        hits[name] = _traced(_workload(name, args.cycles, args.smoke))
    hits["cli"] = _traced(_cli())
    hits["fingerprint"] = _traced(_fingerprint())

    if wanted:
        print("line," + ",".join(hits))
        for key in wanted:
            print(f"{key[0]}:{key[1]}," + ",".join(str(counter[key]) for counter in hits.values()))
    else:
        for row in _unreached(hits):
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
