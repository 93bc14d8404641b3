"""Line traffic of the library: which statements each source of work reaches.

    python3 tools/traffic.py [--cycles N] [--smoke] [--caches] [FILE:LINE ...]

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

With ``--caches`` it prints, instead of that list, the traffic of every
module-level ``functools`` cache of ``ultrafrac``: each cache is cleared
before each source, and its ``hits/misses`` after that source are one cell
of the row ``module.function,<import>,<operators-exact>,...``.
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


def _caches() -> dict[str, object]:
    """Every module-level ``functools`` cache of the loaded library, as module.function, each under the module that defines it."""
    return {
        f"{name.rpartition('.')[2]}.{attr}": fn
        for name, module in sorted(sys.modules.items())
        if name.startswith("ultrafrac.")
        for attr, fn in vars(module).items()
        if callable(getattr(fn, "cache_clear", None)) and getattr(fn, "__module__", None) == name
    }


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
    ap.add_argument("--caches", action="store_true", help="print each module-level cache's hits/misses per source")
    ap.add_argument("lines", nargs="*", metavar="FILE:LINE", help="lines to count, FILE relative to src/ultrafrac")
    args = ap.parse_args(argv)
    wanted = []
    for spec in args.lines:
        name, _, line = spec.rpartition(":")
        if not (PACKAGE / name).is_file() or not line.isdigit():
            ap.error(f"not a FILE:LINE of src/ultrafrac: {spec!r}")
        wanted.append((name, int(line)))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    hits, traffic = {}, {}

    def run(source: str, work) -> None:
        for fn in _caches().values():
            fn.cache_clear()
        hits[source] = _traced(work)
        traffic[source] = {name: fn.cache_info() for name, fn in _caches().items()}

    run("import", _import)
    for name in ("operators-exact", "operators-float"):
        run(name, _workload(name, args.cycles, args.smoke))
    run("cli", _cli())
    run("fingerprint", _fingerprint())

    if args.caches:
        print("cache," + ",".join(traffic))
        for name in traffic["fingerprint"]:
            print(name + "," + ",".join(f"{info[name].hits}/{info[name].misses}" for info in traffic.values()))
    if wanted:
        print("line," + ",".join(hits))
        for key in wanted:
            print(f"{key[0]}:{key[1]}," + ",".join(str(counter[key]) for counter in hits.values()))
    elif not args.caches:
        for row in _unreached(hits):
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
