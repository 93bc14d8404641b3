"""One traced CLI invocation: ``python3 perfbench/tracechild.py <ultrafrac CLI arguments>``.

Imports ultrafrac.cli from ./src, wraps the library with the span tracer, runs
the command, and writes the tracer's report and spans to the JSON file named
by PERFBENCH_TRACE_OUT.  Stdout and the exit code are the CLI's own.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import ultrafrac.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.span("bench.cli"):
        rc = ultrafrac.cli.run(sys.argv[1:])
    tracer.uninstall()
    sys.stdout.flush()
    Path(os.environ["PERFBENCH_TRACE_OUT"]).write_text(json.dumps({"report": tracer.report(), "spans": tracer.spans()}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
