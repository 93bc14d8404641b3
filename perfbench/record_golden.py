"""Record the sha256 of stdout of every seed-independent cli-oneshot command.

    python3 perfbench/record_golden.py

Run it only at a commit whose CLI output is the reference; the benchmark then
fails any op whose stdout differs from what this recorded.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from workloads import GOLDEN_COMMANDS, GOLDEN_PATH, cli_env  # noqa: E402


def main() -> int:
    digests = {}
    for command in GOLDEN_COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "ultrafrac.cli", *command.split()],
            capture_output=True,
            cwd=ROOT,
            env=cli_env(ROOT / "src"),
            timeout=120,
        )
        if done.returncode != 0:
            print(f"{command!r} exited {done.returncode}:\n{done.stderr.decode()}", file=sys.stderr)
            return 1
        digests[command] = hashlib.sha256(done.stdout).hexdigest()
    GOLDEN_PATH.write_text(json.dumps({"sha256": digests}, indent=1) + "\n")
    print(f"recorded {len(digests)} commands in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
