"""The CLI's output and exit-code contract, driven in-process through ``run()``."""

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ultrafrac
from conftest import random_test_function
from ultrafrac.cli import run
from ultrafrac.field import FieldParams
from ultrafrac.funcfile import write_function

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden_cli.json").read_text())["sha256"]


def _run(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(args)
    return code, out.getvalue()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_stdout(command, monkeypatch):
    """CSV bytes match the recorded digest, and JSON carries the same rows."""
    monkeypatch.delenv("ULTRA_TOL", raising=False)
    code, out = _run(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
    code, out_json = _run(command.split() + ["--format", "json"])
    assert code == 0
    table = list(csv.DictReader(io.StringIO(out)))
    rows = json.loads(out_json)
    assert [list(r) for r in rows] == [list(r) for r in table]
    assert [{k: str(v) for k, v in r.items()} for r in rows] == table


@pytest.fixture(scope="module")
def function_files(tmp_path_factory):
    """One random function file per field, each with at most 16 cosets."""
    root = tmp_path_factory.mktemp("functions")
    rng = random.Random(5)
    files = {}
    for (p, n), k in {(2, 1): 3, (2, 2): 2, (3, 1): 2, (3, 2): 1}.items():
        path = root / f"f_{p}_{n}.json"
        write_function(random_test_function(FieldParams(p, n), 0, k, rng), path)
        files[p, n] = str(path)
    return files


@given(
    command=st.sampled_from(["integrate", "kernel", "invert"]),
    value=st.integers(-3000, 3000),
    alpha=st.fractions(Fraction(1, 8), 8, max_denominator=12),
    p=st.sampled_from([2, 3, 2**61 - 1]),
    degree=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_exit_code_contract(function_files, command, value, alpha, p, degree):
    """No exception escapes, the code is 0, 1 or 2, and 1 means a row failed.

    ``integrate`` and ``kernel`` run up to p = 2**61 - 1 and degree 4: the
    enumeration guard and the oracles' predicted work refuse, with exit 2,
    what would exhaust memory or run for minutes.  ``invert`` reads the
    function files, which cover p in {2, 3} at degree 1 and 2.
    """
    args = [command, "--p", str(p), "--degree", str(degree), "--alpha", str(alpha)]
    if command == "invert":
        assume((p, degree) in function_files)
        args += ["--fn", function_files[p, degree], "--nu-min", str(value), "--nu-max", str(value)]
    else:
        args += ["--levels" if command == "integrate" else "--shells", str(value)]
    code, out = _run(args)
    assert code in (0, 1, 2)
    failed = any(r["status"] == "fail" for r in csv.DictReader(io.StringIO(out)))
    assert (code == 1) == failed


def test_cli_import_does_not_load_numpy():
    # the engine is pure Python; numpy would only add to every CLI start-up
    src = Path(ultrafrac.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = "import sys, ultrafrac.cli; sys.exit(int('numpy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _cli_child(args: list[str], preexec_fn=None) -> subprocess.CompletedProcess:
    """``python -m ultrafrac.cli args`` in a child process on this checkout, with its output captured."""
    src = Path(ultrafrac.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "ultrafrac.cli", *args], env=env, capture_output=True, text=True, timeout=60, preexec_fn=preexec_fn
    )


@pytest.mark.parametrize("alpha", ["1/2", "1"])
def test_far_out_kernel_shell_fails_fast(alpha):
    # |tau| = q**100000 puts the sphere measure beyond float range: the run
    # must say so before the refinement around -tau, whose cost grows with j**2
    done = _cli_child(["kernel", "--p", "2", "--alpha", alpha, "--shells", "-100000"])
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "command",
    [
        "apply --p 2 --fn one_O.json --op riesz --alpha 1/2 --window -40",
        "apply --p 2 --fn one_O.json --op vladimirov --alpha 1/2 --window -30",
        "kernel --p 2305843009213693951 --alpha 1/2 --shells 0..0",
        "integrate --p 2 --alpha 30000 --levels 0..1",
        "integrate --p 2 --alpha 100000 --levels 0..1",
        "integrate --p 2305843009213693951 --degree 4 --alpha 11 --levels -2513",
        "kernel --p 2 --alpha 1/2 --shells 0..0 --depth 8000",
        "kernel --p 2 --alpha 1/100 --shells 0..0",
    ],
)
def test_oversized_walks_exit_2_before_enumerating(command):
    # 2**40 and 2**30 window cosets: each walk is refused from its size before
    # any digit list is built, so a 1 GB address space (set in the child only)
    # is no MemoryError.  The oracles predict their exact work before their
    # first term: the kernel refinement over p = 2**61 - 1 (p - 1 cosets a
    # level), an integer order of 30000 or 100000 and a far level over a
    # huge q (11.8 s, over a minute and 56 s without the bound), and a
    # refinement 8000 or 4800 levels deep (over a minute, and 15 s)
    start = time.perf_counter()
    done = _cli_child(command.split(), preexec_fn=_one_gigabyte_address_space)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
    assert ("walk of" if command.startswith("apply") else "bits of exact work") in done.stderr
    assert time.perf_counter() - start < 10
