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
from ultrafrac.functions import TestFunction
from ultrafrac.numerics import ComplexValue

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


FILE_LEVELS = {(2, 1): 3, (2, 2): 2, (3, 1): 2, (3, 2): 1}  # constancy level of each function file, support level 0


@pytest.fixture(scope="module")
def function_files(tmp_path_factory):
    """One random function file per field, each with at most 16 cosets."""
    root = tmp_path_factory.mktemp("functions")
    rng = random.Random(5)
    files = {}
    for (p, n), k in FILE_LEVELS.items():
        path = root / f"f_{p}_{n}.json"
        write_function(random_test_function(FieldParams(p, n), 0, k, rng), path)
        files[p, n] = str(path)
    return files


@given(
    command=st.sampled_from(["integrate", "kernel", "invert", "apply", "fourier-check", "multidim-check"]),
    value=st.integers(-3000, 3000),
    alpha=st.fractions(Fraction(1, 8), 8, max_denominator=12),
    p=st.sampled_from([2, 3, 2**61 - 1]),
    degree=st.integers(1, 4),
    op=st.sampled_from(["riesz", "vladimirov", "truncated", "multiplier"]),
    window=st.none() | st.integers(-24, 4),
)
@settings(max_examples=60, deadline=None)
def test_exit_code_contract(function_files, command, value, alpha, p, degree, op, window):
    """No exception escapes, the code is 0, 1 or 2, and 1 means a row failed.

    ``integrate`` and ``kernel`` run up to p = 2**61 - 1 and degree 4: the
    enumeration guard and the oracles' predicted work refuse, with exit 2,
    what would exhaust memory or run for minutes.  ``invert``, ``apply``,
    ``fourier-check`` and ``multidim-check`` read the function files, which
    cover p in {2, 3} at degree 1 and 2.  An ``apply`` window has at most
    2**12 rows, q**(k - window), or more than 2**20, which the walk guard
    refuses; ``--nu`` of ``--op truncated`` is the drawn value.
    """
    args = [command, "--p", str(p), "--degree", str(degree)]
    if command != "fourier-check":
        args += ["--alpha", str(alpha)]
    if command in ("integrate", "kernel"):
        args += ["--levels" if command == "integrate" else "--shells", str(value)]
    else:
        assume((p, degree) in function_files)
        args += ["--fn", function_files[p, degree]]
    if command == "invert":
        args += ["--nu-min", str(value), "--nu-max", str(value)]
    if command == "apply":
        args += ["--op", op, *(["--nu", str(value)] if op == "truncated" else [])]
        if window is not None:
            rows = p ** (degree * max(0, FILE_LEVELS[p, degree] - window))
            assume(rows <= 2**12 or rows > 2**20)
            args += ["--window", str(window)]
    code, out = _run(args)
    assert code in (0, 1, 2)
    failed = any(r.get("status") == "fail" for r in csv.DictReader(io.StringIO(out)))
    assert (code == 1) == failed


@pytest.mark.parametrize(
    "command",
    [
        "integrate --p 2 --alpha 10000 --levels -2..0",
        "integrate --p 3 --degree 4 --alpha 23/5 --levels -2919",
        "kernel --p 2 --alpha 10000 --shells 3",
        "kernel --p 2 --alpha 3 --shells 20000",
        "apply --op riesz --p 2 --alpha 20001 --fn one_O.json",
        "apply --op riesz --p 2 --alpha 20001 --fn {i_O}",
    ],
)
@pytest.mark.parametrize("int_digits", [None, 0], ids=["interpreter-limit", "no-limit"])
def test_exact_column_refuses_values_beyond_its_bound(command, int_digits, tmp_path):
    # a numerator or denominator of more than 4300 digits in the exact
    # column: exit 2 with the CLI's own bound, decided before str(), and the
    # same with the interpreter's integer-string limit lifted (0).  On i
    # times the indicator of O only the Riesz tail row's value is huge: the
    # core rows' exact column shows their real parts, which are 0
    i_O = tmp_path / "i_O.json"
    write_function(TestFunction.tabulate(FieldParams(2), 0, 0, lambda x: ComplexValue.from_rational(0, 1)), i_O)
    command = command.format(i_O=i_O)
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if int_digits is not None and saved is not None:
        sys.set_int_max_str_digits(int_digits)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(command.split())
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue() == "error: an exact value has more than 4300 decimal digits, the CLI's bound on the exact column\n"


def test_exact_column_writes_values_within_its_bound():
    # numerators and denominators of about 3000 digits, within the bound,
    # in an exact column of over 4300 characters: the stdout written before
    # the bound existed, byte for byte
    code, out = _run("integrate --p 2 --alpha 10000 --levels 0".split())
    assert code == 0
    assert max(len(r["exact"]) for r in csv.DictReader(io.StringIO(out))) > 4300
    assert hashlib.sha256(out.encode()).hexdigest() == "7c7b177901d7db95094d16d0b192f1e4cc5257aba0b73be6903c9b793bf32e93"


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


def test_far_out_integrate_level_fails_fast():
    # a level of 200000 makes a coordinate with a 200000-bit denominator,
    # which the point check tests with one valuation, not one division per
    # factor of p; the closed form then leaves float range
    start = time.perf_counter()
    done = _cli_child("integrate --p 2 --alpha 3 --levels 200000".split())
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert time.perf_counter() - start < 10


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_out_of_memory_exits_2_without_a_traceback():
    # 2**18 rows, a walk inside the 2**20-coset budget, under a 256 MB
    # address space set in the child only: the row list runs out of memory,
    # which is exit 2, since exit 1 means only that a row failed
    start = time.perf_counter()
    done = _cli_child(
        "apply --p 2 --fn one_O.json --op vladimirov --alpha 1/2 --window -18".split(),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)),
    )
    assert done.returncode == 2
    assert done.stderr == "error: the run ran out of memory\n"
    assert time.perf_counter() - start < 10


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
