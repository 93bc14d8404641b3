"""The three workloads: seeded inputs, the ops of one cycle, and the checks on every output.

An op is one library route on one table (or one CLI process), checked against
its independent counterpart.  Ops run in fixed cycles so that every run
measures the same mix of ops, whatever the number of cycles it completes.
The library only ever receives the generated tables and files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Library routes are called through their modules, so that the tracer's wrappers are seen.
from ultrafrac import fourier, multidim, operators
from ultrafrac.field import FieldParams, enumerate_digits
from ultrafrac.funcfile import write_function
from ultrafrac.functions import TestFunction
from ultrafrac.numerics import ComplexValue
from ultrafrac.operators import OperatorParams

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_cli.json"


class CheckFailed(Exception):
    """An output disagreed with its independent route or its golden value."""


@dataclass
class OpResult:
    exact: int = 0
    values: int = 0


@dataclass
class Op:
    name: str
    run: object  # callable returning OpResult or raising


def random_table(fp: FieldParams, support_level: int, constancy_level: int, rng: random.Random, complex_vals: bool = False) -> TestFunction:
    """Random rational table, drawn the same way as the test suite's random_test_function."""
    table = {}
    for d in enumerate_digits(fp, support_level, constancy_level):
        re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        im = Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if complex_vals else Fraction(0)
        table[d] = ComplexValue.from_rational(re, im)
    return TestFunction(fp, support_level, constancy_level, table)


def _l1_scale(phi: TestFunction) -> float:
    """max(1, L^1 norm of phi), from the raw table values."""
    meas = Fraction(phi.fp.q) ** (-phi.constancy_level)
    return max(1.0, float(sum(abs(v.to_complex()) for v in phi.values.values()) * meas))


def _count_exact(values) -> OpResult:
    values = list(values)
    return OpResult(sum(1 for v in values if v.is_exact), len(values))


FRACTION_REFERENCE_PER_S = 100.0  # nominal rate of fraction_reference


def fraction_reference() -> None:
    """Reference unit for in-process work: fixed Fraction arithmetic, about 10 ms on the nominal machine."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i % 7 - 3, 1 << (i % 5)) * Fraction(3, 1 + i % 4)


class Injector:
    """Makes exactly one output of a run wrong, to show that the checks catch it.

    Armed only after the warm-up cycle, so the wrong output lands in the timed section.
    """

    def __init__(self, kind: str | None):
        self.kind = kind

    def take(self, kind: str) -> bool:
        if self.kind == kind:
            self.kind = None
            return True
        return False


# ---------------------------------------------------------------------------
# operator workloads


class OperatorWorkload:
    """Shared driver of the two operator workloads; a cycle is a list of tables."""

    exact: bool
    tail_percentile: int
    reference_per_s = FRACTION_REFERENCE_PER_S
    reference_every = 1  # ops between reference units

    def __init__(self, seed: int, smoke: bool):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.smoke = smoke
        self.injector = Injector(None)
        self.pool = [self.make_cycle() for _ in range(12)]
        self.next = 0
        self.carried: dict[tuple[str, int], object] = {}  # one op's output that a later op checks

    def reference(self) -> None:
        fraction_reference()

    def cycle(self) -> list[Op]:
        tables = self.pool[self.next % len(self.pool)]
        self.next += 1
        self.carried.clear()
        ops = []
        for params, phi in tables:
            ops.extend(self.table_ops(params, phi))
        return ops

    def warm_cycle(self) -> list[Op]:
        tables = [(params, self.tiny(params)) for params, _ in self.pool[0]]
        self.carried.clear()
        return [op for params, phi in tables for op in self.table_ops(params, phi)]

    def same(self, a, b) -> bool:
        if self.exact:
            return (a - b).is_exact_zero()
        za, zb = a.to_complex(), b.to_complex()
        return abs(za - zb) <= 1e-10 * max(1.0, abs(za))

    def riesz_op(self, params, phi) -> Op:
        def run():
            u = operators.riesz_potential(params, phi)
            if len(u.core.values) != len(phi.values):
                raise CheckFailed("riesz core has the wrong size")
            self.carried[("potential", id(phi))] = u
            return _count_exact(u.core.values.values())

        return Op("riesz_potential", run)

    def truncated_op(self, params, phi, nus) -> Op:
        """Truncated operator on the potential against the averaging route, at every window coset."""

        def run():
            u = self.carried[("potential", id(phi))]
            res = OpResult()
            for nu in nus:
                trunc = operators.vladimirov_on_window(params, u, window_level=phi.support_level, nu=nu)
                avg = [operators.averaging_apply(params, nu, phi, x) for x, _ in trunc]
                if self.injector.take("value"):
                    avg[0] = avg[0] + Fraction(1, 10**6)
                if len(trunc) != len(phi.values):
                    raise CheckFailed("truncated operator has the wrong window")
                for (x, t), a in zip(trunc, avg):
                    if not self.same(t, a):
                        raise CheckFailed(f"truncated(nu={nu}) != averaging at {x}: {t} vs {a}")
                for part in (_count_exact(t for _, t in trunc), _count_exact(avg)):
                    res.exact += part.exact
                    res.values += part.values
            return res

        return Op("truncated_vs_averaging" + "".join(f"_nu{n}" for n in nus), run)

    def inversion_op(self, params, phi) -> Op:
        """Residual at nu = 1 under its Minkowski bound; recovery at nu = k - 1."""

        def run():
            k = phi.constancy_level
            r1 = operators.inversion_residual(params, 1, phi, 1)
            bound = operators.minkowski_bound(params, 1, phi, 1)
            rk = operators.inversion_residual(params, 1, phi, k - 1)
            if not r1 <= bound + 1e-10:
                raise CheckFailed(f"residual {r1} above the Minkowski bound {bound}")
            limit = 0.0 if self.exact else 1e-10 * _l1_scale(phi)
            if not rk <= limit:
                raise CheckFailed(f"residual at nu = k - 1 is {rk}, not within {limit}")
            return OpResult()

        return Op("inversion", run)


class OperatorsExact(OperatorWorkload):
    """p = 2, n = 2 (q = 4), support 0, constancy 3: N = 64; alpha = 1 and alpha = 2 alternate."""

    name = "operators-exact"
    exact = True
    tail_percentile = 75

    def make_cycle(self):
        fp = FieldParams(2, 2)
        k = 2 if self.smoke else 3
        return [(OperatorParams(fp, alpha), random_table(fp, 0, k, self.rng)) for alpha in (1, 2)]

    def tiny(self, params):
        return random_table(params.fp, 0, 2, self.rng)

    def table_ops(self, params, phi) -> list[Op]:
        return [
            self.riesz_op(params, phi),
            self.truncated_op(params, phi, (1,)),
            self.truncated_op(params, phi, (2,)),
            self.inversion_op(params, phi),
            *self.taibleson_ops(params, phi),
        ]

    def taibleson_ops(self, params, phi) -> list[Op]:
        """Max-norm operator at every window coset, then its extension reading, compared exactly."""
        bridge = multidim.DimensionBridge(params.fp.p, params.fp.n, params.alpha)
        points = [x for _, x, _ in phi.items()]

        def direct():
            values = [multidim.taibleson_direct(bridge, phi, x) for x in points]
            self.carried[("taibleson", id(phi))] = values
            return _count_exact(values)

        def via_extension():
            values = [multidim.taibleson_via_extension(bridge, phi, x) for x in points]
            if self.injector.take("value"):
                values[0] = values[0] + Fraction(1, 10**6)
            for x, d, e in zip(points, self.carried[("taibleson", id(phi))], values, strict=True):
                if not (d - e).is_exact_zero():
                    raise CheckFailed(f"max-norm operator != extension reading at {x}")
            return _count_exact(values)

        return [Op("taibleson_direct", direct), Op("taibleson_via_extension", via_extension)]


class OperatorsFloat(OperatorWorkload):
    """p = 2, n = 1, alpha = 1/2 (q**(1/2) irrational), complex tables, support -2, constancy 4: N = 64."""

    name = "operators-float"
    exact = False
    tail_percentile = 75

    def make_cycle(self):
        fp = FieldParams(2, 1)
        sl, k = (-1, 2) if self.smoke else (-2, 4)
        return [(OperatorParams(fp, Fraction(1, 2)), random_table(fp, sl, k, self.rng, complex_vals=True))]

    def tiny(self, params):
        return random_table(params.fp, -1, 2, self.rng, complex_vals=True)

    def table_ops(self, params, phi) -> list[Op]:
        return [
            self.riesz_op(params, phi),
            self.truncated_op(params, phi, (1, 2)),
            self.inversion_op(params, phi),
            self.fourier_op(phi),
            *self.multiplier_ops(params, phi),
        ]

    def fourier_op(self, phi) -> Op:
        """Round trip within 1e-12 and Plancherel within 1e-10, from the raw tables."""

        def run():
            hat = fourier.fourier_transform(phi)
            back = fourier.fourier_transform(hat, inverse=True)
            if (back.support_level, back.constancy_level) != (phi.support_level, phi.constancy_level):
                raise CheckFailed("inverse transform changed the table shape")
            worst = max(abs(back.values[d].to_complex() - v.to_complex()) for d, v in phi.values.items())
            if not worst <= 1e-12:
                raise CheckFailed(f"round trip off by {worst}")
            q = phi.fp.q
            lhs = sum(abs(v.to_complex()) ** 2 for v in phi.values.values()) * float(q) ** (-phi.constancy_level)
            rhs = sum(abs(v.to_complex()) ** 2 for v in hat.values.values()) * float(q) ** (-hat.constancy_level)
            if not abs(lhs - rhs) <= 1e-10 * max(1.0, lhs):
                raise CheckFailed(f"Plancherel: {lhs} vs {rhs}")
            return _count_exact([*hat.values.values(), *back.values.values()])

        return Op("fourier_round_trip", run)

    def multiplier_ops(self, params, phi) -> list[Op]:
        """Multiplier route on the dilated window, then the hypersingular operator there, compared."""

        def multiplier():
            values = fourier.multiplier_vladimirov(params.fp, params.gamma, phi)
            self.carried[("multiplier", id(phi))] = values
            return OpResult()

        def hypersingular():
            hyper = operators.vladimirov_on_window(params, phi)
            mult = self.carried[("multiplier", id(phi))]
            if self.injector.take("value"):
                mult[0] = (mult[0][0], mult[0][1] + 1e-3)
            if len(mult) != len(hyper):
                raise CheckFailed("multiplier and hypersingular windows differ")
            for (x, got), (y, want) in zip(mult, hyper):
                w = want.to_complex()
                if str(x) != str(y) or not abs(got - w) <= 1e-9 * max(1.0, abs(w)):
                    raise CheckFailed(f"multiplier {got} != hypersingular {w} at {x}")
            return _count_exact(v for _, v in hyper)

        return [Op("multiplier_vladimirov", multiplier), Op("hypersingular_vs_multiplier", hypersingular)]


# ---------------------------------------------------------------------------
# one-shot CLI workload

README_COMMANDS = [
    "integrate --p 2 --alpha 1/2 --levels -2..2",
    "kernel --p 2 --alpha 0.5 --shells -3..6 --check-integral",
    "apply --op riesz --p 2 --alpha 1/2 --fn one_O.json",
    "invert --p 2 --alpha 0.5 --lp 1 --fn one_O.json --nu-max 4",
    "fourier-check --p 2 --fn lizorkin_example.json",
    "multidim-check --p 2 --deg 2 --alpha 1.0 --fn one_OO.json",
]

# Seed-independent variants over p, alpha and the four apply ops (packaged examples only).
VARIANT_COMMANDS = [
    "integrate --p 3 --alpha 1/4 --levels -2..2",
    "integrate --p 2 --alpha 1 --levels -1..1",
    "kernel --p 3 --alpha 1/2 --shells -2..4 --check-integral",
    "kernel --p 2 --alpha 1/4 --shells -2..4 --check-integral",
    "kernel --p 2 --alpha 1 --shells -2..4 --check-integral",
    "apply --op vladimirov --p 2 --alpha 1/4 --fn lizorkin_example.json",
    "apply --op truncated --p 2 --alpha 1 --nu 1 --fn one_O.json",
    "apply --op multiplier --p 2 --alpha 1/2 --fn lizorkin_example.json",
    "invert --p 2 --alpha 1 --lp 1 --fn lizorkin_example.json --nu-max 3",
]

GOLDEN_COMMANDS = README_COMMANDS + VARIANT_COMMANDS

# Commands on the seeded function files: (command, file key); the file path is appended.
FILE_COMMANDS = [
    ("apply --op riesz --p 3 --alpha 1/2", "p3"),
    ("apply --op vladimirov --p 2 --alpha 1/2", "p2"),
    ("apply --op multiplier --p 2 --alpha 1/2", "p2"),
    ("apply --op truncated --p 2 --alpha 1 --nu 1", "p2"),
    ("invert --p 3 --alpha 1/2 --lp 1 --nu-max 3", "p3"),
    ("fourier-check --p 3", "p3"),
    ("multidim-check --p 2 --deg 2 --alpha 1", "deg2"),
]

# (p, degree, support_level, constancy_level) of the seeded files; N <= 16
FILE_SHAPES = {"p2": (2, 1, -1, 2), "p3": (3, 1, 0, 2), "deg2": (2, 2, 0, 1)}


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["sha256"]


def cli_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ULTRA_TOL"}
    env["PYTHONPATH"] = str(src)
    return env


def run_child(argv: list[str], env: dict, cwd: Path, scratch: Path) -> tuple[int, bytes, bytes, float]:
    """Run one child to completion; returns exit code, stdout, stderr and its peak RSS in MB."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


class CliOneshot:
    """Each op is one CLI invocation in a fresh child process, one at a time."""

    name = "cli-oneshot"
    tail_percentile = 90
    reference_per_s = 12.5
    reference_every = 3

    def __init__(self, seed: int, smoke: bool, root: Path, scratch: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.injector = Injector(None)
        self.root = root
        self.scratch = scratch
        self.env = cli_env(root / "src")
        self.golden = load_golden()
        self.files = {}
        for key, (p, n, sl, k) in FILE_SHAPES.items():
            path = scratch / f"{key}.json"
            write_function(random_table(FieldParams(p, n), sl, k, self.rng), path)
            self.files[key] = str(path)
        self.peak_rss_mb = 0.0
        self.traced = False
        self.reports: list[dict] = []
        self.vladimirov_rows: dict | None = None

    def reference(self) -> None:
        """Reference unit: a fresh interpreter importing a few stdlib modules, about 80 ms."""
        run_child([sys.executable, "-c", "import csv, fractions, json"], self.env, self.root, self.scratch)

    def commands(self) -> list[tuple[list[str], str | None]]:
        out = [(c.split(), c) for c in GOLDEN_COMMANDS]
        out += [(c.split() + ["--fn", self.files[key]], None) for c, key in FILE_COMMANDS]
        return out

    def argv(self, args: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, str(HERE / "tracechild.py"), *args]
        return [sys.executable, "-m", "ultrafrac.cli", *args]

    def invoke(self, args: list[str]) -> tuple[int, bytes, bytes]:
        """Run one CLI command; a traced child's report is kept in ``reports``."""
        env = self.env
        report_path = None
        if self.traced:
            report_path = self.scratch / "trace_child.json"
            env = {**env, "PERFBENCH_TRACE_OUT": str(report_path)}
        rc, out, err, rss = run_child(self.argv(args), env, self.root, self.scratch)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        if report_path is not None and report_path.exists():
            self.reports.append(json.loads(report_path.read_text()))
            report_path.unlink()
        return rc, out, err

    def cycle(self) -> list[Op]:
        self.vladimirov_rows = None
        return [Op(args[0], self._op(args, golden_key)) for args, golden_key in self.commands()]

    def warm_cycle(self) -> list[Op]:
        return [Op("warm", self._op(README_COMMANDS[4].split(), README_COMMANDS[4]))]

    def _op(self, args: list[str], golden_key: str | None):
        def run():
            rc, stdout, stderr = self.invoke(args)
            if golden_key is not None and self.injector.take("csv"):
                stdout = bytes([stdout[0] ^ 0x01]) + stdout[1:]
            if rc != 0:
                raise CheckFailed(f"exit {rc}: {stderr.decode(errors='replace').strip()}")
            if golden_key is not None:
                digest = hashlib.sha256(stdout).hexdigest()
                if digest != self.golden.get(golden_key):
                    raise CheckFailed(f"stdout differs from the golden output of {golden_key!r}")
            rows = list(csv.DictReader(io.StringIO(stdout.decode())))
            if not rows:
                raise CheckFailed("no output rows")
            if any(r.get("status", "pass") != "pass" for r in rows):
                raise CheckFailed("a status cell is not 'pass'")
            self._check_apply(args, rows)
            cells = [r[c] for r in rows for c in ("exact", "R_exact") if c in r]
            return OpResult(sum(1 for c in cells if c != ""), len(cells))

        return run

    def _check_apply(self, args: list[str], rows: list[dict]) -> None:
        """vladimirov and multiplier on the same seeded file must agree (two definitions)."""
        if args[:1] != ["apply"] or "--fn" not in args or not args[args.index("--fn") + 1].startswith(str(self.scratch)):
            return
        op = args[args.index("--op") + 1]
        table = {r["point"]: complex(float(r["re"]), float(r["im"])) for r in rows if r["point"] != "tail"}
        if op == "vladimirov":
            self.vladimirov_rows = table
        elif op == "multiplier":
            want = self.vladimirov_rows
            if want is None or set(want) != set(table):
                raise CheckFailed("multiplier window differs from the vladimirov window")
            for pt, got in table.items():
                if not abs(got - want[pt]) <= 1e-9 * max(1.0, abs(want[pt])):
                    raise CheckFailed(f"multiplier {got} != vladimirov {want[pt]} at {pt}")


WORKLOADS = {w.name: w for w in (OperatorsExact, OperatorsFloat, CliOneshot)}
