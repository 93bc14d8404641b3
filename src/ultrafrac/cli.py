"""Batch command-line surface: run the kernel identities and convergence
experiments and emit machine-readable tables.

Every subcommand writes deterministic CSV (or the same rows as JSON):
fixed column sets, canonical row order, floats at 15 significant digits.
Exit codes: 0 all in-run assertions pass, 1 an assertion failed, 2 bad
configuration, an unreadable input file or unwritable output, a value
beyond float range, work refused by a size bound (an exact value of more
than 4300 digits among them) or a run out of memory.  The environment
variable ``ULTRA_TOL`` (a decimal string) overrides every tolerance; the
``integrate`` rows and the ``kernel`` shell rows scale it by
max(1, |closed form|).  Hypothesis-range warnings go to the ``warnings``
column, never to the exit code.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

import click

from .errors import FunctionFileError, UltrafracError
from .field import FieldParams
from .fourier import fourier_transform, multiplier_vladimirov
from .funcfile import read_function
from .functions import TestFunction, lp_norm
from .integrate import (
    log_over_ball,
    oracle_log_over_ball,
    oracle_power_over_ball,
    oracle_shifted_log_over_sphere,
    oracle_shifted_power_over_sphere,
    power_over_ball,
    shifted_log_over_sphere,
    shifted_power_over_sphere,
)
from .multidim import DimensionBridge, taibleson_on_window
from .numerics import ComplexValue
from .operators import (
    OperatorParams,
    inversion_residual,
    kernel_normalization,
    kernel_r,
    kernel_r1,
    kernel_r_oracle,
    minkowski_bound,
    riesz_potential,
    vladimirov_on_window,
)


def _fmt(x) -> str:
    return f"{float(x):.15g}"


_EXACT_DIGITS = 4300  # the exact columns' bound on a numerator or denominator, in decimal digits
_EXACT_LIMIT = 10**_EXACT_DIGITS


def _bounded(v):
    """v, unless it is exact with a numerator or denominator beyond ``_EXACT_DIGITS``, whatever the interpreter's own limit."""
    if v.is_exact and any(max(abs(x.numerator), x.denominator) >= _EXACT_LIMIT for x in (v.exact.a, v.exact.b, v.exact.c)):
        raise UltrafracError(f"an exact value has more than {_EXACT_DIGITS} decimal digits, the CLI's bound on the exact column")
    return v


def _exact(v) -> str:
    """Exact form of a value, or empty when it took the float path."""
    return str(_bounded(v).exact) if v.is_exact else ""


def _check(delta: float, tol: float, scale: float = 1.0) -> dict:
    """The delta, tol and status cells of a row that compares two routes.

    A row passes when delta <= tol * max(1, |scale|).  The integrate rows
    and the kernel shell rows pass their closed form as ``scale``, so that
    tol is relative where the values are large.
    """
    ok = delta <= tol * max(1.0, abs(scale))
    return {"delta": _fmt(delta), "tol": _fmt(tol), "status": "pass" if ok else "fail"}


def _order(ctx, param, text: str) -> Fraction:
    try:
        a = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"cannot parse order {text!r}") from None
    if a <= 0:
        raise click.BadParameter(f"order must be positive, got {a}")
    return a


def _index_range(ctx, param, text: str) -> range:
    """'a..b' inclusive, or a single integer."""
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise click.BadParameter(f"not an integer range {text!r}") from None
    if hi < lo:
        raise click.BadParameter(f"empty range {text!r}")
    return range(lo, hi + 1)


def _tol(default: float, override: float | None) -> float:
    """The tolerance in force: ULTRA_TOL, else --tol, else the default; a finite tol >= 0."""
    env = os.environ.get("ULTRA_TOL")
    if env is not None:
        try:
            tol, source = float(env), f"ULTRA_TOL={env!r}"
        except ValueError:
            raise click.UsageError(f"ULTRA_TOL={env!r} is not a decimal string") from None
    elif override is None:
        return default
    else:
        tol, source = override, f"--tol {override}"
    if not 0 <= tol < math.inf:
        raise click.UsageError(f"{source} is not a finite tolerance >= 0")
    return tol


def _function(fp: FieldParams, path_text: str) -> TestFunction:
    """Read a function file (a path, else a packaged example) over the field ``fp``."""
    path = Path(path_text)
    packaged = resources.files("ultrafrac") / "data" / path_text
    if path.exists():
        f = read_function(path)
    elif packaged.is_file():
        with resources.as_file(packaged) as real:
            f = read_function(real)
    else:
        raise FunctionFileError(f"no such function file: {path_text}")
    if f.fp != fp:
        raise click.UsageError(f"--p/--degree disagree with the file ({f.fp.p}, {f.fp.n})")
    return f


def _emit(rows: list[dict], columns: list[str], fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = json.dumps(rows, indent=1) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    if out:
        Path(out).write_text(payload)
    else:
        click.echo(payload, nl=False)


@click.group()
def main():
    """Exact fractional differentiation experiments on p-adic coordinate fields."""


_COMMON = (
    click.option("--p", "p_", type=int, required=True, help="Prime of the base field."),
    click.option("--degree", "--deg", "degree", type=int, default=1, show_default=True, help="Extension degree / number of coordinates."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True),
    click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output here instead of stdout."),
)
_ALPHA = click.option("--alpha", required=True, callback=_order, help="Order (rational like 1/2 or decimal).")
_FN = click.option("--fn", required=True, help="Function file (path or packaged example name).")


def _command(name: str, columns: list[str], *options):
    """Register ``body`` as a subcommand producing rows over ``columns``.

    ``body(fp, **options)`` yields row dicts; a missing cell is written
    empty.  The command adds the shared --p/--degree/--format/--out options,
    writes the rows, and exits 1 when a row's status reads ``fail``.
    """

    def register(body):
        def command(p_, degree, fmt, out, **kwargs):
            rows = [{c: r.get(c, "") for c in columns} for r in body(FieldParams(p_, degree), **kwargs)]
            _emit(rows, columns, fmt, out)
            if any(r.get("status") == "fail" for r in rows):
                click.get_current_context().exit(1)

        for option in reversed(_COMMON + options):
            command = option(command)
        return main.command(name, help=body.__doc__)(command)

    return register


@_command(
    "integrate",
    ["check", "q", "degree", "alpha", "level", "closed_form", "oracle", "exact", "delta", "tol", "status", "warnings"],
    _ALPHA,
    click.option("--levels", default="-2..2", show_default=True, callback=_index_range, help="Radius exponents n (|x| <= q**n)."),
    click.option("--depth", type=click.IntRange(min=0), default=40, show_default=True, help="Oracle shell depth."),
    click.option("--tol", type=float, default=None, help="Tolerance [default 1e-8]."),
)
def integrate_cmd(fp, alpha, levels, depth, tol):
    """Closed-form ball/sphere integrals against their brute-force oracles."""
    tol_v = _tol(1e-8, tol)
    for n in levels:
        checks = [
            ("power_ball", power_over_ball(fp, alpha, n), oracle_power_over_ball(fp, alpha, n, depth)),
            ("power_sphere", shifted_power_over_sphere(fp, alpha, n), oracle_shifted_power_over_sphere(fp, alpha, n, depth)),
            ("log_ball", log_over_ball(fp, n), oracle_log_over_ball(fp, n, depth)),
            ("log_sphere", shifted_log_over_sphere(fp, n), oracle_shifted_log_over_sphere(fp, n, depth)),
        ]
        for name, closed, oracle in checks:
            yield {
                "check": name, "q": fp.q, "degree": fp.n, "alpha": str(alpha), "level": n,
                "closed_form": _fmt(closed), "oracle": _fmt(oracle), "exact": _exact(closed),
                **_check(abs(float(closed) - float(oracle)), tol_v, float(closed)),
            }


@_command(
    "kernel",
    ["row", "q", "alpha", "j", "R", "R_exact", "R_oracle", "R1", "delta", "tol", "status"],
    _ALPHA,
    click.option("--shells", default="-3..6", show_default=True, callback=_index_range, help="Shell indices j (|tau| = q**-j)."),
    click.option("--check-integral", is_flag=True, help="Append the unit-mass normalization row."),
    click.option("--depth", type=click.IntRange(min=0), default=None, help="Oracle refinement depth override."),
    click.option("--tol", type=float, default=None, help="Tolerance [default 1e-10]."),
)
def kernel_cmd(fp, alpha, shells, check_integral, depth, tol):
    """Averaging-kernel shell values: closed form vs the defining integral."""
    params = OperatorParams(fp, alpha)
    tol_v = _tol(1e-10, tol)
    for j in shells:
        closed = kernel_r(params, j)
        oracle = kernel_r_oracle(params, j, depth=depth)
        yield {
            "row": "shell", "q": fp.q, "alpha": str(alpha), "j": j, "R": _fmt(closed), "R_exact": _exact(closed),
            "R_oracle": _fmt(oracle), "R1": _fmt(kernel_r1(params, j)),
            **_check(abs(float(closed) - oracle), tol_v, float(closed)),
        }
    if check_integral:
        total = kernel_normalization(params)
        yield {
            "row": "normalization", "q": fp.q, "alpha": str(alpha), "R": _fmt(total), "R_exact": _exact(total),
            "R_oracle": _fmt(1.0), **_check(abs(float(total) - 1.0), _tol(1e-12, tol)),
        }


@_command(
    "apply",
    ["op", "q", "alpha", "nu", "point", "re", "im", "exact"],
    click.option("--op", type=click.Choice(["riesz", "vladimirov", "truncated", "multiplier"]), required=True),
    _ALPHA,
    _FN,
    click.option("--nu", type=int, default=None, help="Truncation index (--op truncated only, and required there)."),
    click.option("--window", type=int, default=None, help="Output window level override."),
)
def apply_cmd(fp, op, alpha, fn, nu, window):
    """Apply an operator to a function file and tabulate window values."""
    if op == "truncated" and nu is None:
        raise click.UsageError("--op truncated requires --nu")
    if op != "truncated" and nu is not None:
        raise click.UsageError(f"--nu applies to --op truncated only, not to --op {op}")
    params = OperatorParams(fp, alpha)
    f = _function(fp, fn)
    if op == "riesz":
        u = riesz_potential(params, f, window_level=window)
        values = [(pt, v) for _, pt, v in u.core.items()]
    elif op == "multiplier":
        values = [(pt, ComplexValue.from_complex(z)) for pt, z in multiplier_vladimirov(fp, params.gamma, f, window)]
    else:
        values = vladimirov_on_window(params, f, window_level=window, nu=nu)
    head = {"op": op, "q": fp.q, "alpha": str(alpha), "nu": "" if nu is None else nu}
    for pt, v in values:
        yield {**head, "point": str(pt), "re": _fmt(v.re), "im": _fmt(v.im), "exact": _exact(v.re)}
    if op == "riesz":
        for c, _, _ in u.tail.terms:  # the tail row's exact values meet the same bound
            _bounded(c.re), _bounded(c.im)
        yield {**head, "point": "tail", "exact": str(u.tail)}


@_command(
    "invert",
    ["q", "alpha", "lp", "nu", "residual", "bound", "exact_recovery_expected", "status", "warnings"],
    _ALPHA,
    click.option("--lp", type=float, default=1.0, show_default=True, help="Exponent of the L^p norm."),
    _FN,
    click.option("--nu-min", type=int, default=1, show_default=True),
    click.option("--nu-max", type=int, required=True),
    click.option("--tol", type=float, default=None, help="Tolerance [default 1e-12]."),
)
def invert_cmd(fp, alpha, lp, fn, nu_min, nu_max, tol):
    """Inversion residuals ||D_eps(Riesz(phi)) - phi||_p over a truncation sweep."""
    if nu_max < nu_min:
        raise click.BadParameter(f"empty range {nu_min}..{nu_max}", param_hint=["--nu-min", "--nu-max"])
    params = OperatorParams(fp, alpha)
    f = _function(fp, fn)
    zero_tol = _tol(1e-12, tol)
    bound_tol = _tol(1e-10, tol)
    for nu in range(nu_min, nu_max + 1):
        with warnings.catch_warnings(record=True) as ws:
            warnings.simplefilter("always")
            resid = inversion_residual(params, lp, f, nu)
            bound = minkowski_bound(params, lp, f, nu)
        expect_zero = nu >= f.constancy_level - 1
        ok = resid <= zero_tol if expect_zero else resid <= bound + bound_tol
        yield {
            "q": fp.q, "alpha": str(alpha), "lp": _fmt(lp), "nu": nu, "residual": _fmt(resid), "bound": _fmt(bound),
            "exact_recovery_expected": "yes" if expect_zero else "no", "status": "pass" if ok else "fail",
            "warnings": "; ".join(str(w.message) for w in ws),
        }


@_command(
    "fourier-check",
    ["check", "q", "left", "right", "delta", "tol", "status"],
    _FN,
    click.option("--tol", type=float, default=None, help="Tolerance [default 1e-10]."),
)
def fourier_cmd(fp, fn, tol):
    """Plancherel identity and transform round-trip for a function file."""
    f = _function(fp, fn)
    tol_v = _tol(1e-10, tol)
    hat = fourier_transform(f)
    lhs, rhs = lp_norm(f, 2), lp_norm(hat, 2)
    rt = fourier_transform(hat, inverse=True)
    rt_delta = max(abs((rt.evaluate(pt) - v).to_complex()) for _, pt, v in f.items())
    yield {"check": "plancherel", "q": fp.q, "left": _fmt(lhs), "right": _fmt(rhs), **_check(abs(lhs - rhs), tol_v)}
    yield {"check": "roundtrip", "q": fp.q, **_check(rt_delta, tol_v)}


@_command(
    "multidim-check",
    ["row", "q", "alpha", "point", "direct_re", "direct_im", "ext_re", "ext_im", "delta", "tol", "status"],
    _ALPHA,
    _FN,
    click.option("--tol", type=float, default=None, help="Tolerance [default 1e-10]."),
)
def multidim_cmd(fp, alpha, fn, tol):
    """Max-norm operator vs its one-dimensional extension reading."""
    if fp.n < 2:
        raise click.UsageError("multidim-check needs --degree >= 2")
    bridge = DimensionBridge(fp.p, fp.n, alpha)
    f = _function(fp, fn)
    tol_v = _tol(1e-10, tol)
    worst = 0.0
    for pt, direct, via_ext in taibleson_on_window(bridge, f):
        delta = abs((direct - via_ext).to_complex())
        worst = max(worst, delta)
        yield {
            "row": "point", "q": fp.q, "alpha": str(alpha), "point": str(pt),
            "direct_re": _fmt(direct.re), "direct_im": _fmt(direct.im),
            "ext_re": _fmt(via_ext.re), "ext_im": _fmt(via_ext.im), **_check(delta, tol_v),
        }
    yield {"row": "max", "q": fp.q, "alpha": str(alpha), **_check(worst, tol_v)}


def run(argv: list[str] | None = None) -> int:
    """Run the CLI and return its exit code; the one place errors become exit codes.

    Both the ``ultrafrac`` script and ``python -m ultrafrac.cli`` enter here.
    """
    try:
        rv = main.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.ClickException as exc:
        message, code = exc.format_message(), exc.exit_code
    except OverflowError as exc:
        message, code = f"a value is beyond float range (about 1.8e308): {exc}", 2
    except MemoryError:
        message, code = "the run ran out of memory", 2
    except (UltrafracError, ValueError, OSError) as exc:
        message, code = str(exc), 2
    click.echo(f"error: {message}", err=True)
    return code


if __name__ == "__main__":
    sys.exit(run())
