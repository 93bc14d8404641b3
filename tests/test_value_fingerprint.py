"""Differential fingerprint of the values the operator routes return.

A fixed-seed corpus runs through every public route, and every value is
serialized per part: an exact part as its coefficients (a, b, c) and
logbase, a float as ``float.hex``.  The sha256 of that stream is pinned, so
a change to the scalar ring or to a hot loop that moves any exact/float
decision, any exact coefficient or any bit of any float fails here.  When
the stream changes on purpose, print ``_stream()`` before and after and
diff the two.
"""

import hashlib
import random
import warnings
from fractions import Fraction

from conftest import random_test_function
from ultrafrac.field import FieldParams, digits_to_point, enumerate_digits
from ultrafrac.fourier import fourier_transform, multiplier_vladimirov
from ultrafrac.functions import (
    ExtendedFunction,
    LogTail,
    PowerTail,
    TestFunction,
    ZeroTail,
    lizorkin_project,
    log_tail,
    power_tail,
)
from ultrafrac.integrate import (
    LogProfile,
    PowerProfile,
    integrate_product,
    log_over_ball,
    power_over_ball,
    shifted_log_over_sphere,
    shifted_power_over_sphere,
)
from ultrafrac.multidim import DimensionBridge, taibleson_direct, taibleson_via_extension
from ultrafrac.numerics import ComplexValue, ExactScalar, NumericValue
from ultrafrac.operators import (
    OperatorParams,
    averaging_apply,
    constants,
    inversion_residual,
    kernel_normalization_tail,
    kernel_r,
    minkowski_bound,
    riesz_potential,
    vladimirov_on_window,
)

# sha256 of _stream(), recorded before the slotted rewrite of the scalar ring.
FINGERPRINT = "5c5c387ca989d4e8131b9497f1da1b8914d1033ba907c8aece7ead1f5798b2f5"

ALPHAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2))

# sha256 of _log_table_stream(), recorded before the integer view was narrowed
# to rational tables: tables with ln or 1/ln parts now take the ring path.
LOG_TABLE_FINGERPRINT = "9b8faf330ba0da5388d8192c39fc23fad571f2ebbd53a9948516ac7e8101d062"

# sha256 of _float_table_stream(), recorded before the hypersingular engine
# summed all-float cores on plain floats.
FLOAT_TABLE_FINGERPRINT = "024b47c2ee53801c71b32a474efbff56b861ab1befc739d14d5bb23aa5976cf0"


def _part(v) -> str:
    if isinstance(v, float):
        return v.hex()
    if v.exact is None:
        return v.approx.hex()
    e = v.exact
    return f"({e.a},{e.b},{e.c},{e.logbase})"


def _ser(v) -> str:
    if isinstance(v, ComplexValue):
        return f"{_part(v.re)}|{_part(v.im)}"
    if isinstance(v, NumericValue | float):
        return _part(v)
    if isinstance(v, complex):
        return f"{v.real.hex()}|{v.imag.hex()}"
    if isinstance(v, PowerTail):
        return f"power[{_ser(v.coeff)}]^{v.exponent}"
    if isinstance(v, LogTail):
        return f"log[{_ser(v.const)}]+[{_ser(v.log_coeff)}]"
    if isinstance(v, TestFunction):
        head = f"table {v.support_level}..{v.constancy_level}"
        return "\n".join([head, *(f"{d} {_ser(v.values[d])}" for d in v.addresses())])
    if isinstance(v, ExtendedFunction):
        return f"{_ser(v.core)}\ntail {_ser(v.tail)}"
    if isinstance(v, list):
        return "\n".join(f"{x} {_ser(val)}" for x, val in v)
    return str(v)


def _emit(out: list, label: str, fn, *args) -> None:
    try:
        value = fn(*args)
    except Exception as exc:  # a route's refusal is part of its fingerprint
        out.append(f"{label}: raises {type(exc).__name__}")
        return
    out.append(f"{label}: {_ser(value)}")


def _with_floats(f: TestFunction) -> TestFunction:
    """f with every other real part demoted to a float, to pin mixed sums."""
    table = {}
    for i, d in enumerate(f.addresses()):
        v = f.values[d]
        table[d] = ComplexValue(NumericValue.from_float(float(v.re)), v.im) if i % 2 else v
    return TestFunction(f.fp, f.support_level, f.constancy_level, table)


def _corpus():
    rng = random.Random(6061)
    shapes = {
        (2, 1): [(0, 2), (-1, 2), (0, 3)],
        (3, 1): [(0, 1), (-1, 1)],
        (2, 2): [(0, 1), (-1, 1)],
        (3, 2): [(0, 1)],
    }
    for (p, n), sizes in shapes.items():
        fp = FieldParams(p, n)
        for i, (sl, k) in enumerate(sizes):
            f = random_test_function(fp, sl, k, rng, complex_vals=bool(i % 2))
            yield f"p={p} n={n} {sl}..{k} #{i}", f
        yield f"p={p} n={n} mixed", _with_floats(random_test_function(fp, 0, 1, rng, complex_vals=True))
    # zero mean, so the averaging route runs above the critical order too
    yield "p=2 n=1 zero-mean", lizorkin_project(random_test_function(FieldParams(2), 0, 2, rng))


def _stream() -> list[str]:
    out: list[str] = []
    for p in (2, 3):
        for n in (1, 2):
            fp = FieldParams(p, n)
            for alpha in ALPHAS:
                pr = OperatorParams(fp, alpha)
                tag = f"p={p} n={n} alpha={alpha}"
                _emit(out, f"{tag} constants", lambda: [(k, getattr(constants(pr), k)) for k in ("c", "d", "cd")])
                for j in range(-1, 6):
                    _emit(out, f"{tag} kernel_r({j})", kernel_r, pr, j)
                for j in range(1, 5):
                    _emit(out, f"{tag} kernel_normalization_tail({j})", kernel_normalization_tail, pr, j)
                for e in range(-2, 3):
                    _emit(out, f"{tag} power_over_ball({e})", power_over_ball, fp, alpha, e)
                    _emit(out, f"{tag} shifted_power_over_sphere({e})", shifted_power_over_sphere, fp, alpha, e)
            for e in range(-2, 3):
                _emit(out, f"p={p} n={n} log_over_ball({e})", log_over_ball, fp, e)
                _emit(out, f"p={p} n={n} shifted_log_over_sphere({e})", shifted_log_over_sphere, fp, e)
    for name, f in _corpus():
        fp = f.fp
        window = [digits_to_point(fp, d, f.support_level) for d in enumerate_digits(fp, f.support_level, f.constancy_level)]
        _emit(out, f"{name} fourier", fourier_transform, f)
        _emit(out, f"{name} inverse fourier", fourier_transform, f, True)
        for profile in (PowerProfile(Fraction(-1, 2)), PowerProfile(Fraction(1)), LogProfile()):
            _emit(out, f"{name} integrate_product({profile})", integrate_product, profile, f)
        for alpha in ALPHAS:
            pr = OperatorParams(fp, alpha)
            tag = f"{name} alpha={alpha}"
            _emit(out, f"{tag} riesz_potential", riesz_potential, pr, f)
            try:
                u = riesz_potential(pr, f)
            except Exception:
                u = None
            for nu in (None, 1, 2):
                _emit(out, f"{tag} vladimirov_on_window(phi, nu={nu})", vladimirov_on_window, pr, f, None, nu)
                if u is not None:
                    _emit(out, f"{tag} vladimirov_on_window(u, nu={nu})", vladimirov_on_window, pr, u, f.support_level, nu)
            for nu in (1, 2):
                _emit(out, f"{tag} averaging_apply(nu={nu})", lambda: [(x, averaging_apply(pr, nu, f, x)) for x in window])
                for lp in (1, 2):
                    _emit(out, f"{tag} inversion_residual(p={lp}, nu={nu})", inversion_residual, pr, lp, f, nu)
                    _emit(out, f"{tag} minkowski_bound(p={lp}, nu={nu})", minkowski_bound, pr, lp, f, nu)
            _emit(out, f"{tag} multiplier_vladimirov", multiplier_vladimirov, fp, alpha, f)
            bridge = DimensionBridge(fp.p, fp.n, alpha)
            _emit(out, f"{tag} taibleson_direct", lambda: [(x, taibleson_direct(bridge, f, x)) for x in window])
            _emit(out, f"{tag} taibleson_via_extension", lambda: [(x, taibleson_via_extension(bridge, f, x)) for x in window])
    return out


def test_every_route_value_is_unchanged():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stream = _stream()
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    assert digest == FINGERPRINT


def _log_tables():
    """Tables over q = 2, 3, 4 at levels 0..2 whose entries mix rationals with
    ln q, 1/ln q and (for p = 2) ln 3 multiples; one real and one complex table per mix."""
    rng = random.Random(1931)
    for fp in (FieldParams(2), FieldParams(3), FieldParams(2, 2)):
        mixes = {
            "ln": lambda r: ExactScalar.ln_q(fp, r),
            "inv_ln": lambda r: ExactScalar.inv_ln_q(fp, r),
        }
        if fp.p == 2:
            mixes["ln3"] = lambda r: ExactScalar(Fraction(0), r, Fraction(0), 3)

        for mix, log_part in mixes.items():
            for complex_vals in (False, True):

                def part():
                    r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    kind = rng.randrange(3)
                    if kind == 0:
                        return NumericValue.from_rational(r)
                    s = log_part(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                    return NumericValue.from_exact(s if kind == 1 else ExactScalar.rational(r) + s)

                table = {
                    d: ComplexValue(part(), part() if complex_vals else NumericValue.from_rational(0))
                    for d in enumerate_digits(fp, 0, 2)
                }
                yield f"p={fp.p} n={fp.n} {mix} {'complex' if complex_vals else 'real'}", TestFunction(fp, 0, 2, table)


def _log_table_stream() -> list[str]:
    out: list[str] = []
    for name, f in _log_tables():
        fp = f.fp
        window = [digits_to_point(fp, d, 0) for d in enumerate_digits(fp, 0, 2)]
        out.append(f"{name}: {_ser(f)}")
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            pr = OperatorParams(fp, alpha)
            tag = f"{name} alpha={alpha}"
            _emit(out, f"{tag} riesz_potential", riesz_potential, pr, f)
            for nu in (None, 1, 2):
                _emit(out, f"{tag} vladimirov_on_window(nu={nu})", vladimirov_on_window, pr, f, None, nu)
            _emit(out, f"{tag} averaging_apply(nu=1)", lambda: [(x, averaging_apply(pr, 1, f, x)) for x in window])
            _emit(out, f"{tag} inversion_residual(p=1, nu=1)", inversion_residual, pr, 1, f, 1)
            _emit(out, f"{tag} minkowski_bound(p=1, nu=1)", minkowski_bound, pr, 1, f, 1)
            if fp.n == 2:
                bridge = DimensionBridge(fp.p, 2, alpha)
                _emit(out, f"{tag} taibleson_direct", lambda: [(x, taibleson_direct(bridge, f, x)) for x in window])
                _emit(out, f"{tag} taibleson_via_extension", lambda: [(x, taibleson_via_extension(bridge, f, x)) for x in window])
    return out


def test_every_log_table_value_is_unchanged():
    # tables with ln or 1/ln parts are built by hand only; pin what every
    # route returns on them, exact coefficients and float bits alike
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stream = _log_table_stream()
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    assert digest == LOG_TABLE_FINGERPRINT


FLOAT_POOL = (0.0, -0.0, 0.5, -1.25, 3.0, 1e-3)


def _float_tables():
    """Tables whose every part is a float, some of them a signed zero, over q = 2, 3, 4."""
    rng = random.Random(2207)
    for fp, s in ((FieldParams(2), -1), (FieldParams(3), 0), (FieldParams(2, 2), 0)):
        for i in range(2):

            def part():
                return rng.choice(FLOAT_POOL) if rng.random() < 0.4 else rng.uniform(-4.0, 4.0)

            table = {
                d: ComplexValue(NumericValue.from_float(part()), NumericValue.from_float(part()))
                for d in enumerate_digits(fp, s, 2)
            }
            yield f"p={fp.p} n={fp.n} #{i}", TestFunction(fp, s, 2, table)


def _float_table_stream() -> list[str]:
    out: list[str] = []
    tails = {
        "zero": ZeroTail(),
        "power": power_tail(ComplexValue.from_complex(complex(0.75, -2.5)), Fraction(-1, 2)),
        "log": log_tail(ComplexValue.from_complex(complex(-0.0, 1.5)), ComplexValue.from_complex(complex(0.25, 0.0))),
    }
    for name, f in _float_tables():
        fp = f.fp
        window = [digits_to_point(fp, d, f.support_level) for d in enumerate_digits(fp, f.support_level, 2)]
        out.append(f"{name}: {_ser(f)}")
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            pr = OperatorParams(fp, alpha)
            tag = f"{name} alpha={alpha}"
            _emit(out, f"{tag} riesz_potential", riesz_potential, pr, f)
            try:
                u = riesz_potential(pr, f)
            except Exception:
                u = None
            for nu in (None, 1, 2):
                if u is not None:
                    _emit(out, f"{tag} vladimirov_on_window(u, nu={nu})", vladimirov_on_window, pr, u, f.support_level, nu)
                for tail_name, tail in tails.items():
                    g = ExtendedFunction(f, tail)
                    for w in (None, f.support_level):
                        _emit(out, f"{tag} {tail_name} vladimirov_on_window({w}, nu={nu})", vladimirov_on_window, pr, g, w, nu)
            for nu in (1, 2):
                for tail_name, tail in tails.items():
                    g = ExtendedFunction(f, tail)
                    _emit(out, f"{tag} {tail_name} averaging_apply(nu={nu})", lambda: [(x, averaging_apply(pr, nu, g, x)) for x in window])
    return out


def test_every_float_table_value_is_unchanged():
    # all-float tables are the Riesz potentials of irrational orders; pin what
    # the hypersingular, averaging and Riesz routes return on hand-built ones
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stream = _float_table_stream()
    digest = hashlib.sha256("\n".join(stream).encode()).hexdigest()
    assert digest == FLOAT_TABLE_FINGERPRINT
