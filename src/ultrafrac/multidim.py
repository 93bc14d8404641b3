"""Max-norm fractional differentiation on K^n and its identification with
the one-dimensional operator over an unramified degree-n extension.

The coordinate model makes the two readings of the same operator literally
comparable.  ``taibleson_direct`` sums shells in the max-norm geometry, in
powers of the base prime, each as two ball sums of the table's own prefix
table (a coset walk for a table with a float or log part).  On a rational
table whose shell weights are exact, the shells are weighted and summed as
integer numerators over one denominator, and the value becomes one
``ExactScalar`` per part at the end.  The extension reading runs the
engine at q**n and gamma = alpha/n.  The two routes share no formula code,
only the integer encoding of a table; their agreement is a theorem and a
test.  Both refuse a table over a field other than the extension model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .field import (
    FieldParams,
    Point,
    abs_exponent,
    sphere_coset_reps,
)
from .errors import UltrafracError
from .functions import TestFunction
from .numerics import (
    CV_ZERO,
    NV_ZERO,
    ComplexValue,
    NumericValue,
    as_fraction,
    decode,
    geometric_tail,
    integer_sum,
    q_pow,
)
from .operators import OperatorParams, inversion_residual, kernel_r, vladimirov_hypersingular, vladimirov_on_window


@dataclass(frozen=True)
class DimensionBridge:
    """Base field, its degree-n unramified extension model, and the order alpha."""

    p: int
    n: int
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"order must be positive, got {self.alpha}")

    @property
    def base(self) -> FieldParams:
        return FieldParams(self.p, 1)

    @property
    def ext(self) -> FieldParams:
        return FieldParams(self.p, self.n)

    @property
    def ext_params(self) -> OperatorParams:
        return OperatorParams(self.ext, self.alpha)


def max_norm(fp: FieldParams, x: Point) -> Fraction:
    """max_j |x_j|_p, the base-prime norm whose n-th power is |x|."""
    e = abs_exponent(fp, x)
    if e is None:
        return Fraction(0)
    return Fraction(fp.p) ** e


@lru_cache(maxsize=256)
def _direct_constant(bridge: DimensionBridge) -> NumericValue:
    return (1 - q_pow(bridge.base, bridge.alpha)) / (1 - q_pow(bridge.base, -bridge.alpha - bridge.n))


@lru_cache(maxsize=1024)
def _direct_weight(bridge: DimensionBridge, k: int, j: int) -> NumericValue:
    return q_pow(bridge.base, (bridge.n + bridge.alpha) * j) * Fraction(bridge.p) ** (-k * bridge.n)


@lru_cache(maxsize=1024)
def _direct_far(bridge: DimensionBridge, j_t: int) -> NumericValue:
    return (1 - Fraction(bridge.p) ** (-bridge.n)) * geometric_tail(bridge.base, bridge.alpha, -(j_t - 1))


def _direct_weights(bridge: DimensionBridge, k: int, j_t: int, window: int) -> list[NumericValue]:
    """The weights of taibleson_direct's finite shells, then that of f(x).

    f(x) enters shell j once per coset of the shell, with a minus sign, and
    every far shell, where f vanishes, against the far measure.
    """
    q = bridge.ext.q
    finite_js = [j_t] if j_t < window else range(window, k)
    shells = [_direct_weight(bridge, k, j) for j in finite_js]
    counted = sum((w * ((q - 1) * q ** (k - j - 1)) for j, w in zip(finite_js, shells)), NV_ZERO)
    return [*shells, -counted - _direct_far(bridge, j_t)]


def _check_field(bridge: DimensionBridge, f: TestFunction) -> None:
    if f.fp != bridge.ext:
        raise UltrafracError(f"a degree-{bridge.n} operator over p = {bridge.p} needs a table over {bridge.ext}, got {f.fp}")


def taibleson_direct(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Max-norm hypersingular derivative on K^n, summed in base-prime powers.

    Shell decomposition of the difference integral against the kernel
    ||z - x||**(-(n+alpha)) with the n-dimensional normalizing constant;
    locally constant inputs kill every shell inside the constancy scale.
    A rational table reads each sphere as two prefix ball sums, and sums
    in integers where its weights are exact.
    """
    _check_field(bridge, f)
    ext, k, window = bridge.ext, f.constancy_level, f.support_level
    d, e = f._locate(x)
    j_t = window if d is not None else -e  # beyond the support, |x| = q**e > q**(-window)
    finite_js = [j_t] if j_t < window else range(window, k)

    view = f._integer_view
    weighted = integer_sum(_direct_weights, (bridge, k, j_t, window), view)
    if weighted is not None:
        return weighted(f._prefix_spheres(d, e, finite_js)) * _direct_constant(bridge)

    fx = CV_ZERO if d is None else f.values[d]
    total = CV_ZERO
    for j in finite_js:
        if view is not None:
            sphere = decode(f._sphere_around(d, e, j), view.denominator)
            shell_acc = sphere - fx * ((ext.q - 1) * ext.q ** (k - j - 1))
        else:
            shell_acc = CV_ZERO
            for rep in sphere_coset_reps(ext, j, k):
                dv = f.evaluate(x + rep) - fx
                if dv.is_exact_zero():
                    continue
                shell_acc = shell_acc + dv
        if not shell_acc.is_exact_zero():
            total = total + shell_acc * _direct_weight(bridge, k, j)
    # far shells: f vanishes there, the difference is -f(x) on every shell
    if not fx.is_exact_zero():
        total = total - fx * _direct_far(bridge, j_t)
    return total * _direct_constant(bridge)


def taibleson_via_extension(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Same operator through the degree-n extension model at exponent alpha/n.

    The extension route is held on f, so calls at many points of one table
    build it once; ``taibleson_direct`` holds nothing and shares nothing with it.
    """
    _check_field(bridge, f)
    return vladimirov_hypersingular(bridge.ext_params, f, x)


def taibleson_on_window(bridge: DimensionBridge, f: TestFunction) -> list[tuple[Point, ComplexValue, ComplexValue]]:
    """(point, direct value, via-extension value) on the cosets of f's window dilated by one level."""
    _check_field(bridge, f)
    via_ext = vladimirov_on_window(bridge.ext_params, f)
    return [(pt, taibleson_direct(bridge, f, pt), value) for pt, value in via_ext]


def kernel_r_multidim(bridge: DimensionBridge, j: int) -> NumericValue:
    """Averaging kernel shell value in the extension model.

    Defined by substituting q -> q**n and exponent alpha/n into the
    one-dimensional closed form (the route forced by the extension
    identification and validated against the defining integral).
    """
    if not (0 < bridge.alpha < bridge.n):
        raise ValueError(
            f"kernel path needs 0 < alpha < n, got alpha={bridge.alpha}, n={bridge.n}"
        )
    return kernel_r(bridge.ext_params, j)


def inversion_residual_multidim(bridge: DimensionBridge, p, f: TestFunction, nu: int) -> float:
    """L^p inversion residual computed through the extension model."""
    return inversion_residual(bridge.ext_params, p, f, nu)
