"""Max-norm fractional differentiation on K^n and its identification with
the one-dimensional operator over an unramified degree-n extension.

The coordinate model makes the two readings of the same operator literally
comparable.  ``taibleson_direct`` sums shells in the max-norm geometry, in
powers of the base prime.  A rational table reads each shell's difference
sum as two ball sums of the table's one pyramid and sums the shells on the
``mixed_sum`` lane; any other table walks each shell coset by coset.  The
extension reading runs the engine at q**n and gamma = alpha/n.  The two
routes share no formula code, only the table's ball sums and each window
coset's location; their agreement is a theorem and a test.  Both refuse a
table over a field other than the extension model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .field import (
    Digits,
    FieldParams,
    Point,
    _window_locations,
    abs_exponent,
    coset_walk,
    sphere_coset_reps,
)
from .functions import TestFunction, _check_field
from .numerics import (
    CV_ZERO,
    ComplexValue,
    NumericValue,
    as_fraction,
    geometric_tail,
    mixed_sum,
    q_pow,
)
from .operators import OperatorParams, _vladimirov_at, inversion_residual, kernel_r, vladimirov_hypersingular


@dataclass(frozen=True)
class DimensionBridge:
    """Base field, its degree-n unramified extension model, and the order alpha; base, ext and ext_params are built once, and eq and hash stay by field."""

    p: int
    n: int
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"order must be positive, got {self.alpha}")

    @cached_property
    def base(self) -> FieldParams:
        return FieldParams(self.p, 1)

    @cached_property
    def ext(self) -> FieldParams:
        return FieldParams(self.p, self.n)

    @cached_property
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
    """The weights of taibleson_direct's finite shells, then that of f(x): minus the far measure.

    Every far shell, where f vanishes, sees the difference -f(x).
    """
    finite_js = [j_t] if j_t < window else range(window, k)
    return [*(_direct_weight(bridge, k, j) for j in finite_js), -_direct_far(bridge, j_t)]


def taibleson_direct(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Max-norm hypersingular derivative on K^n, summed in base-prime powers: ``_direct_at`` at x, located once."""
    _check_field(bridge.ext, f, "the max-norm operator")
    return _direct_at(bridge, f, x, *f._locate(x))


def _direct_at(bridge: DimensionBridge, f: TestFunction, x: Point, d: Digits | None, e: int | None) -> ComplexValue:
    """``taibleson_direct`` at x, which f located at (d, e).

    Shell decomposition of the difference integral against the kernel
    ||z - x||**(-(n+alpha)) with the n-dimensional normalizing constant;
    locally constant inputs kill every shell inside the constancy scale.
    A rational table reads each shell's sum of f(z) - f(x) from two ball
    sums of ``TestFunction._pair_levels`` and sums the shells on the
    ``mixed_sum`` lane, held on f per (bridge, j_t) under a key of this
    route's own; any other table walks each shell coset by coset around x.
    """
    k, window = f.constancy_level, f.support_level
    j_t = window if d is not None else -e  # beyond the support, |x| = q**e > q**(-window)
    finite_js = [j_t] if j_t < window else range(window, k)

    key = (_direct_weights, bridge, j_t)
    if key not in f._routes:
        f._routes[key] = mixed_sum(_direct_weights, (bridge, k, j_t, window), f._integer_view)
    weighted = f._routes[key]
    if weighted is not None:
        return weighted(f._prefix_differences(d, e, finite_js)) * _direct_constant(bridge)

    fx = CV_ZERO if d is None else f.values[d]
    total = CV_ZERO
    for j in finite_js:
        shell_acc = CV_ZERO
        for rep in sphere_coset_reps(bridge.ext, j, k):
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
    build it once; ``taibleson_direct`` holds its own lanes and shares nothing with it.
    """
    _check_field(bridge.ext, f, "the max-norm operator")
    return vladimirov_hypersingular(bridge.ext_params, f, x)


def taibleson_on_window(bridge: DimensionBridge, f: TestFunction) -> list[tuple[Point, ComplexValue, ComplexValue]]:
    """(point, direct value, via-extension value) on the cosets of f's window dilated by one level, each located once from its digits."""
    _check_field(bridge.ext, f, "the max-norm operator")
    fp, w, k = f.fp, f.support_level - 1, f.constancy_level
    via_ext = _vladimirov_at(bridge.ext_params, None, f)
    located = _window_locations(fp, w, f.support_level, k)
    return [(x, _direct_at(bridge, f, x, d, e), via_ext(x, d, e)) for (_, x), (_, d, e) in zip(coset_walk(fp, w, k), located)]


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
