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
table over a field other than the extension model.  Both are located routes
held by ``operators._held_route``; this module keeps no cache of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable

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
from .operators import OperatorParams, _held_route, _vladimirov_at, inversion_residual, kernel_r, vladimirov_hypersingular


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


def _direct_weights(bridge: DimensionBridge, k: int, j_t: int, window: int) -> list[NumericValue]:
    """The weights of the max-norm route's finite shells, then that of f(x): minus the far measure.

    Every far shell, where f vanishes, sees the difference -f(x).
    """
    n, base = bridge.n, bridge.base
    finite_js = [j_t] if j_t < window else range(window, k)
    far = (1 - Fraction(bridge.p) ** (-n)) * geometric_tail(base, bridge.alpha, -(j_t - 1))
    return [*(q_pow(base, (n + bridge.alpha) * j) * Fraction(bridge.p) ** (-k * n) for j in finite_js), -far]


def _direct(bridge: DimensionBridge, nu: None, f: TestFunction) -> Callable[[Point, Digits | None, int | None], ComplexValue]:
    """(x, d, e) -> ``taibleson_direct`` at x, whole (nu None); (d, e) is where f located x.

    Shell decomposition of the difference integral against the kernel
    ||z - x||**(-(n+alpha)) with the n-dimensional normalizing constant;
    locally constant inputs kill every shell inside the constancy scale.
    The build checks the field and computes the constant; per j_t it holds
    the finite shells, the ``mixed_sum`` lane and the weights.  A rational
    table reads each shell's sum of f(z) - f(x) from two ball sums of
    ``TestFunction._pair_levels`` and sums the shells on the lane; any
    other table walks each shell coset by coset around x.
    """
    _check_field(bridge.ext, f, "the max-norm operator")
    k, window = f.constancy_level, f.support_level
    c = (1 - q_pow(bridge.base, bridge.alpha)) / (1 - q_pow(bridge.base, -bridge.alpha - bridge.n))

    @cache
    def shells(j_t: int) -> tuple:
        args = (bridge, k, j_t, window)
        finite_js = [j_t] if j_t < window else range(window, k)
        return finite_js, mixed_sum(_direct_weights, args, f._integer_view), _direct_weights(*args)

    def direct_at(x: Point, d: Digits | None, e: int | None) -> ComplexValue:
        j_t = window if d is not None else -e  # beyond the support, |x| = q**e > q**(-window)
        finite_js, weighted, weights = shells(j_t)
        if weighted is not None:
            return weighted(f._prefix_differences(d, e, finite_js)) * c
        fx = CV_ZERO if d is None else f.values[d]
        total = CV_ZERO
        for j, weight in zip(finite_js, weights):
            shell_acc = CV_ZERO
            for rep in sphere_coset_reps(bridge.ext, j, k):
                dv = f.evaluate(x + rep) - fx
                if dv.is_exact_zero():
                    continue
                shell_acc = shell_acc + dv
            if not shell_acc.is_exact_zero():
                total = total + shell_acc * weight
        # far shells: f vanishes there, the difference is -f(x) on every shell
        if not fx.is_exact_zero():
            total = total - fx * -weights[-1]
        return total * c

    return direct_at


def taibleson_direct(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Max-norm hypersingular derivative on K^n, summed in base-prime powers: the route ``_direct``, held on f (``operators._held_route``)."""
    return _held_route(_direct, bridge, None, f, x)


def taibleson_via_extension(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Same operator through the degree-n extension model at exponent alpha/n.

    The extension route is held on f, so calls at many points of one table
    build it once; ``taibleson_direct``'s is held beside it, under its own key.
    """
    _check_field(bridge.ext, f, "the max-norm operator")
    return vladimirov_hypersingular(bridge.ext_params, f, x)


def taibleson_on_window(bridge: DimensionBridge, f: TestFunction) -> list[tuple[Point, ComplexValue, ComplexValue]]:
    """(point, direct value, via-extension value) on the cosets of f's window dilated by one level, each located once from its digits; both routes are built per call and held nowhere."""
    direct, via_ext = _direct(bridge, None, f), _vladimirov_at(bridge.ext_params, None, f)
    fp, w, k = f.fp, f.support_level - 1, f.constancy_level
    located = _window_locations(fp, w, f.support_level, k)
    return [(x, direct(x, d, e), via_ext(x, d, e)) for (_, x), (_, d, e) in zip(coset_walk(fp, w, k), located)]


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
