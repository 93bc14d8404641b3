"""Max-norm fractional differentiation on K^n and its identification with
the one-dimensional operator over an unramified degree-n extension.

The coordinate model makes the two readings of the same operator literally
comparable: ``taibleson_direct`` sums shells in the max-norm geometry with
the n-dimensional constant (all scalar algebra in powers of the base prime),
while ``taibleson_via_extension`` delegates to the one-dimensional machinery
at residue cardinality q**n with exponent gamma = alpha/n.  The two routes
share no formula code; their agreement is a theorem and a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import (
    FieldParams,
    Point,
    abs_exponent,
    coset_walk,
    sphere_coset_reps,
)
from .functions import ExtendedFunction, TestFunction
from .numerics import (
    CV_ZERO,
    ComplexValue,
    NumericValue,
    as_fraction,
    geometric_tail,
    q_pow,
)
from .operators import OperatorParams, inversion_residual, kernel_r, vladimirov_hypersingular


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
    def gamma(self) -> Fraction:
        return self.alpha / self.n

    @property
    def ext_params(self) -> OperatorParams:
        return OperatorParams(self.ext, self.alpha)


def max_norm(fp: FieldParams, x: Point) -> Fraction:
    """max_j |x_j|_p, the base-prime norm whose n-th power is |x|."""
    e = abs_exponent(fp, x)
    if e is None:
        return Fraction(0)
    return Fraction(fp.p) ** e


def taibleson_direct(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Max-norm hypersingular derivative on K^n, summed in base-prime powers.

    Shell decomposition of the difference integral against the kernel
    ||z - x||**(-(n+alpha)) with the n-dimensional normalizing constant;
    locally constant inputs kill every shell inside the constancy scale.
    """
    base = bridge.base
    ext = bridge.ext
    n = bridge.n
    alpha = bridge.alpha
    c_dir = (1 - q_pow(base, alpha)) / (1 - q_pow(base, -alpha - n))

    fx = f.evaluate(x)
    k = f.constancy_level
    window = f.support_level
    e_x = abs_exponent(ext, x)
    l_x = None if e_x is None else -e_x

    if l_x is not None and l_x < window:
        j_t = l_x
        finite_js = [l_x] if l_x <= k - 1 else []
    else:
        j_t = window
        finite_js = list(range(j_t, k))

    coset_meas = Fraction(bridge.p) ** (-k * n)  # every shell below has j < k
    total = CV_ZERO
    for j in finite_js:
        kernel = q_pow(base, (n + alpha) * j)
        shell_acc = CV_ZERO
        for rep in sphere_coset_reps(ext, j, k):
            dv = f.evaluate(x + rep) - fx
            if dv.is_exact_zero():
                continue
            shell_acc = shell_acc + dv
        if not shell_acc.is_exact_zero():
            total = total + shell_acc * (kernel * coset_meas)
    # far shells: f vanishes there, the difference is -f(x) on every shell
    if not fx.is_exact_zero():
        one_minus = 1 - Fraction(bridge.p) ** (-n)
        far = geometric_tail(base, alpha, -(j_t - 1))
        total = total - fx * (one_minus * far)
    return total * c_dir


def taibleson_via_extension(bridge: DimensionBridge, f: TestFunction, x: Point) -> ComplexValue:
    """Same operator through the degree-n extension model at exponent alpha/n."""
    u = ExtendedFunction.from_test_function(f)
    return vladimirov_hypersingular(bridge.ext_params, u, x)


def taibleson_on_window(
    bridge: DimensionBridge,
    f: TestFunction,
    window_level: int | None = None,
) -> list[tuple[Point, ComplexValue, ComplexValue]]:
    """(point, direct value, via-extension value) on the dilated window cosets."""
    w = (f.support_level - 1) if window_level is None else window_level
    return [
        (pt, taibleson_direct(bridge, f, pt), taibleson_via_extension(bridge, f, pt))
        for _, pt in coset_walk(bridge.ext, w, f.constancy_level)
    ]


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
