"""Rank-zero additive character, Fourier transform on test functions, and
the Fourier-multiplier route to fractional differentiation.

The character is x -> exp(2*pi*i*{x}) per coordinate, multiplied across
coordinates; {x} is the exact fractional part of the rational coordinate.
It is trivial on the unit ball and non-trivial one level out.  Character
arguments are exact rationals; only the final complex exponential floats.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .field import (
    FieldParams,
    Point,
    abs_exponent,
    digits_to_point,
    enumerate_digits,
)
from .functions import TestFunction
from .numerics import CV_ZERO, ComplexValue, as_fraction, geometric_tail, q_pow

_EXACT_PHASES = {
    Fraction(0): ComplexValue.from_rational(1, 0),
    Fraction(1, 2): ComplexValue.from_rational(-1, 0),
    Fraction(1, 4): ComplexValue.from_rational(0, 1),
    Fraction(3, 4): ComplexValue.from_rational(0, -1),
}


def fractional_part(fr: Fraction) -> Fraction:
    """Representative of fr modulo 1 in [0, 1)."""
    return Fraction(fr.numerator % fr.denominator, fr.denominator)


def character_arg(fp: FieldParams, x: Point) -> Fraction:
    """Exact phase {x} in [0, 1): sum of coordinate fractional parts mod 1."""
    total = Fraction(0)
    for c in x.coords:
        total += fractional_part(c)
    return fractional_part(total)


def pairing_arg(fp: FieldParams, x: Point, xi: Point) -> Fraction:
    """Exact phase of the dual pairing sum_j x_j * xi_j, in [0, 1)."""
    total = Fraction(0)
    for a, b in zip(x.coords, xi.coords, strict=True):
        total += fractional_part(a * b)
    return fractional_part(total)


def phase_value(arg: Fraction) -> ComplexValue:
    """exp(2*pi*i*arg); exact for the fourth roots of unity, float otherwise."""
    hit = _EXACT_PHASES.get(arg)
    if hit is not None:
        return hit
    return ComplexValue.from_complex(cmath.exp(2j * cmath.pi * float(arg)))


def character_eval(fp: FieldParams, x: Point) -> complex:
    """Rank-zero additive character at x; a root of unity of p-power order."""
    return phase_value(character_arg(fp, x)).to_complex()


def fourier_transform(f: TestFunction, inverse: bool = False) -> TestFunction:
    """Fourier transform by finite character sums; exact support/constancy swap.

    The output is supported in the ball at level -constancy_level and is
    locally constant at level -support_level.
    """
    fp = f.fp
    m = -f.support_level
    k = f.constancy_level
    out_support = -k
    out_constancy = m
    sign = -1 if inverse else 1
    scale = Fraction(fp.q) ** (-k)
    inputs = [(digits_to_point(fp, d, f.support_level), v) for d, v in
              ((d, f.values[d]) for d in f.addresses())]
    table = {}
    for d_out in enumerate_digits(fp, out_support, out_constancy):
        xi = digits_to_point(fp, d_out, out_support)
        acc = ComplexValue.zero()
        for c_pt, v in inputs:
            if v.is_exact_zero():
                continue
            acc = acc + v * phase_value(fractional_part(sign * pairing_arg(fp, c_pt, xi)))
        table[d_out] = acc * scale
    return TestFunction(fp, out_support, out_constancy, table)


def multiplier_vladimirov(
    fp: FieldParams,
    exponent,
    f: TestFunction,
    window_level: int | None = None,
) -> list[tuple[Point, complex]]:
    """Fractional derivative values via the |xi|**exponent Fourier multiplier.

    Computes the inverse transform of |xi|**exponent * (F f)(xi) at the
    cosets of the window (input window dilated by one level by default).
    The multiplier times the transform is locally constant away from zero,
    so that part is the inverse transform of a table whose zero coset is
    zeroed; the shells accumulating at zero integrate against the character
    in closed form, so every value is a finite sum.
    """
    exponent = as_fraction(exponent)
    if exponent <= 0:
        raise ValueError(f"multiplier exponent must be positive, got {exponent}")
    ft = fourier_transform(f)
    k_hat = ft.constancy_level
    window = (f.support_level - 1) if window_level is None else window_level

    zero_addr = tuple((0,) * (k_hat - ft.support_level) for _ in range(fp.n))
    hat_at_zero = ft.values[zero_addr]
    weighted = {
        d: CV_ZERO if d == zero_addr else v * q_pow(fp, exponent * abs_exponent(fp, pt))
        for d, pt, v in ft.items()
    }
    away = fourier_transform(TestFunction(fp, ft.support_level, k_hat, weighted), inverse=True)

    out = []
    for d in enumerate_digits(fp, window, f.constancy_level):
        x = digits_to_point(fp, d, window)
        e_x = abs_exponent(fp, x)
        # radial shells of the zero coset against the character, closed form:
        # full character mass on shells at or inside |x|**-1, one negative
        # shell just outside it, nothing beyond
        j_start = k_hat if e_x is None else max(k_hat, e_x)
        s = (1 - Fraction(1, fp.q)) * geometric_tail(fp, exponent + 1, j_start)
        if e_x is not None and e_x - 1 >= k_hat:
            s = s - q_pow(fp, -exponent * (e_x - 1)) * Fraction(fp.q) ** (-e_x)
        out.append((x, (away.evaluate(x) + hat_at_zero * s).to_complex()))
    return out
