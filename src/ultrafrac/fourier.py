"""Rank-zero additive character, Fourier transform on test functions, and
the Fourier-multiplier route to fractional differentiation.

The character is x -> exp(2*pi*i*{x}) per coordinate, multiplied across
coordinates; {x} is the exact fractional part of the rational coordinate.
It is trivial on the unit ball and non-trivial one level out.  Character
arguments are exact rationals; only the final complex exponential floats.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

from .field import (
    FieldParams,
    Point,
    _coordinate_integers,
    _window_locations,
    coset_walk,
)
from .functions import TestFunction, _check_field
from .numerics import (
    CV_ZERO,
    NV_ZERO,
    ComplexValue,
    NumericValue,
    as_fraction,
    geometric_tail,
    q_pow,
    quarter_turn_sum,
)

_EXACT_PHASES = {
    Fraction(0): ComplexValue.from_rational(1, 0),
    Fraction(1, 2): ComplexValue.from_rational(-1, 0),
    Fraction(1, 4): ComplexValue.from_rational(0, 1),
    Fraction(3, 4): ComplexValue.from_rational(0, -1),
}

# the parts of an output with a non-exact phase: both are the FFT's floats
_BOTH_FLOAT = (NumericValue.from_float(0.0),) * 2


def fractional_part(fr: Fraction) -> Fraction:
    """Representative of fr modulo 1 in [0, 1)."""
    return Fraction(fr.numerator % fr.denominator, fr.denominator)


def character_arg(fp: FieldParams, x: Point) -> Fraction:
    """Exact phase {x} in [0, 1): sum of coordinate fractional parts mod 1."""
    total = Fraction(0)
    for c in x.coords:
        total += fractional_part(c)
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


def _dot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    return sum(map(operator.mul, a, b))


def _fft_line(x: list[complex], p: int, twiddle: tuple[complex, ...]) -> list[complex]:
    """sum over a of x[a] * w**(a*b) for every b, w = twiddle[len(twiddle) // len(x)].

    Radix-p decimation in time: the p subsequences x[r::p] are transformed
    at a p-th of the length and recombined with the twiddles w**(r*b).
    """
    m = len(x)
    if m == 1:
        return x
    sub = m // p
    parts = [_fft_line(x[r::p], p, twiddle) for r in range(p)]
    size = len(twiddle)
    step = size // m
    out = []
    for b in range(m):
        s = parts[0][b % sub]
        for r in range(1, p):
            s += twiddle[step * r * b % size] * parts[r][b % sub]
        out.append(s)
    return out


def _fft(z: list[complex], p: int, n: int, twiddle: tuple[complex, ...]) -> None:
    """In place: z[B] <- sum over A of z[A] * twiddle[A.B mod L], for A, B in (Z/L)**n.

    L = len(twiddle); vectors are flattened with coordinate 0 most
    significant, and one length-L transform runs along each coordinate.
    """
    size = len(twiddle)
    for axis in range(n):
        stride = size ** (n - 1 - axis)
        block = stride * size
        for start in range(0, len(z), block):
            for base in range(start, start + stride):
                line = slice(base, base + block, stride)
                z[line] = _fft_line(z[line], p, twiddle)


@lru_cache(maxsize=32)
def _twiddles(size: int, sign: int) -> tuple[complex, ...]:
    """The phase of every index t mod size, one exp per index; the fourth roots of unity exact."""
    return tuple(phase_value(Fraction(sign * t % size, size)).to_complex() for t in range(size))


def _float_transform(f: TestFunction, vectors, sign: int, size: int) -> dict:
    """Unscaled float transform at every address: the FFT of the table's complex values."""
    n = f.fp.n
    strides = [size ** (n - 1 - i) for i in range(n)]
    place = {d: _dot(b, strides) for d, b in vectors.items()}
    z = [0j] * len(place)
    for d, v in f.values.items():
        z[place[d]] = v.to_complex()
    _fft(z, f.fp.p, n, _twiddles(size, sign))
    return {d: z[i] for d, i in place.items()}


def _turns(terms, b: tuple[int, ...], sign: int, size: int):
    """Each term's item with the quarter count of its phase at output b, every phase being 1, i, -1 or -i."""
    for a, item in terms:
        yield item, sign * _dot(a, b) % size * 4 // size


def _quarter_turn_sum(terms, b: tuple[int, ...], sign: int, size: int) -> tuple[NumericValue, NumericValue]:
    """Direct sum of v * phase over the terms at output b, every phase being 1, i, -1 or -i.

    Each exact phase carries one part of v into each part of the term, so
    the sum takes the exact-versus-float path of the term-by-term sum; it
    stops once both parts are floats.
    """
    re = im = NV_ZERO
    for v, quarter in _turns(terms, b, sign, size):
        # v * i**quarter: (re, im), (-im, re), (-re, -im), (im, -re)
        x, y = (v.im, v.re) if quarter & 1 else (v.re, v.im)
        re = re + (-x if quarter in (1, 2) else x)
        im = im + (-y if quarter in (2, 3) else y)
        if not (re.is_exact or im.is_exact):
            break
    return re, im


def fourier_transform(f: TestFunction, inverse: bool = False) -> TestFunction:
    """Fourier transform by finite character sums; exact support/constancy swap.

    The output is supported in the ball at level -constancy_level and is
    locally constant at level -support_level.  With D = constancy_level -
    support_level, the digits a_j of an input coset and b_j of an output coset
    give one integer per coordinate, A = sum_j a_j p**j and B = sum_j b_j p**j,
    and the character pairing of the two cosets has the phase index
    t = A.B mod p**D: the phase is exp(2*pi*i*t / p**D), conjugated by the
    inverse.  So the transform is a DFT over (Z/p**D)**n, computed by a
    radix-p FFT on complex floats in O(N * D * p) for N = p**(D*n) cosets.

    Exactness is that of the direct sum of value * phase, part by part.  The
    phase is exact (1, i, -1 or -i) iff 4*t = 0 mod p**D; any other phase
    makes both parts of a term with a nonzero value floats.  An exact phase
    carries each part of the value into one part of the term, so an output
    part is exact iff none of its terms is a float.  On a rational table
    (every part an exact rational) each such part is one integer sum of
    numerators over the table's one denominator, the phase only permuting
    and negating each (re, im) numerator pair; every other table keeps the
    term-by-term ring sum, in input order.  A part that is not exact is the
    FFT's float.
    """
    fp = f.fp
    p = fp.p
    depth = f.constancy_level - f.support_level
    size = p**depth
    sign = -1 if inverse else 1
    scale = Fraction(fp.q) ** (-f.constancy_level)
    # outputs have the same digit depth as inputs, so the same addresses; in
    # enumerate_digits order each address's integers are the product of one coordinate's
    ints, _ = _coordinate_integers(p, depth)
    vectors = dict(zip(f.addresses(), product(ints, repeat=fp.n)))
    nonzero = [(a, d) for d, a in vectors.items() if not f.values[d].is_exact_zero()]

    # outputs whose every phase is exact: A.B = 0 mod size / gcd(size, 4) for each input A
    modulus = size // math.gcd(size, 4)
    quarter_turns = list(vectors.items())
    for a in {tuple(x % modulus for x in a) for a, _ in nonzero}:
        quarter_turns = [(d, b) for d, b in quarter_turns if _dot(a, b) % modulus == 0]
    view = f._integer_view
    if view is not None:
        direct = {d: quarter_turn_sum(view, _turns(nonzero, b, sign, size)) for d, b in quarter_turns}
    else:
        terms = [(a, f.values[d]) for a, d in nonzero]
        direct = {d: _quarter_turn_sum(terms, b, sign, size) for d, b in quarter_turns}

    z = fscale = None
    if len(direct) < len(vectors) or not all(re.is_exact and im.is_exact for re, im in direct.values()):
        z = _float_transform(f, vectors, sign, size)
        fscale = float(scale)
    scale_nv = NumericValue.from_rational(scale)
    table = {}
    for d in vectors:
        re, im = direct.get(d, _BOTH_FLOAT)
        # float(part) * float(scale) is the float path of part * scale
        table[d] = ComplexValue(
            re * scale_nv if re.is_exact else NumericValue.from_float(z[d].real * fscale),
            im * scale_nv if im.is_exact else NumericValue.from_float(z[d].imag * fscale),
        )
    return TestFunction(fp, -f.constancy_level, -f.support_level, table)


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
    in closed form, so every value is a finite sum.  Both the multiplier and
    the closed form depend on the point only through its level, so each is
    computed once per level.  Every coset is located from its digits: |xi|
    (None for the zero coset), |x| and each output's address in ``away``.
    """
    exponent = as_fraction(exponent)
    if exponent <= 0:
        raise ValueError(f"multiplier exponent must be positive, got {exponent}")
    _check_field(fp, f, "the multiplier")
    ft = fourier_transform(f)
    k_hat = ft.constancy_level
    window = (f.support_level - 1) if window_level is None else window_level

    @cache
    def multiplier(e_xi: int):
        return q_pow(fp, exponent * e_xi)

    zero_addr = tuple((0,) * (k_hat - ft.support_level) for _ in range(fp.n))
    hat_at_zero = ft.values[zero_addr]

    @cache
    def zero_coset_part(e_x: int | None):
        # radial shells of the zero coset against the character, closed form:
        # full character mass on shells at or inside |x|**-1, one negative
        # shell just outside it, nothing beyond
        j_start = k_hat if e_x is None else max(k_hat, e_x)
        s = (1 - Fraction(1, fp.q)) * geometric_tail(fp, exponent + 1, j_start)
        if e_x is not None and e_x - 1 >= k_hat:
            s = s - q_pow(fp, -exponent * (e_x - 1)) * Fraction(fp.q) ** (-e_x)
        return hat_at_zero * s

    weighted = {
        d: CV_ZERO if e_xi is None else ft.values[d] * multiplier(e_xi)
        for d, _, e_xi in _window_locations(fp, ft.support_level, k_hat, k_hat)
    }
    away = fourier_transform(TestFunction(fp, ft.support_level, k_hat, weighted), inverse=True)

    k = f.constancy_level
    outputs = zip(coset_walk(fp, window, k), _window_locations(fp, window, f.support_level, k), _window_locations(fp, window, k, k))
    return [
        (x, ((CV_ZERO if d is None else away.values[d]) + zero_coset_part(e_x)).to_complex())
        for (_, x), (_, d, _), (_, _, e_x) in outputs
    ]
