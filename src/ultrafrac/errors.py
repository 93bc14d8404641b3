"""Exception and warning types shared across the package."""


class UltrafracError(Exception):
    """Base class for all package-specific errors."""


class InvalidPointError(UltrafracError):
    """A coordinate is not a rational with a p-power denominator, or arity is wrong."""


class CosetResolutionError(UltrafracError):
    """Requested coset resolution is coarser than the ambient ball."""


class WorkSizeError(UltrafracError):
    """A coset walk would enumerate more cosets than the fixed work limit."""


class ExactnessLost(UltrafracError):
    """An exact-ring operation left the ring Q + Q*ln(q) + Q/ln(q)."""


class FloatZeroDivisionError(UltrafracError, ZeroDivisionError):
    """A float division met a divisor of 0.0, such as 1 - q**alpha rounded to zero at a tiny order."""


class DivergentSeriesError(UltrafracError):
    """A geometric tail was requested with a non-contracting ratio."""


class DivergentIntegralError(UltrafracError):
    """Structural check found the requested integral divergent."""


class UnsupportedIntegrandError(UltrafracError):
    """Integrand shape outside the radial-times-locally-constant closed forms."""


class RegionMismatchError(UltrafracError):
    """Shift magnitude does not match the sphere radius, or similar region error."""


class HypothesisViolationError(UltrafracError):
    """Input fails a structural hypothesis gate (decay bound, zero-mean requirement)."""


class FunctionFileError(UltrafracError):
    """Function file violates the on-disk schema."""


class HypothesisBoundaryWarning(UserWarning):
    """Computation requested outside the proven parameter range; result still computed."""
