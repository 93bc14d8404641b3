"""Exact fractional differentiation and Riesz potentials on p-adic coordinate fields."""

from .errors import (
    CosetResolutionError,
    DivergentIntegralError,
    DivergentSeriesError,
    ExactnessLost,
    FloatZeroDivisionError,
    FunctionFileError,
    HypothesisBoundaryWarning,
    HypothesisViolationError,
    InvalidPointError,
    RegionMismatchError,
    UltrafracError,
    UnsupportedIntegrandError,
)
from .field import (
    BallSpec,
    FieldParams,
    Point,
    SphereSpec,
    abs_exponent,
    abs_value,
    enumerate_cosets,
    haar_measure,
    point,
    zero_point,
)
from .fourier import character_eval, fourier_transform, multiplier_vladimirov
from .funcfile import read_function, write_function
from .functions import (
    ExtendedFunction,
    LogTail,
    PowerTail,
    TestFunction,
    ZeroTail,
    indicator_ball,
    indicator_coset,
    lizorkin_project,
    lp_distance,
    lp_norm,
    modulus_of_continuity,
)
from .integrate import (
    LogProfile,
    PowerProfile,
    Region,
    ShiftedProfile,
    brute_force_oracle,
    integrate_product,
    log_over_ball,
    power_over_ball,
    shifted_log_over_sphere,
    shifted_power_over_sphere,
)
from .multidim import (
    DimensionBridge,
    kernel_r_multidim,
    max_norm,
    taibleson_direct,
    taibleson_via_extension,
)
from .numerics import (
    ComplexValue,
    ExactScalar,
    NumericValue,
    geometric_tail,
    q_pow,
    weighted_geometric_tail,
)
from .operators import (
    OperatorConstants,
    OperatorParams,
    averaging_apply,
    constants,
    inversion_residual,
    kernel_normalization,
    kernel_r,
    kernel_r1,
    kernel_r_oracle,
    minkowski_bound,
    riesz_potential,
    truncated_vladimirov,
    vladimirov_hypersingular,
)

__version__ = "0.1.0"
