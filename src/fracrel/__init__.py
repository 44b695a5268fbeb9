"""fracrel: numerics for the fractional relativistic operator (-lap + m^2)^s.

Subpackages cover the three equivalent realizations of the operator, its
heat flow, weighted-inequality machinery for the evolution, symbol-level
computations for quadratic exponential weights, and a CLI that runs the
verification suites.
"""

from .errors import (
    AdmissibilityError,
    CalibrationError,
    ConditioningError,
    ConfigError,
    DomainError,
    FracrelError,
    OverflowGuardError,
    PreconditionError,
    QuadratureError,
    SeamLeakError,
    SupportError,
)
from .report import CheckReport
from .special import (
    frac_power_constant,
    macdonald_k,
)

__version__ = "0.1.0"
