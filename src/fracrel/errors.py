"""Exception hierarchy shared across the package.

Every failure mode a caller is expected to handle gets its own class so that
tests and the CLI can distinguish "input rejected" (DomainError and friends,
exit code 2 territory) from "computation did not meet its contract"
(QuadratureError etc., which surface as failed checks).
"""


class FracrelError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FracrelError, ValueError):
    """An argument lies outside the mathematical domain of the function."""


class ConfigError(FracrelError, ValueError):
    """A configuration object violates its own invariants."""


class QuadratureError(FracrelError, RuntimeError):
    """A quadrature failed to converge within its node budget."""


class PreconditionError(FracrelError, ValueError):
    """A documented precondition of an operation does not hold."""


class AdmissibilityError(PreconditionError):
    """A weight/rate parameter fails its admissibility constraint."""


class SeamLeakError(FracrelError, RuntimeError):
    """Data has not decayed at the periodic seam where a weighted
    integral requires it; the result would be meaningless."""


class SupportError(FracrelError, ValueError):
    """An operand is supported outside the region an operation allows."""


class OverflowGuardError(FracrelError, OverflowError):
    """A weight exponent exceeds the representable cap."""


class ConditioningError(FracrelError, RuntimeError):
    """A similarity transform is too ill-conditioned to trust."""


class CalibrationError(FracrelError, RuntimeError):
    """Calibration could not find constants that make the corpus pass."""
