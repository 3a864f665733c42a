"""Exception types raised across the package."""


class RisbalError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(RisbalError, ValueError):
    """Operands have incompatible shapes."""


class RetractionSingularError(RisbalError, ArithmeticError):
    """Retraction input has a zero entry; the step is degenerate."""


class NumericalError(RisbalError, ArithmeticError):
    """A numerical routine produced non-finite values or failed to converge."""


class GeometryError(RisbalError, ValueError):
    """Invalid geometric configuration (e.g. coincident points)."""


class ConfigError(RisbalError, ValueError):
    """Invalid or unreadable scenario configuration."""


class NormalizationError(NumericalError):
    """A gain matrix whose norm is zero or overflows cannot be normalized."""


class HermitianViolationError(NumericalError):
    """A balance matrix is not Hermitian up to roundoff."""
