"""Exception types raised across the package."""


class RisbalError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(RisbalError, ValueError):
    """Operands have incompatible shapes."""


class NumericalError(RisbalError, ArithmeticError):
    """A numerical routine produced non-finite values or failed to converge."""


class GeometryError(RisbalError, ValueError):
    """Invalid geometric configuration (e.g. coincident points)."""


class ConfigError(RisbalError, ValueError):
    """Invalid or unreadable scenario configuration."""


class NormalizationError(NumericalError):
    """A gain matrix whose norm is zero or overflows cannot be normalized."""
