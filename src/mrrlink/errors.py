"""Exception types shared across the package."""


class MrrLinkError(Exception):
    """Base class for all package errors."""


class InvalidOrderError(MrrLinkError):
    """Meijer-G order (m, n, p, q) or parameter lists are inconsistent."""


class NonConvergentError(MrrLinkError):
    """A numerical contour integral or quadrature failed its tolerance."""


class DegenerateGeometryError(MrrLinkError):
    """Link geometry has no vertical extent (equal node heights)."""


class RegimeMismatchError(MrrLinkError):
    """Turbulence statistics belong to the other fading regime."""


class DegenerateDistributionError(MrrLinkError):
    """All spread parameters are zero; the fading distribution collapses."""


class NonPositiveBreakpointError(MrrLinkError):
    """Sector construction produced a breakpoint <= 0 (mean reflectance <= 0.5)."""


class InsufficientSamplesError(MrrLinkError):
    """Too few Monte-Carlo samples for a stable fit."""


class NumericalOverflowError(MrrLinkError):
    """A closed-form series term left the representable floating range."""


# What a model raises on a link it cannot evaluate (overflow, a contour that
# fails, a jitter outside the sector table); every model catch names it.
MODEL_FAILURES = (ArithmeticError, MrrLinkError, ValueError)


class ConfigError(MrrLinkError):
    """Base class for experiment-config parsing errors."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        self.reason = message
        super().__init__(message if line is None else f"line {line}: {message}")


class UnknownKeyError(ConfigError):
    pass


class UnitMismatchError(ConfigError):
    pass


class MissingRequiredError(ConfigError):
    pass
