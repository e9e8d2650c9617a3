"""Exception types shared across the package."""


class CertHeatError(Exception):
    """Base class for all package-specific failures."""


class PreconditionError(CertHeatError):
    """An operation was called outside its stated domain, or on data that
    lacks the structure it reads (declared modes, exact pieces, a uniform
    grid or polynomial coefficients)."""


class InsufficientPrecision(CertHeatError):
    """A certified value is too loose to determine the requested discrete
    answer (e.g. an integer count)."""


class ConfigError(CertHeatError):
    """Malformed or contradictory run configuration."""
