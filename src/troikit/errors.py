"""Exception types shared across the package."""


class TroikitError(Exception):
    """Base class for all errors raised by troikit."""


class DimensionError(TroikitError):
    """Operands have incompatible shapes."""


class ContractError(TroikitError):
    """An API precondition was violated (bad label, stale gradients, ...)."""


class NumericError(ContractError):
    """A computed value that must be finite is NaN or infinite."""


class InvalidBoxError(TroikitError):
    """An ROI box is degenerate or out of range."""


class ConfigError(TroikitError):
    """A configuration value is invalid or inconsistent."""


class DataError(TroikitError):
    """A file is missing, truncated, or does not match its header."""
