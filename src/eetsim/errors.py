"""Exception types shared across the package."""


class EetsimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EetsimError):
    """Invalid model data, state, or configuration."""


class DimensionMismatch(ValidationError):
    """Array dimensions are inconsistent."""


class AsymmetricCoupling(ValidationError):
    """Coupling matrix violates the symmetric, zero-diagonal structure."""


class NegativeRate(ValidationError):
    """A dephasing rate is negative."""


class NonPositiveFrequency(ValidationError):
    """A transition energy is non-positive where absolute frequency matters."""


class InvalidInitialState(ValidationError):
    """Initial state incompatible with the model or not a valid state."""


class ZeroState(ValidationError):
    """Amplitude vector has zero norm."""


class NotPositive(ValidationError):
    """Matrix has an eigenvalue below the positivity tolerance."""


class IndexOutOfRange(ValidationError):
    """Site index outside the aggregate."""


class StepTooLarge(EetsimError):
    """Ensemble substep too coarse for the model's splitting rate."""


class NormCollapse(EetsimError):
    """Trace of the classical density matrix dropped below tolerance."""


class GridMismatch(EetsimError):
    """Time grids of the operands differ."""


class ChannelMismatch(EetsimError):
    """Channel sets of the operands differ."""


class ParseError(EetsimError):
    """Model or series file could not be parsed."""
