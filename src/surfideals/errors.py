"""Domain errors raised by the library.

The CLI serializes these by class name, so the names are part of the
output contract.
"""


class DomainError(Exception):
    """Base class for all expected mathematical/input failures."""


class NotNegativeDefinite(DomainError):
    pass


class InvalidModel(DomainError):
    pass


class BadParameters(DomainError):
    pass


class NotIntegral(DomainError):
    pass


class NonEffectiveGamma(DomainError):
    pass


class DisconnectedDualGraph(InvalidModel):
    """A dual graph in two pieces: no resolution of one normal point."""


class ModelFileError(DomainError):
    pass


class EnumerationLimitExceeded(DomainError):
    """A section scan passed `toric.ENUMERATION_LIMIT` on a valid model."""
