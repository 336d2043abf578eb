"""Shared exception types."""


class KpackingError(Exception):
    """Base class for all library-specific errors."""


class ParseError(KpackingError):
    """Malformed graph or matrix text, or a malformed certificate payload."""


class CapExceededError(KpackingError):
    """Input exceeds a desk-scale dimension cap."""


class FamilyParameterError(KpackingError, ValueError):
    """Invalid parameters for a generated graph or matrix family."""


class ZeroColumnError(KpackingError, ValueError):
    """A matrix column is all zeros, so its column intersection graph is undefined."""


class ConsistencyError(KpackingError):
    """Two independently computed verdict paths disagree; indicates a bug."""
