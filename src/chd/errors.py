"""Exception types shared across the package."""


class ChdError(Exception):
    """Base class for all domain errors raised by this package."""


class PreconditionError(ChdError):
    """An operation was called on input that violates its stated contract."""


class SimplicityError(ChdError):
    """A construction would produce loops, negative weights or multi-edges."""


class ExactnessError(ChdError):
    """An exact certification path was requested for data it cannot handle
    (typically an irrational or non-integer spectrum)."""


class ScaleError(ChdError):
    """A brute-force operation was asked to run beyond its desk-scale guard."""


class InternalCheckError(ChdError):
    """An internal consistency check failed; indicates a bug, not bad input."""
