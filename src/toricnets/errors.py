"""Exception types shared across the package.

Every operation that can reject its input raises one of these; validators
that *report* instead of raising return a ValidationReport (see
``toricnets.reporting``).
"""


class ToricNetsError(Exception):
    """Base class for all package errors."""


# --- fans / polytopes ---------------------------------------------------

class NonPrimitiveRay(ToricNetsError):
    pass


class NotComplete(ToricNetsError):
    pass


class NotSmooth(ToricNetsError):
    pass


class NotStrictlyConvex(ToricNetsError):
    pass


class UnknownCone(ToricNetsError):
    pass


# --- multi-sections -----------------------------------------------------

class NotTwoFold(ToricNetsError):
    pass


class SlopeTie(ToricNetsError):
    """A slope pairing that separatedness should have made nonzero is zero."""


# --- Laurent algebra ----------------------------------------------------

class SizeMismatch(ToricNetsError):
    pass


class NotRegular(ToricNetsError):
    pass


# --- covers and local systems -------------------------------------------

class CutHitsRay(ToricNetsError):
    pass


class CutEndpointNotBarycenter(ToricNetsError):
    pass


class OverlappingCuts(ToricNetsError):
    pass


class InvalidPath(ToricNetsError):
    pass


class ZeroHolonomy(ToricNetsError):
    pass


class WrongCount(ToricNetsError):
    pass


class NoSharedLift(ToricNetsError):
    """Cover sheets and multi-section lifts cannot be matched consistently."""


# --- networks / non-abelianization ---------------------------------------

class NotSupported(ToricNetsError):
    """Outside the pairwise-disjoint-wall regime this package implements."""


class NotRealizable(ToricNetsError):
    pass


class ParityViolation(ToricNetsError):
    pass


class LoopIdentityFailed(ToricNetsError):
    pass


class InvariantViolated(ToricNetsError):
    """An internal invariant of the construction does not hold."""


# --- I/O ------------------------------------------------------------------

class ParseError(ToricNetsError):
    pass


class SchemaError(ToricNetsError):
    pass
