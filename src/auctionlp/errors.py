"""Exception taxonomy.

Every error raised by the package derives from AuctionLPError so callers
can catch one base.  The CLI maps these onto exit codes: an InvalidInput
exits 2, a ScaleLimit 4, and any other AuctionLPError 3.
"""


class AuctionLPError(Exception):
    pass


class InvalidInput(AuctionLPError):
    """Bad data: an instance, certificate document, generator spec or
    flag that the package refuses."""


def cut(text: str) -> str:
    """text for an error message, cut to 40 characters plus '...'."""
    return text if len(text) <= 40 else text[:40] + "..."


def echo(value) -> str:
    """repr(value) for an error message, cut as cut does."""
    return cut(repr(value))


class NonUnitMass(InvalidInput):
    """A buyer's probability masses do not sum to exactly 1."""


class NegativeValue(InvalidInput):
    """A value coordinate or probability mass is negative."""


class DuplicateSupportVector(InvalidInput):
    """Two identical value vectors inside one buyer's support."""


class ZeroMassNonzeroType(InvalidInput):
    """Strict validation: a nonzero value vector carries zero mass."""


class MissingZeroType(InvalidInput):
    """A buyer's support lacks the all-zeros vector and augmentation is off."""


class NotRational(InvalidInput, TypeError, ValueError):
    """Input text or data that is not an exact rational: a float, a
    bool, a malformed literal, or a zero denominator.  It is also a
    TypeError and a ValueError, so callers that catch the built-in
    parse errors still catch it."""


class DimensionMismatch(InvalidInput):
    """Array shapes inconsistent with the declared buyer/item counts."""


class LabelMismatch(InvalidInput):
    """A certificate document is malformed or does not match the
    instance (kind, version, digest, form, labels or entries), or an LP
    certificate was not produced by the builder and layout it is read
    against."""


class CertificateError(InvalidInput):
    """An exact verification of a certificate failed.  It is how a stored
    certificate that is not optimal (a tampered document, say) is
    refused, as invalid input; the solver turns it into another ending:
    a rejected rounding in the float pass, NotOptimal in the exact one."""


class NotOptimal(AuctionLPError):
    """A dual solution claimed optimal fails the strong-duality check, or
    a program the package built has no optimum (the exact simplex ends
    infeasible, unbounded, or on a vertex that fails the exact check),
    which means it was built wrong."""


class NotRegular(AuctionLPError):
    """A dual solution fails one of the regularity conditions."""


class NotAgentIndependent(AuctionLPError):
    """Dual multipliers are inconsistent across opponent-value slices."""


class ScaleLimit(AuctionLPError):
    """Requested computation exceeds the configured desk-scale caps."""


class InfeasibleInput(InvalidInput):
    """A mechanism or dual solution violates a feasibility constraint."""
