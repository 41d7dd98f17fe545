"""Exception taxonomy.

Every error raised by the package derives from AuctionLPError so callers
can catch one base.  The CLI maps these onto exit codes.
"""


class AuctionLPError(Exception):
    pass


def cut(text: str) -> str:
    """text for an error message, cut to 40 characters plus '...'."""
    return text if len(text) <= 40 else text[:40] + "..."


def echo(value) -> str:
    """repr(value) for an error message, cut as cut does."""
    return cut(repr(value))


class NonUnitMass(AuctionLPError):
    """A buyer's probability masses do not sum to exactly 1."""


class NegativeValue(AuctionLPError):
    """A value coordinate or probability mass is negative."""


class DuplicateSupportVector(AuctionLPError):
    """Two identical value vectors inside one buyer's support."""


class ZeroMassNonzeroType(AuctionLPError):
    """Strict validation: a nonzero value vector carries zero mass."""


class MissingZeroType(AuctionLPError):
    """A buyer's support lacks the all-zeros vector and augmentation is off."""


class NotRational(AuctionLPError, TypeError, ValueError):
    """Input text or data that is not an exact rational: a float, a
    bool, a malformed literal, or a zero denominator.  It is also a
    TypeError and a ValueError, so callers that catch the built-in
    parse errors still catch it."""


class DimensionMismatch(AuctionLPError):
    """Array shapes inconsistent with the declared buyer/item counts."""


class LabelMismatch(AuctionLPError):
    """A certificate document is malformed or does not match the
    instance (kind, version, digest, form, labels or entries), or an LP
    certificate was not produced by the builder and layout it is read
    against."""


class NotOptimal(AuctionLPError):
    """A dual solution claimed optimal fails the strong-duality check."""


class NotRegular(AuctionLPError):
    """A dual solution fails one of the regularity conditions."""


class NotAgentIndependent(AuctionLPError):
    """Dual multipliers are inconsistent across opponent-value slices."""


class ScaleLimit(AuctionLPError):
    """Requested computation exceeds the configured desk-scale caps."""


class InfeasibleInput(AuctionLPError):
    """A mechanism or dual solution violates a feasibility constraint."""
