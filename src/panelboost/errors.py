"""Exception types shared across the package.

Every library-raised error derives from PanelBoostError so callers (and the
CLI) can tell domain failures apart from programming errors.
"""


class PanelBoostError(Exception):
    """Base class for all library errors."""


class InvalidParameter(PanelBoostError, ValueError):
    """A parameter value lies outside its valid range, or does not parse.

    It is also a ValueError, so callers that catch ValueError keep working.
    """


class EmptyFamily(PanelBoostError):
    """An operation needed at least one member series."""


class DegenerateSplit(PanelBoostError):
    """A train/validation/test segment would hold fewer than 2 samples."""


class RangeError(PanelBoostError):
    """An index range is empty or falls outside the series."""


class ShapeError(PanelBoostError):
    """Sequence lengths (or shapes) do not match."""


class EmptyInput(PanelBoostError):
    """An operation received an empty sequence."""


class DegenerateCorrelation(PanelBoostError):
    """Correlation is undefined because one side has zero variance.

    ``side`` names the offending argument: "left" or "right".
    """

    def __init__(self, side: str, message: str | None = None):
        self.side = side
        super().__init__(message or f"zero variance in {side} argument")


class DomainError(PanelBoostError):
    """A transform argument lies outside [-1, 1] beyond tolerance."""


class ZeroCandidate(PanelBoostError):
    """A candidate series is identically zero."""


class DegenerateResidual(PanelBoostError):
    """The residual has zero variance; there is nothing left to fit."""


class NoAdmissibleMember(PanelBoostError):
    """Fitting ended with zero accepted terms."""


class MissingPanelMember(PanelBoostError):
    """A family lacks a member that a fitted model references."""

    def __init__(self, member_id: str):
        self.member_id = member_id
        super().__init__(f"panel member {member_id!r} not present in family")


class SweepFailed(PanelBoostError):
    """Every configuration in a sweep failed to fit."""


class IrregularGrid(PanelBoostError):
    """The time column is not uniformly spaced (or no grid can be inferred)."""


class DuplicateId(PanelBoostError):
    """Two CSV columns share the same header."""


class MissingValue(PanelBoostError):
    """A CSV cell is blank, or a `nan`/`inf` word. Carries row and column context."""

    def __init__(self, row: int, column: str, message: str | None = None):
        self.row = row
        self.column = column
        super().__init__(message or f"missing value at row {row}, column {column!r}")


class ReservedId(PanelBoostError):
    """A reserved identifier (dunder form, "__target__" too) names a member, read or written."""


class UnsupportedVersion(PanelBoostError):
    """A model file declares an unknown version or unknown fields."""


class ParseError(PanelBoostError):
    """A file could not be parsed; the message carries line/field context."""


class NumericOverflow(PanelBoostError):
    """A sum over the values overflows the float range."""
