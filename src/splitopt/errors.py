"""Exception types shared across the library."""


class SplitOptError(Exception):
    """Base class for all splitopt errors."""


class DimensionMismatch(SplitOptError):
    """Array shapes do not agree with the operation's contract."""


class RankDeficient(SplitOptError):
    """A matrix that must have full (row or column) rank does not."""


class NotSymmetric(SplitOptError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class NotOrthonormal(SplitOptError):
    """Columns required to be orthonormal are not, beyond tolerance."""


class StepBudgetExceeded(SplitOptError):
    """The ODE integrator hit its step budget before reaching t_end."""


class NonFiniteState(SplitOptError):
    """The ODE right-hand side produced NaN or Inf at an accepted state."""


class ZeroRow(SplitOptError):
    """A data row required to be nonzero has (numerically) zero norm."""


class BadMagic(SplitOptError):
    """An IDX file does not start with the expected magic number."""


class TruncatedFile(SplitOptError):
    """An IDX file ended before the declared payload was read."""


class LabelOutOfRange(SplitOptError):
    """An IDX label byte falls outside the supported class range."""


class ParseError(SplitOptError):
    """A text data file could not be parsed; the message carries the line."""


class MissingReference(SplitOptError):
    """A stopping rule needs reference data (a known solution or holdout)."""


class EmptyTrace(SplitOptError):
    """A trace file or plot request contains no usable records."""
