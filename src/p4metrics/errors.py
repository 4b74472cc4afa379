"""Exception hierarchy shared by all modules.

Every error the library raises on bad input derives from P4MetricsError so
callers (notably the CLI) can catch one type at the boundary.
"""


class P4MetricsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyMatrixError(P4MetricsError):
    """All four confusion-matrix counts are zero."""


class NegativeCountError(P4MetricsError):
    """A confusion-matrix count is negative."""


class EmptyInputError(P4MetricsError):
    """An operation that needs at least one sample received none."""


class RangeMismatchError(P4MetricsError):
    """A metric value was used with an incompatible declared range."""


class DegeneratePopulationError(P4MetricsError):
    """A simulated population has no actual positives or no actual negatives."""


class BadGridError(P4MetricsError):
    """A sweep grid specification is invalid."""


class NoDefinedPointsError(P4MetricsError):
    """Every candidate curve point has an undefined coordinate."""


class SampleParseError(P4MetricsError):
    """A scored-sample CSV file failed strict parsing."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line

