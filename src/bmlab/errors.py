"""Exception types shared across the package.

Every error raised on bad input derives from BmLabError so callers (and the
``bm-lab`` command) can distinguish data problems from genuine bugs.  An
argument outside the domain a function accepts raises BadArgument, also a
ValueError, which the command line maps to exit code 64.  Data that
cannot make a sequence or a family raises a DataError, which it maps to
65; every other BmLabError maps to 1.  So a new error type is classified
where it is declared, by the class it derives from.  No data class
checks invariants: outside data is checked where it enters
(``load_sequence``, ``family_from_csv``, the command line), and the
engines and the generators of ``parse_generator`` build their values
valid by construction.
"""


class BmLabError(Exception):
    """Base class for all input and state errors raised by this package."""


class DataError(BmLabError):
    """Data that cannot make a sequence or an interval family."""


class DuplicatePoint(DataError):
    """Two sequence points coincide after sorting."""


class NotSeparated(DataError):
    """Two sequence points are closer than the smallest normal double."""


class GapOverflow(DataError):
    """Two neighbouring points lie farther apart than the largest double."""


class EmptyRange(DataError):
    """A sequence would have no point: an empty point array, no point
    within a requested radius, or no zero of the model function in a
    window."""


class SinglePoint(BmLabError):
    """An operation needs at least two points to define a slope."""


class OutOfWindow(BmLabError):
    """A query interval leaves the data window of a sequence."""


class WindowTooSmall(BmLabError):
    """The data window cannot support the requested density decision."""


class BadArgument(BmLabError, ValueError):
    """An argument outside the domain the function accepts."""


class SpanTooWide(BmLabError):
    """The slopes a density search tries, up to 2/delta, overflow a*x on the sequence."""


class SizeGuard(BmLabError):
    """An input was refused before allocation because it exceeds a size cap."""


class NumericalBreakdown(BmLabError):
    """A dense eigensolver failed to converge."""


class BadDataFile(DataError):
    """An input data file exists but cannot be parsed."""
