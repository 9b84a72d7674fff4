"""Separated real sequences and their continuous counting functions.

A separated sequence is a finite, strictly increasing list of finite reals
together with the window of the real line the data is meant to represent;
its minimal gap ``delta`` is computed from the points and must be at least
the smallest normal double (``_separation`` holds these rules).  All
density machinery in this package works on the continuous counting
function n(x): the piecewise linear function with a breakpoint at every
sequence point that grows by exactly 1 between consecutive points and is
normalized to n(0) = 0.  When 0 lies outside the data window the anchor
value at 0 is obtained by extrapolating the first or last segment slope.

``load_sequence`` is the one checked way raw points become a sequence:
it sorts them and holds them to the rules.  ``SeparatedSequence`` itself
is a plain dataclass that checks nothing; ``within`` cuts one from a
checked one.  The built-in generators (``lattice:<step>``, ``squares``,
``logperturbed``) are named by the grammar of ``cli.parse_generator``,
which builds their points and passes them to ``load_sequence``.

Sequence files hold one decimal real per line, as Python's ``float``
reads it once the line is stripped of white space (so ``1_0`` and
non-ASCII digits parse, ``3 # c`` and ``1 2`` do not).  Lines end at
``\\n``, ``\\r`` or ``\\r\\n``, as a text file iterates them.  Blank lines and
lines whose first non-space character is ``#`` are ignored; point order
is arbitrary.  A value that does not parse or is not finite, and a byte
that is not UTF-8, is refused with BadDataFile naming ``path:line``.  A
file of more than POINTS_CAP (2^23) lines or 64*POINTS_CAP bytes raises
SizeGuard before anything is parsed; the command line exits 1 on it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgument,
    BadDataFile,
    DuplicatePoint,
    EmptyRange,
    NotSeparated,
    OutOfWindow,
    SinglePoint,
    SizeGuard,
)

POINTS_CAP = 1 << 23  # points a generator may materialize, lines a data file may hold
FILE_CHUNK = 1 << 16  # bytes (characters, when parsing) read from a data file at a time


def check_points(count: float) -> None:
    """SizeGuard when ``count`` (a NaN too) is beyond POINTS_CAP."""
    if not count <= POINTS_CAP:
        raise SizeGuard(f"{count:.3g} generator points beyond the cap {POINTS_CAP}")


def check_file_size(path) -> None:
    """SizeGuard for a data file of more than POINTS_CAP lines or 64*POINTS_CAP bytes.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``, as a text file iterates them.
    They are counted over fixed-size binary chunks, so nothing is parsed
    and at most FILE_CHUNK bytes are held; the count stops at the cap.
    """
    max_bytes = 64 * POINTS_CAP
    lines = size = 0
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(FILE_CHUNK):
            size += len(chunk)
            cr = chunk.count(b"\r")
            lines += chunk.count(b"\n") + cr - (cr and chunk.count(b"\r\n"))
            lines -= tail == b"\r" and chunk.startswith(b"\n")  # a CR LF pair split across chunks
            tail = chunk[-1:]
            if size > max_bytes:
                raise SizeGuard(f"{path}: more than {max_bytes} bytes, the cap for a data file")
            if lines > POINTS_CAP:
                break
    lines += tail not in (b"", b"\n", b"\r")  # a last line without its end
    if lines > POINTS_CAP:
        raise SizeGuard(f"{path}: more than {POINTS_CAP} lines, the cap for a data file")


def check_utf8_line(path, lineno: int, line: str) -> None:
    """BadDataFile naming ``path:line`` when a line decoded with
    ``errors="surrogateescape"`` holds a lone surrogate: a byte that is not UTF-8."""
    if not line.isascii():
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise BadDataFile(f"{path}:{lineno}: not UTF-8 text") from None


def write_csv(path, *blocks) -> None:
    """CSV blocks ``(title, table)`` a blank line apart; a title adds a ``# title`` line.

    ``table`` is a ``_json.Table``: its header is the column names in their
    declared order, and a cell is ``str`` of the column's Python value,
    which for a float is its ``repr`` (the shortest text that reads back to
    the same double).  A block is formatted a column at a time and written
    line by line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for k, (title, table) in enumerate(blocks):
            fh.write(("\n" if k else "") + (f"# {title}\n" if title else "") + ",".join(table.columns) + "\n")
            cells = [map(str, col.tolist()) for col in table.columns.values()]
            fh.writelines(line + "\n" for line in map(",".join, zip(*cells)))


def _checked_window(points: np.ndarray, window) -> tuple[float, float]:
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise BadArgument("window must satisfy lo < hi")
    if points[0] < lo or points[-1] > hi:
        raise OutOfWindow("window does not contain all points")
    return lo, hi


def _separation(points: np.ndarray) -> float:
    """The minimal gap of sorted points that hold the sequence rules; inf for one point.

    The rules: a 1d array of at least one point, all finite, no duplicate,
    and no gap below the smallest normal double, whose reciprocal (a slope
    of the counting function) would overflow.  ``load_sequence`` sorts
    before it calls this.
    """
    if points.ndim != 1:
        raise BadArgument(f"points must be a 1d array, got shape {points.shape}")
    if points.size == 0:
        raise EmptyRange("a sequence needs at least one point")
    if not np.isfinite(points).all():
        raise BadArgument("points must be finite")
    gaps = np.diff(points)
    if np.any(gaps == 0.0):
        raise DuplicatePoint("duplicate point in input")
    delta = math.inf if gaps.size == 0 else float(gaps.min())
    if delta < sys.float_info.min:
        raise NotSeparated(f"minimum gap {delta:g} below the smallest normal double")
    return delta


@dataclass
class SeparatedSequence:
    """Strictly increasing points on a data window; ``delta`` is their exact
    minimal gap.  The constructor checks nothing: ``load_sequence`` builds
    one from raw points."""

    points: np.ndarray
    window: tuple[float, float]
    delta: float

    def __len__(self):
        return int(self.points.size)

    @functools.cached_property
    def counting(self) -> "PiecewiseLinear":
        """The continuous counting function, computed once.

        It is normalized to 0 at 0, has a breakpoint at every point and
        grows by exactly 1 between consecutive points.  Outside the points
        it continues with the slope of the first (resp. last) segment,
        which is also how the anchor value at 0 is produced when 0 lies
        outside the point range.
        """
        pts = self.points
        if pts.size < 2:
            raise SinglePoint("counting function needs at least two points")
        raw = np.arange(pts.size, dtype=float)
        left_slope = 1.0 / (pts[1] - pts[0])
        right_slope = 1.0 / (pts[-1] - pts[-2])
        anchor = PiecewiseLinear(pts, raw, left_slope, right_slope)(0.0)
        return PiecewiseLinear(pts, raw - anchor, left_slope, right_slope)

    def within(self, radius: float) -> "SeparatedSequence":
        """The points with |x| <= radius on the data window (-radius, radius).

        They are one contiguous slice of the sorted points, so they are
        neither sorted nor checked again; only their minimal gap is taken.
        Raises EmptyRange when no point lies that close to 0.
        """
        i = np.searchsorted(self.points, -radius, side="left")
        j = np.searchsorted(self.points, radius, side="right")
        if i == j:
            raise EmptyRange(f"no points within radius {radius:g}")
        points = self.points[i:j]
        delta = math.inf if points.size < 2 else float(np.diff(points).min())
        return SeparatedSequence(points, (-radius, radius), delta)


def load_sequence(points, window=None) -> SeparatedSequence:
    """Sort raw points and wrap them in a SeparatedSequence.

    Parameters
    ----------
    points : array_like
        Real numbers in arbitrary order; the sorted points must hold the
        sequence rules of ``SeparatedSequence``.
    window : (float, float), optional
        Data window; defaults to [min(points), max(points)].
    """
    pts = np.array(points, dtype=float)
    if pts.ndim == 1 and not np.all(pts[:-1] < pts[1:]):  # strictly increasing input is already sorted
        pts = np.sort(pts)
    delta = _separation(pts)
    if window is None:
        if pts.size == 1:
            # a degenerate window carries no information; pad by a unit ball,
            # widened where a unit is below the point's resolution
            pad = max(1.0, abs(float(pts[0])) * 2.0**-52)
            window = (float(pts[0]) - pad, float(pts[0]) + pad)
        else:
            window = (float(pts[0]), float(pts[-1]))
    return SeparatedSequence(pts, _checked_window(pts, window), delta)


def read_sequence_file(path) -> SeparatedSequence:
    """Load a sequence from a text file, one decimal real per line.

    The file's size is checked first (``check_file_size``).  Lines are
    then read in blocks of about FILE_CHUNK characters, and a block of
    data lines only is converted in one pass of ``float``.  Any other
    block (a blank or ``#`` line, a value that does not parse or is not
    finite, a byte that is not UTF-8) goes through the line loop, the one
    place that reports errors, so faults are reported in file order.
    """
    check_file_size(path)
    values = _read_blocks(path)
    if values.size == 0:
        raise BadDataFile(f"{path}: no data lines")
    return load_sequence(values)


def _read_blocks(path) -> np.ndarray:
    """The file's values, block by block.

    ``readlines`` splits where file iteration splits: at ``\\n``, ``\\r`` and
    ``\\r\\n``, not at ``\\x0c`` or ``\\u2028`` as ``str.splitlines`` would.
    ``float`` skips the white space ``strip`` removes around a number, or
    refuses the line, so a value read in one pass is the one the loop reads.
    A byte that is not UTF-8 decodes to a lone surrogate, which ``float``
    refuses, so its block goes through the loop too.
    """
    blocks, first = [], 1
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while lines := fh.readlines(FILE_CHUNK):
            try:
                block = np.fromiter(map(float, lines), dtype=float, count=len(lines))
            except ValueError:
                block = None
            if block is None or not np.isfinite(block).all():
                block = np.array(_parse_lines(path, lines, first), dtype=float)
            blocks.append(block)
            first += len(lines)
    return np.concatenate(blocks) if blocks else np.empty(0)


def _parse_lines(path, lines, first: int) -> list[float]:
    """The values of the data lines; ``first`` numbers the first line."""
    values = []
    for lineno, raw in enumerate(lines, first):
        check_utf8_line(path, lineno, raw)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise BadDataFile(f"{path}:{lineno}: not a finite decimal real: {line!r}")
        values.append(value)
    return values


@dataclass
class PiecewiseLinear:
    """Continuous piecewise linear function with explicit edge slopes.

    Breakpoints ``x`` are strictly increasing; outside [x[0], x[-1]] the
    function continues with ``left_slope`` and ``right_slope``.  ``x`` and
    ``y`` are equal-length 1d float arrays; the callers build them so from
    a validated sequence, and the constructor checks nothing.
    """

    x: np.ndarray
    y: np.ndarray
    left_slope: float
    right_slope: float

    @functools.cached_property
    def rises(self) -> np.ndarray:
        """The rising-pair mask y[:-1] < y[1:], one bool per segment between
        nodes.  Computed once, on the ordinates as stored."""
        return self.y[:-1] < self.y[1:]

    @functools.cached_property
    def trend(self) -> int:
        """1 when the node ordinates increase strictly, -1 when they never
        increase, 0 otherwise; derived from ``rises``."""
        if self.rises.all():
            return 1
        return 0 if self.rises.any() else -1

    def suffix_max(self, i: int, j: int, end: float, out: np.ndarray) -> None:
        """Write m[k] = max(y[i+k:j], end) for k = 0 .. j-i into ``out``: at
        each node of the slice, the maximum of the nodes from there up to j,
        and ``end``.  One reverse accumulate over a copy of the slice with
        ``end`` after it; where values tie it keeps the leftmost.
        """
        out[-1] = end
        out[:-1] = self.y[i:j]
        np.maximum.accumulate(out[::-1], out=out[::-1])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        out = np.interp(t_arr, self.x, self.y)
        left = t_arr < self.x[0]
        right = t_arr > self.x[-1]
        if np.any(left):
            out = np.where(left, self.y[0] + self.left_slope * (t_arr - self.x[0]), out)
        if np.any(right):
            out = np.where(right, self.y[-1] + self.right_slope * (t_arr - self.x[-1]), out)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out)
        return out

    def window_ends(self, window):
        """(lo, hi, ends, i, j): the window, the function values at its two
        ends, and the slice x[i:j] of the breakpoints strictly inside.

        The window needs lo < hi and finite function values at both ends.
        The ends equal ``self([lo, hi])`` bit for bit: ``np.interp`` inside
        the nodes, and outside them the edge slope's line in Python floats,
        whose overflow gives inf or nan as numpy's does, without a warning.
        """
        lo, hi = float(window[0]), float(window[1])
        x0, x1 = float(self.x[0]), float(self.x[-1])
        ends = np.interp((lo, hi), self.x, self.y)
        for k, t in enumerate((lo, hi)):
            if t < x0:
                ends[k] = float(self.y[0]) + float(self.left_slope) * (t - x0)
            elif t > x1:
                ends[k] = float(self.y[-1]) + float(self.right_slope) * (t - x1)
        if not (lo < hi and math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise BadArgument(f"window must satisfy lo < hi with finite values at both ends, got {lo!r}, {hi!r}")
        i = np.searchsorted(self.x, lo, side="right")
        j = np.searchsorted(self.x, hi, side="left")
        return lo, hi, ends, i, j

    def grid_on(self, window):
        """Breakpoints clipped to a window, with the window ends appended.

        Returns (xs, ys) where xs[0] and xs[-1] are exactly the window ends
        and the interior nodes are the breakpoints strictly inside, one
        contiguous slice of the sorted breakpoints (see ``window_ends``).
        No engine calls it: ``bm_family`` reads the same nodes as views.
        It stays as the grid of the tests' plain sweep, the oracle of
        ``bm_family``, and as a layer a tracer can time.
        """
        lo, hi, ends, i, j = self.window_ends(window)
        xs = np.concatenate(([lo], self.x[i:j], [hi]))
        ys = np.concatenate((ends[:1], self.y[i:j], ends[1:]))
        return xs, ys


def as_bounds(interval) -> tuple[float, float]:
    """(left, right) as floats of a pair."""
    return float(interval[0]), float(interval[1])


def count_in(seq: SeparatedSequence, interval) -> int:
    """Exact number of sequence points in a closed interval.

    ``interval`` is a pair (left, right).  Raises BadArgument
    unless left <= right (a NaN end too), and OutOfWindow when the query
    interval leaves the data window.
    """
    left, right = as_bounds(interval)
    if not left <= right:
        raise BadArgument(f"interval must satisfy left <= right, got [{left!r}, {right!r}]")
    lo, hi = seq.window
    if left < lo or right > hi:
        raise OutOfWindow(f"query [{left:g}, {right:g}] exceeds window [{lo:g}, {hi:g}]")
    i = np.searchsorted(seq.points, left, side="left")
    j = np.searchsorted(seq.points, right, side="right")
    return int(j - i)


def gamma_line(seq: SeparatedSequence, a: float) -> PiecewiseLinear:
    """The test function a*x - n(x) as an exact piecewise linear object.

    Breakpoint ordinates are formed directly from the point array so no
    resampling error enters; the a*x term is absorbed into the slopes.
    The slope must keep a*x finite on the sequence.  The counting function
    is the sequence's cached one.
    """
    counting = seq.counting
    reach = max(-float(counting.x[0]), float(counting.x[-1]), 0.0)
    if not abs(a) * reach < math.inf:
        raise BadArgument(f"the slope a must keep a*x finite on the sequence, got {a!r}")
    y = a * counting.x
    y -= counting.y
    return PiecewiseLinear(counting.x, y, a - counting.left_slope, a - counting.right_slope)
