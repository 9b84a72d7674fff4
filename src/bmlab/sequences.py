"""Separated real sequences and their continuous counting functions.

A separated sequence is a finite, strictly increasing list of finite reals
together with the window of the real line the data is meant to represent;
its minimal gap ``delta`` is computed from the points and must be at least
the smallest normal double, and no gap may exceed the largest double
(``_minimal_gap`` holds these rules, and keeps the least and the greatest
gap of each block of BLOCK neighbouring pairs).  All density machinery
in this package works on the continuous counting function n(x): the
piecewise linear function with a breakpoint at every sequence point that
grows by exactly 1 between consecutive points and is normalized to
n(0) = 0.  When 0 lies outside the data window the anchor value at 0 is
obtained by extrapolating the first or last segment slope.

The test function a*x - n(x) of a sequence of more than one block is a
``GammaLine``: ``gamma_line`` certifies from each block's gap extremes
whether all of its pairs rise or all fall, and the line forms the
ordinates of a block only when a reader needs them, so the trials whose
blocks the gaps decide form almost none.  A line of one block is formed
whole, as an explicit ``PiecewiseLinear``.

Only this module builds a sequence, and each one gets its ``delta`` from
``_minimal_gap``; ``SeparatedSequence`` itself checks nothing.
``load_sequence`` sorts outside points (a file, a caller's array) and
holds them to the rules; ``within`` cuts a sequence to a radius.  An
odd point set +-term(k), the built-in generators of ``parse_generator``
(``lattice:<step>``, ``squares``, ``logperturbed``) and the zeros of
``zerotype``, is built by one ``odd_points``, sorted and inside its
window, so nothing checks it again.

Sequence files hold one decimal real per line, as Python's ``float``
reads it once the line is stripped of white space (so ``1_0`` and
non-ASCII digits parse, ``3 # c`` and ``1 2`` do not).  Lines end at
``\\n``, ``\\r`` or ``\\r\\n``, as a text file iterates them.  Blank lines and
lines whose first non-space character is ``#`` are ignored, here and in
a family file (``data_lines``); point order is arbitrary.  A value that
does not parse or is not finite, and a byte that is not UTF-8, is
refused with BadDataFile naming ``path:line``.  A
file of more than POINTS_CAP (2^23) lines or 64*POINTS_CAP bytes raises
SizeGuard before anything is parsed; the command line exits 1 on it.
"""

from __future__ import annotations

import bisect
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
    GapOverflow,
    NotSeparated,
    OutOfWindow,
    SinglePoint,
    SizeGuard,
    WindowTooSmall,
)

POINTS_CAP = 1 << 23  # points a generator may materialize, lines a data file may hold
FILE_CHUNK = 1 << 16  # bytes (characters, when parsing) read from a data file at a time
BLOCK = 1 << 16  # neighbouring pairs per block of a sequence's gap extremes and of a gamma line


def check_file_size(path) -> None:
    """SizeGuard for a data file of more than POINTS_CAP lines or 64*POINTS_CAP bytes.

    Lines end at ``\\n``, ``\\r`` or ``\\r\\n``, as a text file iterates them.
    They are counted over fixed-size binary chunks, so nothing is parsed
    and at most FILE_CHUNK bytes are held.
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
    lines += tail not in (b"", b"\n", b"\r")  # a last line without its end
    if lines > POINTS_CAP:
        raise SizeGuard(f"{path}: more than {POINTS_CAP} lines, the cap for a data file")


def data_lines(path, lines, first: int = 1):
    """The data lines of ``lines`` as ``(lineno, line)``, stripped of white
    space; ``first`` numbers the first line.

    Blank lines and lines whose first non-space character is ``#`` are
    skipped.  The lines are decoded with ``errors="surrogateescape"``, and
    one that holds a lone surrogate, a byte that is not UTF-8, raises
    BadDataFile naming ``path:line``, whether it is a data line or not.
    """
    for lineno, raw in enumerate(lines, first):
        if not raw.isascii():
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise BadDataFile(f"{path}:{lineno}: not UTF-8 text") from None
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


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
    lo, hi = as_bounds(window)
    if not lo < hi:
        raise BadArgument("window must satisfy lo < hi")
    if points[0] < lo or points[-1] > hi:
        raise OutOfWindow("window does not contain all points")
    return lo, hi


def _minimal_gap(points: np.ndarray) -> tuple[float, np.ndarray]:
    """(delta, block_gaps) of sorted finite points: their minimal gap, inf
    for one point, and the least and the greatest gap of each block of
    BLOCK neighbouring pairs, as the two rows of ``block_gaps``.

    The gaps are formed in one pass, a block at a time into one reused
    buffer, and delta is the least block minimum.  A zero gap is a
    duplicate (``-0.0`` and ``0.0`` too) and raises DuplicatePoint; a gap
    below the smallest normal double, whose reciprocal (a slope of the
    counting function) would overflow, raises NotSeparated; a gap beyond
    the largest double raises GapOverflow (only a span beyond it can hold
    one, so only then are the gaps looked at for it).
    """
    if float(points[-1]) - float(points[0]) == math.inf:  # only then can a gap overflow
        with np.errstate(over="ignore"):
            wide = np.flatnonzero(np.diff(points) == math.inf)
        if wide.size:
            lo, hi = float(points[wide[0]]), float(points[wide[0] + 1])
            raise GapOverflow(f"the gap from {lo!r} to {hi!r} is beyond the largest double")
    pairs = points.size - 1
    block_gaps = np.empty((2, -(-pairs // BLOCK)))
    gaps = np.empty(min(pairs, BLOCK))
    for b in range(block_gaps.shape[1]):
        s, e = b * BLOCK, min((b + 1) * BLOCK, pairs)
        np.subtract(points[s + 1 : e + 1], points[s:e], out=gaps[: e - s])
        block_gaps[:, b] = gaps[: e - s].min(), gaps[: e - s].max()
    delta = float(block_gaps[0].min()) if pairs else math.inf
    if delta == 0.0:
        raise DuplicatePoint("duplicate point in input")
    if delta < sys.float_info.min:
        raise NotSeparated(f"minimum gap {delta:g} below the smallest normal double")
    return delta, block_gaps


@dataclass
class SeparatedSequence:
    """Strictly increasing points on a data window; ``delta`` is their exact
    minimal gap, and ``block_gaps`` the least and the greatest gap of each
    block of BLOCK neighbouring pairs (see ``_minimal_gap``).  The
    constructor checks nothing; only this module calls it."""

    points: np.ndarray
    window: tuple[float, float]
    delta: float
    block_gaps: np.ndarray

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
        raw -= anchor
        return PiecewiseLinear(pts, raw, left_slope, right_slope)

    def within(self, radius: float) -> "SeparatedSequence":
        """The points with |x| <= radius on the data window (-radius, radius).

        They are one contiguous slice of the sorted points, so they are
        neither sorted nor checked again; only their gaps are taken.
        Raises EmptyRange when no point lies that close to 0.
        """
        i = np.searchsorted(self.points, -radius, side="left")
        j = np.searchsorted(self.points, radius, side="right")
        if i == j:
            raise EmptyRange(f"no points within radius {radius:g}")
        points = self.points[i:j]
        return SeparatedSequence(points, (-radius, radius), *_minimal_gap(points))


def load_sequence(points, window=None) -> SeparatedSequence:
    """Sort raw points and wrap them in a SeparatedSequence.

    Parameters
    ----------
    points : array_like
        Real numbers in arbitrary order: a 1d array of at least one point,
        all finite, whose sorted gaps ``_minimal_gap`` accepts.
    window : (float, float), optional
        Data window; defaults to [min(points), max(points)].
    """
    pts = np.array(points, dtype=float)
    if pts.ndim != 1:
        raise BadArgument(f"points must be a 1d array, got shape {pts.shape}")
    if not np.all(pts[:-1] < pts[1:]):  # strictly increasing input is already sorted
        pts = np.sort(pts)
    if pts.size == 0:
        raise EmptyRange("a sequence needs at least one point")
    if not np.isfinite(pts).all():
        raise BadArgument("points must be finite")
    gaps = _minimal_gap(pts)
    if window is None:
        if pts.size == 1:
            # a degenerate window carries no information; pad by a unit ball,
            # widened where a unit is below the point's resolution
            pad = max(1.0, abs(float(pts[0])) * 2.0**-52)
            window = (float(pts[0]) - pad, float(pts[0]) + pad)
        else:
            window = (float(pts[0]), float(pts[-1]))
    return SeparatedSequence(pts, _checked_window(pts, window), *gaps)


def check_radius(radius: float) -> float:
    """``radius`` when it is positive and finite; BadArgument otherwise."""
    if not 0.0 < radius < math.inf:
        raise BadArgument(f"radius must be positive and finite, got {radius!r}")
    return radius


def parse_generator(spec: str, radius: float | None = None) -> SeparatedSequence:
    """Materialize a sequence from a generator spec string.

    Grammar: ``lattice:<step>`` | ``squares`` | ``logperturbed`` |
    ``file:<path>``.  The built-in generators need the radius and give
    ``odd_points`` their term and a count that bounds their last index
    within it: k*step and radius/step, k^2 and sqrt(radius), and k +
    k/log(k+2) and radius/(1 + 1/log(radius+2)), as log(k+2) <=
    log(radius+2); a radius below their first nonzero point raises
    WindowTooSmall.  A file goes through ``load_sequence`` (more than
    POINTS_CAP lines raise SizeGuard before anything is parsed) and is cut
    to [-radius, radius] when a radius is given.  A radius-bounded
    sequence has the data window (-radius, radius).
    """
    name, _, param = spec.partition(":")
    name = name.strip()
    if radius is not None:
        check_radius(radius)

    if name == "file":
        if not param:
            raise BadArgument("file generator needs a path: file:<path>")
        base = read_sequence_file(param)
        if radius is None:
            return base
        try:
            return base.within(radius)
        except EmptyRange:
            raise EmptyRange(f"no points of {param} within radius {radius:g}") from None

    if name == "lattice":
        if not param:
            raise BadArgument("lattice generator needs a step: lattice:<step>")
        try:
            step = float(param)
        except ValueError:
            raise BadArgument(f"lattice step is not a number: {param!r}") from None
        if not (math.isfinite(step) and step > 0):
            raise BadArgument(f"lattice step must be positive, got {param}")
    elif ":" in spec:
        raise BadArgument(f"generator {name!r} takes no parameter")
    elif name not in ("squares", "logperturbed"):
        raise BadArgument(f"unknown generator {spec!r}")
    if radius is None:
        raise BadArgument(f"a radius is required to materialize {name}")
    radius = float(radius)

    if name == "lattice":
        term, count, least = lambda k: np.multiply(k, step, out=k), radius / step, step
        too_small = f"is below one lattice step {step:g}"
    elif name == "squares":
        term, count, least, too_small = np.square, math.sqrt(radius), 1.0, "holds no nonzero square"
    else:
        term, least, too_small = lambda k: np.add(k, k / np.log(k + 2.0), out=k), 1.0, "holds no perturbed point"
        count = radius / (1.0 + 1.0 / math.log(radius + 2.0))
    if radius < least:
        raise WindowTooSmall(f"radius {radius:g} {too_small}")
    points = odd_points(term, count, (-radius, radius))
    return SeparatedSequence(points, (-radius, radius), *_minimal_gap(points))


def odd_points(term, count: float, window) -> np.ndarray:
    """The odd point set {+-term(k) : k = 0, 1, ...} in the window [lo, hi], sorted.

    ``term`` maps float indices (an array it may write into) to increasing
    points >= 0; ``count`` estimates the last index within the reach
    max(hi, -lo), so the indices up to int(count) + 1 are formed and cut
    at the reach.  The negative points are exact negations (IEEE rounding
    is symmetric), a term 0 kept once.  A window without lo < hi raises
    BadArgument, and 2*count + 1 beyond POINTS_CAP (NaN and inf too)
    SizeGuard, before anything is allocated.
    """
    lo, hi = as_bounds(window)
    if not lo < hi:
        raise BadArgument(f"window must have lo < hi, got {lo!r}, {hi!r}")
    if not 2.0 * count + 1.0 <= POINTS_CAP:
        raise SizeGuard(f"{2.0 * count + 1.0:.3g} generator points beyond the cap {POINTS_CAP}")
    with np.errstate(over="ignore"):  # the index past the estimate may overflow; the cut drops it
        half = term(np.arange(int(count) + 2, dtype=float))
    half = half[: half.searchsorted(max(hi, -lo), "right")]
    tail = half[1:] if half.size and half[0] == 0.0 else half
    points = np.empty(tail.size + half.size)  # in place: a negated copy and a concatenate take about 3x as long
    np.negative(tail[::-1], out=points[: tail.size])
    points[tail.size :] = half
    return points[points.searchsorted(lo, "left") : points.searchsorted(hi, "right")]


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
    for lineno, line in data_lines(path, lines, first):
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

    The envelope reads the ordinates only through the accessors
    ``ordinates`` (a slice), ``ordinate`` (single nodes), ``first_rise``,
    ``last_rise``, ``falls``, ``count_at_least``, ``suffix_max``,
    ``window_ends`` and ``trend``; pair k joins nodes k and k+1.  Here they
    read the arrays as stored; a ``GammaLine`` answers them a block at a
    time, or a node at a time, without the ordinates of blocks its gaps decide.
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

    def ordinates(self, i: int, j: int) -> np.ndarray:
        """The ordinates of nodes i to j-1, as a view."""
        return self.y[i:j]

    def ordinate(self, k: int):
        """The ordinate of node k."""
        return self.y[k]

    def first_rise(self, i: int, j: int) -> int | None:
        """The first rising pair k, y[k] < y[k+1], with i <= k < j, or None.
        ``argmax`` stops at the first True of the mask; nodes that never
        rise (``trend`` -1) need no look."""
        if self.trend == -1:
            return None
        mask = self.rises[i:j]
        k = int(mask.argmax()) if mask.size else 0
        return i + k if mask.size and mask[k] else None

    def last_rise(self, i: int, j: int) -> int | None:
        """The last rising pair k with i <= k < j, or None (``_last_true``)."""
        k = _last_true(self.rises[i:j]) if self.trend != -1 else None
        return None if k is None else i + k

    def falls(self, i: int, j: int) -> bool:
        """Whether some pair k with i <= k < j falls, y[k] > y[k+1]
        (``_falls``); none does when every pair rises (``trend`` 1)."""
        return self.trend != 1 and _falls(self.y[i : j + 1])

    def count_at_least(self, i: int, j: int, level: float) -> int:
        """How many nodes i <= k < j have y[k] >= level, where the ordinates
        never increase from i to j-1 (the envelope asks only there): they
        lead the range, so a bisection on single ordinates counts them."""
        return bisect.bisect_left(range(i, j), True, key=lambda k: bool(self.ordinate(k) < level))

    def suffix_max(self, i: int, j: int, end: float, out: np.ndarray) -> None:
        """Write m[k] = max(y[i+k:j], end) for k = 0 .. j-i into ``out``: at
        each node of the slice, the maximum of the nodes from there up to j,
        and ``end``.  One reverse accumulate over a copy of the slice with
        ``end`` after it; where values tie it keeps the leftmost.
        """
        out[-1] = end
        out[:-1] = self.ordinates(i, j)
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
        if np.ndim(t) == 0:
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
        lo, hi = as_bounds(window)
        x0, x1 = float(self.x[0]), float(self.x[-1])
        i = int(self.x.searchsorted(lo, side="right"))
        j = int(self.x.searchsorted(hi, side="left"))
        ends = np.interp((lo, hi), self.x, self._interpolated(i, j))
        for k, t in enumerate((lo, hi)):
            if t < x0:
                ends[k] = float(self.ordinate(0)) + float(self.left_slope) * (t - x0)
            elif t > x1:
                ends[k] = float(self.ordinate(-1)) + float(self.right_slope) * (t - x1)
        if not (lo < hi and math.isfinite(ends[0]) and math.isfinite(ends[1])):
            raise BadArgument(f"window must satisfy lo < hi with finite values at both ends, got {lo!r}, {hi!r}")
        return lo, hi, ends, i, j

    def _interpolated(self, i: int, j: int) -> np.ndarray:
        """Ordinates that hold at least where ``np.interp`` reads them for
        ends between nodes i-1 and i and between j-1 and j: at those four
        nodes and the two outer ones."""
        return self.y

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
        ys = np.concatenate((ends[:1], self.ordinates(i, j), ends[1:]))
        return xs, ys


@dataclass(eq=False)
class GammaLine(PiecewiseLinear):
    """a*x - n(x) in blocks of BLOCK pairs, its ordinates filled where a
    reader needs them.

    ``c`` holds the counting function's ordinates; node k's ordinate is
    fl(fl(a*x[k]) - c[k]), the same two roundings wherever it is formed:
    in the buffer ``y``, which the constructor takes uninitialized
    (``ordinates`` fills the blocks a slice touches, from the first
    unfilled one to the last in one pass, and marks them in ``filled``),
    or one node at a time (``ordinate``, which fills nothing).  Block b
    holds pairs b*BLOCK to (b+1)*BLOCK - 1 and writes the nodes at both
    ends of each.  ``certified`` is the gap certificate of ``gamma_line``:
    per block 1 when every pair rises, -1 when every pair falls, 0 when
    its ordinates must be compared.  A decided block answers the rise and
    fall queries without them; an undecided one forms its rising-pair
    mask once, when first read.  Reading ``y`` itself fills every block,
    so a reader that knows no blocks sees the whole array.  It inherits
    ``count_at_least``, ``suffix_max`` and ``window_ends``: they read through the accessors it overrides.
    """

    a: float
    c: np.ndarray
    certified: tuple[int, ...]

    @property
    def y(self) -> np.ndarray:
        return self.ordinates(0, self.x.size)

    @y.setter
    def y(self, buffer: np.ndarray) -> None:
        self._buffer = buffer

    @functools.cached_property
    def filled(self) -> bytearray:
        """Per block, 1 once its nodes are in the buffer."""
        return bytearray(len(self.certified))

    @functools.cached_property
    def _masks(self) -> dict:
        return {}

    @functools.cached_property
    def trend(self) -> int:
        certified = self.certified
        undecided = [b for b, t in enumerate(certified) if t == 0]
        if -1 not in certified and all(self._block_rises(b).all() for b in undecided):
            return 1
        return 0 if 1 in certified or any(self._block_rises(b).any() for b in undecided) else -1

    def _block_rises(self, b: int) -> np.ndarray:
        """The rising-pair mask of block b, formed once."""
        mask = self._masks.get(b)
        if mask is None:
            y = self.ordinates(b * BLOCK, (b + 1) * BLOCK + 1)
            mask = self._masks[b] = y[:-1] < y[1:]
        return mask

    def ordinates(self, i: int, j: int) -> np.ndarray:
        """A view of the buffer, once the blocks that hold nodes i to j-1
        are filled."""
        if i < j:
            b0 = max(min(i, j - 2), 0) // BLOCK  # the block of pair i, or of a pair ending at node i
            b1 = max(j - 2, 0) // BLOCK + 1  # past the block of pair j-2, which ends at node j-1
            first = self.filled.find(0, b0, b1)
            if first >= 0:
                last = self.filled.rfind(0, b0, b1) + 1
                s, e = first * BLOCK, min(last * BLOCK + 1, self.x.size)
                np.multiply(self.x[s:e], self.a, out=self._buffer[s:e])
                self._buffer[s:e] -= self.c[s:e]
                self.filled[first:last] = b"\x01" * (last - first)
        return self._buffer[i:j]

    def ordinate(self, k):
        return self.a * self.x[k] - self.c[k]

    def _interpolated(self, i: int, j: int) -> np.ndarray:
        """The buffer, with the six ordinates ``np.interp`` reads written
        while some block is unfilled; their blocks are not marked filled,
        and a fill writes the same bits again."""
        n = self.x.size
        if 0 in self.filled:
            for k in (0, i - 1, i, j - 1, j, n - 1):
                if 0 <= k < n:
                    self._buffer[k] = self.ordinate(k)
        return self._buffer

    def first_rise(self, i: int, j: int) -> int | None:
        """Blocks certified to fall are skipped and one certified to rise
        answers with its first pair in range; an undecided block's mask is
        searched by ``argmax``."""
        for b in range(i // BLOCK, -(-j // BLOCK)) if i < j else ():
            s = max(i, b * BLOCK)
            if self.certified[b] == 1:
                return s
            if self.certified[b] == 0:
                mask = self._block_rises(b)[s - b * BLOCK : j - b * BLOCK]
                k = int(mask.argmax())
                if mask[k]:
                    return s + k
        return None

    def last_rise(self, i: int, j: int) -> int | None:
        """As ``first_rise``, from the right."""
        for b in reversed(range(i // BLOCK, -(-j // BLOCK)) if i < j else ()):
            e = min(j, (b + 1) * BLOCK)
            if self.certified[b] == 1:
                return e - 1
            if self.certified[b] == 0:
                s = max(i, b * BLOCK)
                k = _last_true(self._block_rises(b)[s - b * BLOCK : e - b * BLOCK])
                if k is not None:
                    return s + k
        return None

    def falls(self, i: int, j: int) -> bool:
        """A block certified to fall answers at once, and one certified to
        rise holds no fall; the undecided blocks are compared from the left
        (``_falls``), up to the first that falls."""
        blocks = range(i // BLOCK, -(-j // BLOCK)) if i < j else range(0)
        if -1 in self.certified[blocks.start : blocks.stop]:
            return True
        return any(
            _falls(self.ordinates(max(i, b * BLOCK), min(j, (b + 1) * BLOCK) + 1))
            for b in blocks
            if self.certified[b] == 0
        )



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

    Breakpoint ordinates are formed directly from the point array, y_k =
    fl(fl(a*x_k) - c_k) with c the counting function's ordinates, so no
    resampling error enters; the a*x term is absorbed into the slopes.
    The slope must keep a*x finite on the sequence.  The counting function
    is the sequence's cached one.  A sequence of one block gets its line
    formed whole: the bookkeeping of a ``GammaLine`` would cost a window
    more than forming at most BLOCK + 1 ordinates saves.  A longer one
    gets a ``GammaLine``, nothing of it formed yet, with its certificate.

    Each block of BLOCK pairs is certified from its least and greatest
    gap.  With u = 2^-53, X = max|x_k|, C = max|c_k| and E = 16u(|a|X + C +
    2), a pair whose product p = fl(a*g_k), g_k = fl(x_{k+1} - x_k), is at
    least 1 + E has y_k < y_{k+1}, and one whose product is at most 1 - E
    has y_k > y_{k+1}.  Rounding is monotone, so the products at a block's
    two extreme gaps bound all of its products: a block they both hold
    for is certified 1 (every pair rises) or -1 (every pair falls), and
    the others 0.  Unless E is at most 1/2, and so finite, nothing is
    certified.

    Proof.  A rounding errs by at most u of its result, or by 2^-1075
    where that is subnormal, and the gaps are normal (``_minimal_gap``).
    So each y_k lies within e = 2.001u|a|X + uC + 2^-1074 of a*x_k - c_k;
    c_k = fl(k - A) for the anchor A, so c_{k+1} - c_k lies within 2.001uC
    of 1; and a*(x_{k+1} - x_k) lies within a factor 1 +- 2.01u of p, give
    or take 2^-1074.  For p >= 1 + E the computed difference y_{k+1} - y_k
    is thus at least E - 2.01u(1 + E) - 2.001uC - 2e, and for p <= 1 - E at
    most -E + 2.01u + 2.001uC + 2e + 2^-1074.  With E <= 1/2 the terms
    beside E are at most 4.01u(|a|X + C) + 3.1u + 2^-1072, which E exceeds
    by far more than the roundings of E, 1 + E and 1 - E, so both bounds
    are strict.
    """
    counting = seq.counting
    x, c = counting.x, counting.y
    reach = max(-float(x[0]), float(x[-1]), 0.0)
    if not abs(a) * reach < math.inf:
        raise BadArgument(f"the slope a must keep a*x finite on the sequence, got {a!r}")
    slopes = a - counting.left_slope, a - counting.right_slope
    if seq.block_gaps.shape[1] == 1:  # formed whole: one block costs less than its bookkeeping
        y = a * x
        y -= c
        return PiecewiseLinear(x, y, *slopes)
    return GammaLine(x, np.empty(x.size), *slopes, a, c, _certificate(seq, a, reach))


def _certificate(seq: SeparatedSequence, a: float, reach: float) -> tuple[int, ...]:
    """Per block of ``seq``: 1 when every pair of gamma_line(seq, a) rises, -1
    when every pair falls, 0 when the gaps cannot tell (``gamma_line``)."""
    c = seq.counting.y
    certified = np.zeros(seq.block_gaps.shape[1], dtype=int)
    bound = 2.0**-49 * (abs(a) * reach + max(abs(float(c[0])), abs(float(c[-1]))) + 2.0)
    if bound <= 0.5:
        products = a * seq.block_gaps
        certified[products.min(axis=0) >= 1.0 + bound] = 1
        certified[products.max(axis=0) <= 1.0 - bound] = -1
    return tuple(certified.tolist())


def _falls(y: np.ndarray) -> bool:
    """Whether some neighbouring pair of ``y`` falls, y[k] > y[k+1]."""
    return bool(np.any(y[:-1] > y[1:]))


def _last_true(mask: np.ndarray) -> int | None:
    """Index of the last True of a bool array, or None when it holds none."""
    hits = mask.nonzero()[0]
    return int(hits[-1]) if hits.size else None
