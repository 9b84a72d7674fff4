"""Interval families, shortness classification and the suffix-max envelope.

The central object is the family BM(g) of a piecewise linear test function
g: the connected components of the open set

    { x : g(x) < max_{t in [x, H]} g(t) }

where H is the right end of the computation window.  A point belongs to the
set exactly when some point strictly to its right lies strictly above it;
segments where g ties its running maximum (plateaus) are not in the set.
Components are computed by a right-to-left suffix maximum sweep over the
segment grid with exact linear interpolation for the crossing abscissas, so
endpoint accuracy is limited only by float arithmetic, not by any grid.
The sweep reads the nodes inside a window as views of g's arrays, not
copies, and each window of a radius ladder takes its own suffix maxima
(``PiecewiseLinear.suffix_max``).  A window whose computed ordinates never
fall, but perhaps in the last pair, takes no sweep: by the rising-sun
lemma its family is one interval, from the window's left end to the node
after the last rising pair, or none when no pair rises.  Otherwise it
sweeps only the window's core: before
the first rising pair of ordinates and after the last one, g never
increases, so a piece of the tail has no higher point to its right, and a
piece of the head whose left node is at least the maximum S beyond the
first rise has none either, but the one holding the crossing.  The core
pieces see the operands they see in the whole window, so the family is
the same bit for bit (``bm_family`` gives the argument).

g's ordinates and its rises and falls are read only through its
accessors (``PiecewiseLinear.ordinates``, ``ordinate``, ``first_rise``,
``last_rise``, ``falls``, ``count_at_least``, ``suffix_max``, ``trend``),
never as whole arrays.  A ``GammaLine`` answers them from its gap
certificate where the gaps decide a block, and fills only the blocks a
reader needs, so a trial whose blocks all rise or all fall forms no more
than the few ordinates around each window end.

A family is held only as three columns (``IntervalFamily``): the float
endpoints ``left`` and ``right`` and the bool ``edge`` flag.  The engines
fill them sorted and disjoint by construction, so the constructor checks
nothing; ``family_from_csv`` is the one way outside data becomes a
family, and it checks every row and the disjointness.

A family of disjoint intervals I_n is called short when

    sum |I_n|^2 / (1 + dist(I_n, 0)^2) < infinity

and long when the sum diverges.  At desk scale the dichotomy is decided
from partial sums along an increasing radius ladder: convergent increments
mean Short, a clean unbounded growth fit (linear in log radius, or a power
law, with r^2 at least ``R2_MIN``) means Long, anything else is
Inconclusive (``classify_short_long``, from the sums alone).  Components
whose closure touches the window edge are systematically uncertain (the
suffix maximum beyond the horizon is unknown), so ``is_almost_decreasing``
keeps them out of the sums and weighs their mass against the sums; edge mass
that keeps growing with the radius is finite-section evidence of an
infinite component, which decides No (a family containing an unbounded
interval is long).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

import numpy as np

from ._json import Table
from .errors import BadArgument, BadDataFile
from .sequences import PiecewiseLinear, check_file_size, data_lines, write_csv

INTERIOR = "Interior"
TOUCHES_WINDOW_EDGE = "TouchesWindowEdge"
FLAGS = (INTERIOR, TOUCHES_WINDOW_EDGE)

SHORT = "Short"
LONG = "Long"
INCONCLUSIVE = "Inconclusive"

YES = "Yes"
NO = "No"

# family file endpoints and ladder values: magnitudes at most this keep squared
# lengths, and the squared partial sums that linear_fit forms, inside double range
ENDPOINT_BOUND = 1e50

# decision constants of the Short/Long dichotomy at desk scale
TAU_CONV = 1e-3        # relative increment over the last radius doubling
SUM_CAP = 1e12         # safety cap; legit short families can carry large mass
R2_MIN = 0.99          # fit quality required to call Long
LOG_SLOPE_MIN = 0.1    # minimal slope of sums vs log radius
POWER_SLOPE_MIN = 0.5  # minimal slope of log sums vs log radius
EDGE_FACTOR = 10.0     # edge mass dominating the interior sum by this factor
EDGE_GROWTH_MIN = 2.0  # and still growing over the last doubling


@dataclass(eq=False)
class IntervalFamily:
    """Sorted intervals whose interiors are pairwise disjoint, as three columns.

    ``left`` and ``right`` are float arrays with left < right, and ``edge``
    is a bool array marking the intervals flagged TouchesWindowEdge (the
    others are Interior).  Closures of neighbours may share an endpoint.
    The constructor checks nothing (see the module docstring); ``flags``
    is the derived str column of flags.
    """

    left: np.ndarray
    right: np.ndarray
    edge: np.ndarray

    def __len__(self):
        return self.left.size

    @property
    def flags(self) -> np.ndarray:
        return np.where(self.edge, TOUCHES_WINDOW_EDGE, INTERIOR)


def _masses(left, right) -> np.ndarray:
    """|I|^2 / (1 + dist(I,0)^2) of each interval; dist(I,0) is max(left, -right, 0), exact.

    float_power calls the C pow as Python's ** does, and ``_sum`` adds in
    order, so a sum equals a plain loop over the intervals bit for bit
    (numpy's pairwise sum would not).
    """
    d = np.maximum(np.maximum(left, -right), 0.0)
    return np.float_power(right - left, 2) / (1.0 + d * d)


def _sum(masses) -> float:
    """The masses added left to right, 0.0 for none."""
    return float(np.cumsum(masses)[-1]) if masses.size else 0.0


def family_to_csv(family: IntervalFamily, path) -> None:
    """Write a family as CSV with columns left,right,flag."""
    write_csv(path, (None, Table(left=family.left, right=family.right, flag=family.flags)))


def family_from_csv(path) -> IntervalFamily:
    """Read a family from CSV lines ``left,right[,flag]``; header optional.

    The first data line is a header, and skipped, only when its first cell
    is not a number.  The data lines are those of ``data_lines``, which
    refuses a byte that is not UTF-8.  Rows go straight into endpoint
    columns and an edge flag, checked in file order with faults naming
    ``path:line``: two or three cells of which the first two are numbers,
    endpoints finite and at most ENDPOINT_BOUND in magnitude, left <
    right, a known flag.  The rows are then sorted stably by left
    endpoint and must be disjoint.  The file's size is checked first
    (``check_file_size``).
    """
    check_file_size(path)
    left, right, edge = array("d"), array("d"), bytearray()
    first_data_line = True
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in data_lines(path, fh):
            parts = line.split(",")
            header, first_data_line = first_data_line, False
            lo = hi = None
            try:
                lo = float(parts[0])
                hi = float(parts[1])
            except (ValueError, IndexError):
                if header and lo is None:
                    continue  # header line: its first cell is not a number
            if hi is None or len(parts) > 3:
                raise BadDataFile(f"{path}:{lineno}: expected left,right[,flag]")
            if not (abs(lo) <= ENDPOINT_BOUND and abs(hi) <= ENDPOINT_BOUND):
                raise BadDataFile(
                    f"{path}:{lineno}: endpoints must be finite and at most {ENDPOINT_BOUND:g} in magnitude"
                )
            if not lo < hi:
                raise BadDataFile(f"{path}:{lineno}: interval needs left < right, got [{lo}, {hi}]")
            flag = (parts[2].strip() if len(parts) > 2 else "") or INTERIOR
            if flag not in FLAGS:
                raise BadDataFile(f"{path}:{lineno}: unknown boundary flag {flag!r}")
            left.append(lo)
            right.append(hi)
            edge.append(flag == TOUCHES_WINDOW_EDGE)
    order = np.argsort(left, kind="stable")
    left, right = np.array(left)[order], np.array(right)[order]
    if np.any(right[:-1] > left[1:]):
        raise BadDataFile(f"{path}: intervals must be sorted and disjoint")
    return IntervalFamily(left, right, np.array(edge, dtype=bool)[order])


def shortness_partial_sum(family: IntervalFamily, radius: float) -> float:
    """Sum of |I|^2 / (1 + dist(I,0)^2) over intervals contained in [-radius, radius]:
    the family is sorted and disjoint, so they are one contiguous slice."""
    a = np.searchsorted(family.left, -radius, "left")
    b = np.searchsorted(family.right, radius, "right")
    return _sum(_masses(family.left[a:b], family.right[a:b]))


@dataclass
class ShortnessReport:
    radii: list[float]
    partial_sums: list[float]
    model: str           # growth fit of the partial sums: Bounded | LogGrowth | Other
    coefficient: float
    r_squared: float
    verdict: str
    degenerate: bool = False


def linear_fit(x, y):
    """Least squares slope and r^2 of y against x; None when x is constant."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        return None
    slope = float(((x - xm) * (y - ym)).sum()) / sxx
    intercept = ym - slope * xm
    syy = float(((y - ym) ** 2).sum())
    if syy == 0.0:
        return slope, 1.0
    resid = y - (slope * x + intercept)
    return slope, 1.0 - float((resid**2).sum()) / syy


def top_half_slope(x, y, *, too_few: float, flat: float) -> float:
    """linear_fit slope over the upper half (by count) of a ladder, non-finite y dropped.

    Returns ``too_few`` when fewer than two finite points remain and
    ``flat`` when their x are constant; each caller names its own values.
    """
    half = x.size // 2
    keep = np.isfinite(y[half:])
    if keep.sum() < 2:
        return too_few
    fit = linear_fit(x[half:][keep], y[half:][keep])
    return fit[0] if fit else flat


def increasing_ladder(values, at_least: int, name: str) -> list[float]:
    """``values`` as floats; BadArgument unless at least ``at_least`` of them
    increase strictly from above the smallest normal double (whose
    reciprocal is finite) up to ENDPOINT_BOUND, the largest family-file
    endpoint.  NaN fails every comparison, so no arithmetic ever runs on a
    non-finite value.
    """
    out = [float(v) for v in values]
    below = [sys.float_info.min, *out]
    if not (len(out) >= at_least and all(a < b for a, b in zip(below, out)) and out[-1] <= ENDPOINT_BOUND):
        raise BadArgument(
            f"{name} must be {at_least} or more values increasing strictly in (2.2e-308, {ENDPOINT_BOUND:g}]"
        )
    return out


def _half_index(radii):
    """Index of the largest radius at most half the final one, or None."""
    for i in range(len(radii) - 1, -1, -1):
        if radii[i] <= radii[-1] / 2.0:
            return i
    return None


def classify_short_long(radii, sums, degenerate: bool) -> ShortnessReport:
    """Classify a family as Short or Long from its partial ``sums`` along
    ``radii``, a strictly increasing ladder of at least 4 values.  Each
    caller sums its own family; ``degenerate``, a family with no interval
    at any radius, is a Short flagged as such.
    """
    radii = increasing_ladder(radii, 4, "radii")
    if degenerate:
        return ShortnessReport(radii, sums, "Bounded", 0.0, 1.0, SHORT, degenerate=True)

    half = _half_index(radii)
    if half is not None:
        rel_inc = (sums[-1] - sums[half]) / max(sums[-1], 1e-300)
        if rel_inc <= TAU_CONV and sums[-1] <= SUM_CAP:
            return ShortnessReport(radii, sums, "Bounded", sums[-1], 1.0, SHORT)

    # power growth first: a log-log line with a clearly positive slope; the
    # log-growth test would also score well on power data but not vice versa
    positive = [(r, s) for r, s in zip(radii, sums) if s > 0.0]
    if len(positive) >= 4:
        slope, r2 = linear_fit(
            np.log([r for r, _ in positive]), np.log([s for _, s in positive])
        ) or (0.0, 0.0)
        if slope >= POWER_SLOPE_MIN and r2 >= R2_MIN:
            return ShortnessReport(radii, sums, "Other", slope, r2, LONG)

    slope, r2 = linear_fit(np.log(radii), sums) or (0.0, 0.0)
    if slope >= LOG_SLOPE_MIN and r2 >= R2_MIN:
        return ShortnessReport(radii, sums, "LogGrowth", slope, r2, LONG)

    return ShortnessReport(radii, sums, "Other", slope, r2, INCONCLUSIVE)


def bm_family(gamma: PiecewiseLinear, window) -> IntervalFamily:
    """Components of { x in window : gamma(x) < suffix maximum of gamma }.

    The suffix maximum uses the right window end as horizon.  Components
    whose closure meets either window edge are flagged TouchesWindowEdge;
    the rightmost ones are systematically uncertain under window growth.

    The sweep works on a segment grid [left end, nodes strictly inside,
    right end].  With M_k the maximum of the node values strictly right of
    node k, a point x inside segment k is in the set iff gamma(x) < M_k:
    either the whole half-open segment qualifies (left node value below
    M_k) or the part right of the exact crossing of the segment line with
    level M_k.  The nodes are read as views ``gamma.x[a:b]``,
    ``gamma.ordinates(a, b)`` with the two end nodes beside them, not
    copied into a grid.  M is ``gamma.suffix_max`` of those nodes and the
    right end value.  The comparisons and the crossing formula see the
    same operands as a sweep over a copied grid: the family is exact, not
    an approximation of it.

    A window whose ordinates [gamma(lo), nodes strictly inside, gamma(hi)]
    never fall, but perhaps in the last pair, needs no sweep.  A crossing
    needs a left node at least the level and a right node below it, a
    fall; in the last pair the level is the right node itself, so only a
    fall before it can hold one.  Without such a fall a piece is in the
    set whole exactly when its left node is below the level, and the
    family is [lo, the node after the last rising pair], flagged, or
    empty when no pair rises (the rising-sun lemma of F. Riesz for a
    non-decreasing function).  A window whose ordinates never rise is
    empty too.  Both are decided on the computed ordinates, not on the
    slopes that make them monotone in exact arithmetic (``_rising_pairs``,
    ``_never_falls_before_last``), so the result is the sweep's bit for
    bit even where rounding makes neighbours tie.

    Otherwise only the window's core is swept.  Two facts on the computed
    ordinates make the rest of the window drop out:

    * after the last rising pair the ordinates never increase, so no piece
      there has a higher point to its right and none is in the set; the
      first of those nodes is their maximum, so it serves as the core's
      right end;
    * before the first rising pair the ordinates never increase either.
      With S the maximum of the nodes after that pair, a head piece whose
      left node is at least S has its suffix maximum at most that node, so
      it is not in the set, except the one whose right node falls below
      S: it holds the crossing.

    The core runs from the last head node at least S to the node just
    after the last rising pair, and only its nodes from the first rise on
    are accumulated; its head pieces before that lie below S and take S,
    the maximum beyond them.  Where values tie, numpy's maximum keeps the
    leftmost, so S is the element the whole-window accumulate reaches
    there, and the tail's first node the one it carries out of the tail.
    Each core piece thus sees the operands it sees in the whole window;
    edge flags are taken against the window's own ends, and the family
    is the whole-window sweep's bit for bit, zero signs included.  The
    first and the last rise are ``gamma.first_rise`` and
    ``gamma.last_rise``, and the head's nodes at least S are counted by
    ``gamma.count_at_least``: they lead the head, which never increases.
    """
    lo, hi, ends, i, j = gamma.window_ends(window)
    rising = _rising_pairs(gamma, ends, i, j)
    if rising is None:
        return IntervalFamily(np.empty(0), np.empty(0), np.empty(0, dtype=bool))
    f, l = rising
    b = i + l  # the core ends at node l+1
    x_hi, y_hi = (hi, ends[1]) if b == j else (gamma.x[b], gamma.ordinate(b))
    if _never_falls_before_last(gamma, ends, i, j):
        return IntervalFamily(np.array([lo]), np.array([x_hi]), np.array([True]))

    # grid node k is (lo, ends[0]) for k = 0, (x[i+k-1], y[i+k-1]) up to
    # k = j-i, then (hi, ends[1]); pair k is its segment from node k to k+1
    m = np.empty(l + 1)  # per segment: max over nodes strictly to its right
    gamma.suffix_max(i + f, b, y_hi, m[f:])
    # head nodes at least S = m[f] are out, up to the last: the core starts
    # there (no head, f = 0, has ends[0] < y[i] <= S)
    c = 0 if ends[0] < m[f] else gamma.count_at_least(i, i + f, m[f])
    m = m[c:]
    m[: f - c] = m[f - c]  # head pieces after c lie below S, the maximum beyond them
    a = i + c
    x_lo, y_lo = (lo, ends[0]) if a == i else (gamma.x[a - 1], gamma.ordinate(a - 1))
    if a == b:  # one rising segment, in the set whole
        return IntervalFamily(np.array([x_lo]), np.array([x_hi]), np.array([x_lo == lo or x_hi == hi]))
    x, y = gamma.x[a:b], gamma.ordinates(a, b)  # the core's inner nodes, as views

    # segment k runs from node k to node k+1 of [x_lo, x, x_hi]; its left node
    # value is y_lo for k = 0, else y[k-1], and its right one y[k] or y_hi
    full = np.empty(m.size, dtype=bool)  # piece [x_k, x_{k+1}): left node below m
    full[0] = y_lo < m[0]
    np.less(y, m[1:], out=full[1:])
    inside = np.empty(m.size, dtype=bool)  # full, or piece (x_cross, x_{k+1}): right node below m
    np.less(y, m[:-1], out=inside[:-1])
    inside[-1] = False
    np.logical_or(inside, full, out=inside)

    # a piece joins the one before it when that is in the set and the piece
    # is whole, so a partial piece always starts a component
    joins = full  # full is not needed whole below
    joins[0] = False
    np.logical_and(joins[1:], inside[:-1], out=joins[1:])
    bound = np.greater(inside, joins)  # pieces that start a component
    first = np.flatnonzero(bound)
    np.greater(inside[:-1], joins[1:], out=bound[:-1])  # pieces that end one
    bound[-1] = inside[-1]
    last = np.flatnonzero(bound)

    left = x[first - 1]  # first = 0 reads x[-1] and is set to x_lo below
    y_l = y[first - 1]
    if first[0] == 0:
        left[0], y_l[0] = x_lo, y_lo
    crossing = ~(y_l < m[first])  # not full: the comparison again, as full now holds joins
    if np.any(crossing):
        k = first[crossing]
        y_l = y_l[crossing]
        x_l = left[crossing]
        t = (y_l - m[k]) / (y_l - y[k])
        left[crossing] = x_l + t * (x[k] - x_l)
    right = x[np.minimum(last, y.size - 1)]  # last = y.size ends at x_hi
    if last[-1] == y.size:
        right[-1] = x_hi
    edge = (left == lo) | (right == hi)
    return IntervalFamily(left, right, edge)


def _rising_pairs(gamma: PiecewiseLinear, ends, i: int, j: int):
    """(f, l): the first and last rising pair of the window's grid
    [ends[0], y[i:j], ends[1]], or None when no pair rises.

    The grid's pairs are (ends[0], y[i]), gamma's pairs i to j-2 and
    (y[j-1], ends[1]), numbered 0 to n = j-i; a window with no node inside
    is one pair.
    """
    if i == j:
        return (0, 0) if ends[0] < ends[1] else None
    n = j - i
    head, tail = ends[0] < gamma.ordinate(i), gamma.ordinate(j - 1) < ends[1]
    first = gamma.first_rise(i, j - 1)
    if first is None:  # no inner pair rises
        return (0 if head else n, n if tail else 0) if head or tail else None
    return (0 if head else first - i + 1), (n if tail else gamma.last_rise(i, j - 1) - i + 1)


def _never_falls_before_last(gamma: PiecewiseLinear, ends, i: int, j: int) -> bool:
    """Whether no pair of the window's grid [ends[0], y[i:j], ends[1]]
    falls, but perhaps the last, whose level is its own right end: the
    head pair, then gamma's pairs i to j-2 (``gamma.falls``)."""
    if i < j and not ends[0] <= gamma.ordinate(i):
        return False
    return not gamma.falls(i, j - 1)


def is_almost_decreasing(gamma: PiecewiseLinear, radii) -> tuple[str, ShortnessReport]:
    """Desk-scale test of the almost decreasing property of gamma.

    Runs ``bm_family`` on the window [-r, r] for every radius of the
    ladder.  That family lies in [-r, r], so each rung takes the masses of
    its intervals once and adds them left to right in two parts, split by
    the edge flag: the interior sum, which ``classify_short_long`` judges
    Short or Long, and the edge mass, kept here.  The verdict is

    * No   when the interior family is Long, when every computed ordinate
           of gamma rises (``gamma.trend``: for gamma_a each segment slope
           a - 1/gap is then positive, so a > 1/delta, above any density,
           however small the window), or when the edge mass keeps
           growing over the last doubling while dominating the interior
           sums (a window-filling component, i.e. the trend g(+inf) = -inf
           fails and the true family contains an unbounded interval),
    * Yes  when the interior family is Short and the edge mass is tame,
    * Inconclusive otherwise.
    """
    radii = increasing_ladder(radii, 4, "radii")
    sums, edge_mass, degenerate = [], [], True
    for r in radii:
        family = bm_family(gamma, (-r, r))
        masses = _masses(family.left, family.right)
        interior = masses[~family.edge]
        degenerate = degenerate and interior.size == 0
        sums.append(_sum(interior))
        edge_mass.append(_sum(masses[family.edge]))
    report = classify_short_long(radii, sums, degenerate)

    half = _half_index(radii)
    dominated = edge_mass[-1] > EDGE_FACTOR * max(1.0, sums[-1]) and (
        half is None or edge_mass[-1] >= EDGE_GROWTH_MIN * max(edge_mass[half], 1e-300)
    )

    if report.verdict == LONG or dominated or gamma.trend == 1:
        return NO, report
    if report.verdict == SHORT:
        return YES, report
    return INCONCLUSIVE, report
