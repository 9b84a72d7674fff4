"""Interior density by bisection and null-ratio witnesses.

The interior density of a separated sequence is approached through the
test functions g_a(x) = a*x - n(x): the density is the supremum of the
slopes a for which g_a is almost decreasing.  Membership is monotone in a
(the set where g_{a'} sits below its suffix maximum is contained in the
one for any a >= a', because n(y) - n(x) < a'*(y-x) implies the same for
a), so a bisection on [0, 2/delta] brackets the supremum.  Its first
trial is the midpoint 1/delta: 2/delta itself is a No by the counting
bound below, and is not tried.  Every trial
records its shortness evidence; the bracket stops refining at the
requested tolerance, at the window's resolution or at the first
Inconclusive verdict.

Many trials are decided by the counting bound alone.  On the segment
between neighbouring points, g_a has slope a - 1/gap.  From a = 1/delta
on no segment falls, and BM(g_a) on any window is one edge-flagged
interval, from the window's left end to the node after the last rise
(the whole window when a > 1/delta and every segment rises); for a below
1/(largest gap) every segment falls and BM(g_a) is empty.  So the first
trial's g_a never falls, in exact arithmetic.  ``bm_family`` uses this
without a sweep.  What it decides on is the computed ordinates, whose
rounding can make neighbours tie or dip when a is within a few ulps of
1/delta, so the sweep's answer is kept bit for bit.  ``gamma_line``
certifies those ordinates from the gaps where it can: in a block of
pairs whose products fl(a*gap) all reach 1 + E, with E = 16u(|a|X + C +
2) the rounding bound of the ordinates (u = 2^-53, X the reach, C the
largest counting value), every computed pair rises, and where they all
stay below 1 - E every pair falls.  Such a block needs no ordinate
formed; a block between, and every block when E is not small, falls
back to its computed ordinates, compared pair by pair.
A strictly rising g_a is a No whatever the window sees
(``is_almost_decreasing``), since then a > 1/delta >= the density.  So is
every trial whose computed product a*delta exceeds 1: rounding is
monotone, so the exact product does too.  That rule holds where the
ordinates cannot show the rise, a*gap - 1 per segment being below their
rounding (``density --seq lattice:1e-13 --radius 1e-9``); the trial's
evidence is still computed and kept.

The same bound shapes the trials in between.  Only the segments with
gap > 1/a rise.  Where the wide gaps stay near 0, as on ``logperturbed``
(gaps about 1 + 1/log|x|), those segments lie in a bounded core, and g_a
never increases before its first rising segment or after its last.
``bm_family`` sweeps only that core; the monotone head and tail cost a
comparison each, not a suffix-max accumulate, and the family is the same
bit for bit.  Outside the core's blocks the gaps decide the pairs, so
only those blocks' ordinates are formed.

The classification of the bracket is honest about window resolution: a
window of radius R cannot certify slopes finer than about delta/R, so the
verdict degrades to Inconclusive when the requested tolerance is below
2*delta/R regardless of how clean the bracket looks, and the bisection
stops once the bracket is that narrow.

The witness search walks deterministic geometric ladders (powers of 4
and 2, each half line and both combined) looking for a disjoint family
that is long while its point-count ratios obey a decreasing cap; such a
family certifies that the sequence fails the counting test and is not a
Polya sequence.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .envelope import (
    ENDPOINT_BOUND,
    INCONCLUSIVE,
    LONG,
    NO,
    YES,
    IntervalFamily,
    ShortnessReport,
    classify_short_long,
    increasing_ladder,
    is_almost_decreasing,
    shortness_partial_sum,
)
from .errors import BadArgument, SpanTooWide, WindowTooSmall
from .gap import TWO_PI
from .sequences import SeparatedSequence, gamma_line

POLYA = "Polya"
NOT_POLYA = "NotPolya"

# the k-th interval a null-ratio witness picks holds at most RATIO_CAP[k]
# points per unit length: the harmonic cap 1/(k+1), forcing the ratios to 0
RATIO_CAP = tuple(1.0 / (k + 1) for k in range(64))

# the least end of a ladder derived from data: its first rung, r/2^7, stays
# above the smallest normal double
LADDER_END_FLOOR = 2.0**8 * sys.float_info.min


@dataclass
class DensityTrial:
    a: float
    verdict: str
    shortness: ShortnessReport


@dataclass
class DensityReport:
    a_lower: float
    a_upper: float
    trials: list[DensityTrial]
    polya_class: str
    gap_lower: float          # 2*pi*a_lower
    gap_upper: float          # companion upper bound 2*pi*a_upper
    radii: list[float]
    a_tolerance: float
    resolution_ok: bool
    delta: float
    n_points: int
    window: tuple[float, float]


def default_radius_ladder(r_max: float) -> list[float]:
    """Doubling ladder of 8 rungs ending at r_max, within the range
    ``increasing_ladder`` accepts: first rung above the smallest normal
    double, last at most ENDPOINT_BOUND."""
    if not 0.0 < r_max < math.inf:
        raise BadArgument(f"r_max must be positive and finite, got {r_max!r}")
    if not (r_max / 2.0**7 > sys.float_info.min and r_max <= ENDPOINT_BOUND):
        raise BadArgument(
            f"r_max must be in (2^7 * 2.2e-308, {ENDPOINT_BOUND:g}] for 8 doubling rungs, got {r_max!r}"
        )
    return [r_max / 2.0 ** (7 - j) for j in range(8)]


def interior_density(
    seq: SeparatedSequence,
    radii=None,
    a_tolerance: float = 0.05,
) -> DensityReport:
    """Bracket the interior density of a separated sequence by bisection.

    Parameters
    ----------
    seq : SeparatedSequence
        At least 16 points on a two-sided window.
    radii : array_like, optional
        Radius ladder for the shortness evidence; every rung's window
        (-r, r) must lie in the data window (WindowTooSmall).  Defaults to
        8 doublings ending at the largest symmetric radius the window
        supports, or at ENDPOINT_BOUND, the largest ladder value, when the
        window reaches beyond it; at LADDER_END_FLOOR, which no window so
        narrow reaches, when that radius leaves the first rung subnormal.
    a_tolerance : float
        Bracket width at which bisection stops; it also stops at the
        window's resolution 2*delta/R.  The Polya / NotPolya call
        uses 2*a_tolerance as decision margin, so a tolerance above
        0.5/delta, which no density (at most 1/delta) could pass, is refused.

    A sequence on which (2/delta)*max|x| overflows, so that ``gamma_line``
    could refuse a trial's slope, raises SpanTooWide before the first trial.
    """
    if len(seq) < 16:
        raise WindowTooSmall("density needs at least 16 points")
    if not 0.0 < a_tolerance <= 0.5 / seq.delta:
        raise BadArgument(f"a_tolerance must lie in (0, 0.5/delta = {0.5 / seq.delta:.17g}], got {a_tolerance!r}")
    lo, hi = seq.window
    if not (lo < 0.0 < hi):
        raise WindowTooSmall("density needs a two-sided window around 0")
    if radii is None:
        r_max = min(-lo, hi, ENDPOINT_BOUND)
        if not r_max / 2.0**7 > sys.float_info.min:
            r_max = LADDER_END_FLOOR
        radii = default_radius_ladder(r_max)
    radii = increasing_ladder(radii, 4, "radii")
    if radii[-1] > min(-lo, hi):
        raise WindowTooSmall("radius ladder exceeds the data window")

    # a window of radius R cannot separate slopes closer than ~delta/R
    resolution = 2.0 * seq.delta / radii[-1]
    trials: list[DensityTrial] = []

    def verdict_at(a: float) -> str:
        gamma = gamma_line(seq, a)
        verdict, report = is_almost_decreasing(gamma, radii)
        if a * seq.delta > 1.0:  # the counting bound, see the module docstring
            verdict = NO
        trials.append(DensityTrial(a, verdict, report))
        return verdict

    # 2/delta is a No by the counting bound (its a*delta rounds to 2), so it is not tried
    a_lower, a_upper = 0.0, 2.0 / seq.delta
    reach = max(-float(seq.points[0]), float(seq.points[-1]), 0.0)
    if not a_upper * reach < math.inf:  # gamma_line's slope check, for every trial below a_upper
        raise SpanTooWide(f"points reach {reach!r} at a minimal gap of {seq.delta!r}: slopes to 2/delta overflow a*x")
    while a_upper - a_lower > max(a_tolerance, resolution):
        mid = 0.5 * (a_lower + a_upper)
        if not a_lower < mid < a_upper:
            break  # adjacent doubles: a finer tolerance cannot be met
        v = verdict_at(mid)
        if v == YES:
            a_lower = mid
        elif v == NO:
            a_upper = mid
        else:
            break

    resolution_ok = a_tolerance >= resolution
    if not resolution_ok:
        polya_class = INCONCLUSIVE
    elif a_lower >= 2.0 * a_tolerance:
        polya_class = POLYA
    elif a_upper <= 2.0 * a_tolerance:
        polya_class = NOT_POLYA
    else:
        polya_class = INCONCLUSIVE

    return DensityReport(
        a_lower=a_lower,
        a_upper=a_upper,
        trials=trials,
        polya_class=polya_class,
        gap_lower=TWO_PI * a_lower,
        gap_upper=TWO_PI * a_upper,
        radii=radii,
        a_tolerance=a_tolerance,
        resolution_ok=resolution_ok,
        delta=seq.delta,
        n_points=len(seq),
        window=seq.window,
    )


@dataclass
class WitnessFamily:
    family: IntervalFamily
    ratios: list[float]
    shortness: ShortnessReport
    ladder: str              # which candidate ladder produced the witness


def _geometric_ladders(window, base: int):
    """Candidate ladders [base^k, base^(k+1)] inside the window, as (name, left, right).

    The "both" ladder is ordered by k, the distance to 0, the positive
    interval first: a stable sort of positive then negative by distance.
    When a side holds no interval it is the other side's ladder, tried
    just before it, or empty, so it finds nothing new.
    """
    lo, hi = window
    powers = np.ldexp(1.0, np.arange(0, 1024, int(math.log2(base))))
    near, far = powers[:-1], powers[1:]
    left = np.column_stack((near, -far)).ravel()
    right = np.column_stack((far, -near)).ravel()
    inside = (left >= lo) & (right <= hi)
    left, right = left[inside], right[inside]
    pos, neg = left > 0.0, left < 0.0
    out = []
    if pos.any():
        out.append((f"pow{base}:positive", left[pos], right[pos]))
    if neg.any():
        out.append((f"pow{base}:negative", left[neg], right[neg]))
    out.append((f"pow{base}:both", left, right))
    return out


def null_ratio_witness(seq: SeparatedSequence) -> WitnessFamily | None:
    """Search for a long family on which point-count ratios fall under a cap.

    The k-th selected interval must satisfy count/length <= RATIO_CAP[k],
    the harmonic cap 1/(k+1).  Returns None when no candidate ladder yields
    such a family (reported as NotFound by the CLI).  A witness certifies
    the sequence is not a Polya sequence.

    The ladders are walked on endpoint columns in a fixed deterministic
    order; ratios are point counts (one ``searchsorted`` pair) over
    lengths, and the k-th interval picked is the next one whose ratio is at
    most RATIO_CAP[k].  The first candidate family whose intervals reach
    at least 4 distinct radii and whose partial sums along them classify
    Long is returned, with its columns and ratios sorted by left endpoint.
    """
    for base in (4, 2):
        for name, left, right in _geometric_ladders(seq.window, base):
            counts = np.searchsorted(seq.points, right, side="right") - np.searchsorted(seq.points, left, side="left")
            ratios = counts / (right - left)
            picked, last = [], -1
            for cap in RATIO_CAP:
                hits = np.flatnonzero(ratios[last + 1 :] <= cap)
                if hits.size == 0:
                    break
                last += 1 + int(hits[0])
                picked.append(last)
            kept = np.array(picked, dtype=np.intp)
            kept = kept[np.argsort(left[kept], kind="stable")]
            # distinct containment radii, no more than the intervals kept
            radii = np.unique(np.maximum(np.abs(left[kept]), np.abs(right[kept])))
            if radii.size < 4:
                continue
            family = IntervalFamily(left[kept], right[kept], np.zeros(kept.size, dtype=bool))
            sums = [shortness_partial_sum(family, r) for r in radii]
            report = classify_short_long(radii, sums, degenerate=False)
            if report.verdict == LONG:
                return WitnessFamily(family, ratios[kept].tolist(), report, name)
    return None
