import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab import (
    BadArgument,
    INCONCLUSIVE,
    INTERIOR,
    LONG,
    NO,
    SHORT,
    TOUCHES_WINDOW_EDGE,
    YES,
    Interval,
    IntervalFamily,
    PiecewiseLinear,
    SymmetricSquares,
    bm_family,
    classify_short_long,
    counting_function,
    family_from_csv,
    family_to_csv,
    gamma_line,
    generate,
    is_almost_decreasing,
    shortness_partial_sum,
)
from bmlab.errors import BadDataFile


def line(slope):
    return PiecewiseLinear(
        np.array([0.0, 1.0]),
        np.array([0.0, slope]),
        left_slope=slope,
        right_slope=slope,
    )


def grid_oracle(gamma, window, step=1e-3):
    """Brute-force suffix-max components of {gamma < M} on a grid.

    The grid is refined with the breakpoints so local maxima are sampled
    exactly; without this the suffix max is undersampled by step * slope
    and endpoint errors blow past the grid resolution.
    """
    lo, hi = window
    xs = np.arange(lo, hi + step / 2, step)
    inner = gamma.x[(gamma.x > lo) & (gamma.x < hi)]
    xs = np.unique(np.concatenate([xs, inner, [lo, hi]]))
    ys = gamma(xs)
    suffix = np.maximum.accumulate(ys[::-1])[::-1]
    inside = ys < suffix - 1e-12 * (1.0 + np.abs(ys))
    comps = []
    start = None
    for i, flag in enumerate(inside):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            comps.append((xs[start], xs[i - 1]))
            start = None
    if start is not None:
        comps.append((xs[start], xs[-1]))
    return comps


# ---------------------------------------------------------------- intervals


def test_interval_basics():
    iv = Interval(-2.0, 3.0)
    assert iv.length == 5.0
    assert iv.dist_to_origin == 0.0
    assert Interval(4.0, 6.0).dist_to_origin == 4.0
    assert Interval(-6.0, -4.0).dist_to_origin == 4.0
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)


def test_family_requires_sorted_disjoint():
    with pytest.raises(ValueError):
        IntervalFamily([Interval(0.0, 2.0), Interval(1.0, 3.0)], [INTERIOR, INTERIOR])


def test_family_csv_round_trip(tmp_path):
    fam = IntervalFamily(
        [Interval(-3.5, -1.25), Interval(0.0, 2.0)],
        [TOUCHES_WINDOW_EDGE, INTERIOR],
    )
    path = tmp_path / "fam.csv"
    family_to_csv(fam, path)
    back = family_from_csv(path)
    assert [(iv.left, iv.right) for iv in back.intervals] == [(-3.5, -1.25), (0.0, 2.0)]
    assert back.flags == fam.flags


def test_family_csv_plain_two_columns(tmp_path):
    # the documented external format is bare `left,right` lines
    path = tmp_path / "fam.csv"
    path.write_text("1.0,2.0\n4.0,8.0\n")
    fam = family_from_csv(path)
    assert len(fam.intervals) == 2
    assert fam.flags == [INTERIOR, INTERIOR]


def test_family_csv_bad_line(tmp_path):
    path = tmp_path / "fam.csv"
    path.write_text("left,right\n1.0,2.0\nx,y\n")
    with pytest.raises(BadDataFile, match="fam.csv:3"):
        family_from_csv(path)


# ---------------------------------------------------------------- shortness


def test_partial_sum_unit_intervals_bounded():
    fam = IntervalFamily(
        [Interval(float(n), float(n + 1)) for n in range(1, 200)],
        [INTERIOR] * 199,
    )
    total = shortness_partial_sum(fam, 1e9)
    assert total < np.pi**2 / 6


def test_partial_sum_dyadic_grows_linearly():
    fam = IntervalFamily(
        [Interval(float(2**k), float(2 ** (k + 1))) for k in range(1, 21)],
        [INTERIOR] * 20,
    )
    sums = [shortness_partial_sum(fam, float(2 ** (k + 1))) for k in range(1, 21)]
    increments = np.diff(sums)
    # ~ 4^k/(1+4^k) per generation, approaching 1 from below
    assert np.all(increments[3:] > 0.9)
    assert np.all(increments < 1.0)


def test_partial_sum_single_interval_at_origin():
    fam = IntervalFamily([Interval(0.0, 1.0)], [INTERIOR])
    assert shortness_partial_sum(fam, 2.0) == pytest.approx(1.0)


def test_partial_sum_monotone_and_additive():
    left = IntervalFamily([Interval(-9.0, -7.0), Interval(-4.0, -3.0)], [INTERIOR] * 2)
    right = IntervalFamily([Interval(1.0, 2.0), Interval(5.0, 8.0)], [INTERIOR] * 2)
    both = IntervalFamily(
        list(left.intervals) + list(right.intervals), [INTERIOR] * 4
    )
    for r in (2.0, 5.0, 10.0):
        assert shortness_partial_sum(both, r) == pytest.approx(
            shortness_partial_sum(left, r) + shortness_partial_sum(right, r)
        )
    sums = [shortness_partial_sum(both, r) for r in (1.0, 3.0, 6.0, 9.0, 20.0)]
    assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))


def plain_mass(intervals):
    """Reference sum of |I|^2 / (1 + dist(I,0)^2), one interval at a time."""
    total = 0.0
    for iv in intervals:
        d = iv.dist_to_origin
        total += iv.length**2 / (1.0 + d * d)
    return total


@st.composite
def random_family(draw):
    # full-mantissa ends from a drawn seed, paired up into sorted disjoint
    # intervals; families longer than 8 expose the order of the summation
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e2, 1e4]))
    ends = np.unique(rng.uniform(-scale, scale, 2 * draw(st.integers(0, 120))))
    k = ends.size // 2
    lefts, rights = ends[0 : 2 * k : 2].tolist(), ends[1 : 2 * k : 2].tolist()
    intervals = [Interval(a, b) for a, b in zip(lefts, rights)]
    edge = rng.random(k) < draw(st.floats(min_value=0.0, max_value=1.0))
    flags = [TOUCHES_WINDOW_EDGE if e else INTERIOR for e in edge]
    radius = draw(st.floats(min_value=0.0, max_value=1.5)) * scale
    return intervals, flags, radius


@given(random_family())
@settings(max_examples=200, deadline=None)
def test_columnar_sums_match_plain_loop_bit_for_bit(data):
    intervals, flags, radius = data
    fam = IntervalFamily(intervals, flags)
    # the views round-trip through the validating constructor
    assert fam.intervals == intervals
    assert fam.flags == flags
    back = IntervalFamily(fam.intervals, fam.flags)
    assert np.array_equal(back.left, fam.left) and np.array_equal(back.right, fam.right)
    assert np.array_equal(back.edge, fam.edge)
    # interior and edge parts partition the family
    interior = [iv for iv, f in zip(intervals, flags) if f == INTERIOR]
    edge = [iv for iv, f in zip(intervals, flags) if f == TOUCHES_WINDOW_EDGE]
    assert fam.interior_part().intervals == interior
    assert fam.interior_part().flags == [INTERIOR] * len(interior)
    assert len(interior) + int(fam.edge.sum()) == len(fam)
    # exact equality: a pairwise or reordered sum moves the last bits
    inside = [iv for iv in intervals if iv.left >= -radius and iv.right <= radius]
    assert shortness_partial_sum(fam, radius) == plain_mass(inside)
    assert shortness_partial_sum(fam, np.inf) == plain_mass(intervals)
    assert fam.edge_mass() == plain_mass(edge)
    # term by term too, where no rounding of the sum hides a changed weight
    for iv in intervals:
        assert shortness_partial_sum(IntervalFamily([iv]), np.inf) == plain_mass([iv])


def test_classify_unit_intervals_short():
    def fam_at(r):
        n_max = int(r) - 1
        return IntervalFamily(
            [Interval(float(n), float(n + 1)) for n in range(1, max(n_max, 2))],
            [INTERIOR] * max(n_max - 1, 1),
        )

    report = classify_short_long(fam_at, [100.0, 400.0, 1600.0, 6400.0, 25600.0])
    assert report.verdict == SHORT
    assert report.partial_sums[-1] < 2.0


def test_classify_dyadic_long():
    def fam_at(r):
        ks = [k for k in range(1, 40) if 2 ** (k + 1) <= r]
        return IntervalFamily(
            [Interval(float(2**k), float(2 ** (k + 1))) for k in ks],
            [INTERIOR] * len(ks),
        )

    radii = [float(2**k) for k in range(4, 21)]
    report = classify_short_long(fam_at, radii)
    assert report.verdict == LONG
    assert report.growth_fit.model == "LogGrowth"
    assert report.growth_fit.r_squared > 0.99


def test_classify_empty_family_short_flagged():
    def fam_at(_r):
        return IntervalFamily([], [])

    report = classify_short_long(fam_at, [1.0, 2.0, 4.0, 8.0])
    assert report.verdict == SHORT
    assert report.degenerate


def test_classify_needs_four_radii():
    def fam_at(_r):
        return IntervalFamily([], [])

    with pytest.raises(ValueError):
        classify_short_long(fam_at, [1.0, 2.0, 4.0])


def test_classify_power_growth_is_other_model():
    # single interval [0, r]: partial sum ~ r^2, a power law
    def fam_at(r):
        return IntervalFamily([Interval(0.0, float(r))], [INTERIOR])

    radii = [float(4**k) for k in range(1, 9)]
    report = classify_short_long(fam_at, radii)
    assert report.verdict == LONG
    assert report.growth_fit.model == "Other"


# ---------------------------------------------------------------- bm_family


def test_bm_decreasing_is_empty():
    fam = bm_family(line(-1.0), (-10.0, 10.0))
    assert len(fam.intervals) == 0


def test_bm_increasing_is_whole_window():
    fam = bm_family(line(1.0), (-10.0, 10.0))
    assert len(fam.intervals) == 1
    iv = fam.intervals[0]
    assert iv.left == pytest.approx(-10.0)
    assert iv.right == pytest.approx(10.0)
    assert fam.flags[0] == TOUCHES_WINDOW_EDGE


def test_bm_documented_zigzag_matches_oracle():
    gamma = PiecewiseLinear(
        np.array([-2.0, 0.0, 1.0, 3.0]),
        np.array([2.0, -2.0, 1.0, -5.0]),
        left_slope=-1.0,
        right_slope=-1.0,
    )
    window = (-10.0, 10.0)
    fam = bm_family(gamma, window)
    oracle = grid_oracle(gamma, window)
    assert len(fam.intervals) == len(oracle)
    for iv, (lo, hi) in zip(fam.intervals, oracle):
        assert iv.left == pytest.approx(lo, abs=2e-3)
        assert iv.right == pytest.approx(hi, abs=2e-3)


def test_bm_plateau_excluded():
    # gamma rises to 0 and stays flat: the plateau ties the suffix max
    gamma = PiecewiseLinear(
        np.array([-1.0, 0.0, 5.0]),
        np.array([-1.0, 0.0, 0.0]),
        left_slope=1.0,
        right_slope=0.0,
    )
    fam = bm_family(gamma, (-1.0, 5.0))
    # only the rising part is strictly below the suffix max
    assert len(fam.intervals) == 1
    assert fam.intervals[0].right == pytest.approx(0.0, abs=1e-12)


def test_bm_interior_samples_below_suffix_max():
    gamma = PiecewiseLinear(
        np.array([-5.0, -1.0, 0.0, 2.0, 6.0]),
        np.array([3.0, -1.0, 2.0, -3.0, 1.0]),
        left_slope=-2.0,
        right_slope=-0.5,
    )
    window = (-12.0, 12.0)
    fam = bm_family(gamma, window)
    step = 1e-3
    xs = np.arange(window[0], window[1] + step / 2, step)
    ys = gamma(xs)
    suffix = np.maximum.accumulate(ys[::-1])[::-1]
    covered = np.zeros_like(xs, dtype=bool)
    for iv in fam.intervals:
        inside = (xs > iv.left + step) & (xs < iv.right - step)
        covered |= (xs >= iv.left - step) & (xs <= iv.right + step)
        assert np.all(ys[inside] < suffix[inside])
    outside = ~covered
    tol = 1e-9 * (1.0 + np.abs(ys[outside]))
    assert np.all(ys[outside] >= suffix[outside] - tol)


@st.composite
def random_pwl(draw):
    k = draw(st.integers(min_value=2, max_value=12))
    xs = sorted(
        draw(
            st.lists(
                st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    if min(b - a for a, b in zip(xs, xs[1:])) < 0.05:
        return None
    ys = draw(
        st.lists(
            st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    slopes = draw(
        st.tuples(
            st.floats(min_value=-3.0, max_value=3.0),
            st.floats(min_value=-3.0, max_value=3.0),
        )
    )
    # snap values to a 1e-3 lattice: sub-tolerance slopes and near-tie peak
    # heights probe the tie convention, not oracle agreement
    ys = [round(v, 3) for v in ys]
    slopes = tuple(round(s, 3) for s in slopes)
    return PiecewiseLinear(np.array(xs), np.array(ys, dtype=float), *slopes)


@given(random_pwl())
@settings(max_examples=50, deadline=None)
def test_bm_matches_grid_oracle(gamma):
    if gamma is None:
        return
    window = (-10.0, 10.0)
    step = 1e-3
    fam = bm_family(gamma, window)
    # a 1e-3 grid cannot resolve components or separations narrower than
    # a couple of steps (e.g. two components touching in a single point);
    # agreement is only claimed at grid resolution
    for iv in fam.intervals:
        if iv.length < 2 * step:
            return
    for a, b in zip(fam.intervals, fam.intervals[1:]):
        if b.left - a.right < 2 * step:
            return
    oracle = grid_oracle(gamma, window, step)
    assert len(fam.intervals) == len(oracle)
    for iv, (lo, hi) in zip(fam.intervals, oracle):
        assert abs(iv.left - lo) <= 2e-3
        assert abs(iv.right - hi) <= 2e-3


def test_bm_disjoint_output():
    gamma = PiecewiseLinear(
        np.array([-3.0, -1.0, 0.0, 1.0, 3.0]),
        np.array([1.0, -1.0, 0.5, -0.5, 2.0]),
        left_slope=-1.0,
        right_slope=-1.0,
    )
    fam = bm_family(gamma, (-6.0, 6.0))
    for a, b in zip(fam.intervals, fam.intervals[1:]):
        assert a.right <= b.left


# ------------------------------------------------------- is_almost_decreasing


RADII = [25.0, 50.0, 100.0, 200.0, 400.0]


def test_decreasing_line_yes():
    verdict, report = is_almost_decreasing(line(-1.0), RADII)
    assert verdict == YES
    assert report.verdict == SHORT


def test_half_slope_line_no():
    verdict, report = is_almost_decreasing(line(0.5), RADII)
    assert verdict == NO
    assert report.boundary_dominated


def test_squares_gamma_no():
    # a = 0.5 far exceeds the vanishing density of the squares: gamma is
    # eventually increasing, the BM set swallows the window as one
    # edge-flagged component whose mass explodes with the radius
    seq = generate(SymmetricSquares(-700, 700))
    gamma = gamma_line(seq, 0.5)
    radii = [1000.0, 4000.0, 16000.0, 64000.0, 256000.0, 490000.0]
    verdict, report = is_almost_decreasing(gamma, radii)
    assert verdict == NO
    assert report.verdict == LONG or report.boundary_dominated


def test_unit_lattice_gamma_yes():
    from bmlab import Lattice

    seq = generate(Lattice(1.0, -500, 500))
    gamma = gamma_line(seq, 0.9)
    verdict, _ = is_almost_decreasing(gamma, RADII)
    assert verdict == YES


def test_flat_gamma_inconclusive_is_allowed():
    # gamma == 0: BM set empty at every radius -> degenerate -> Short -> Yes
    verdict, report = is_almost_decreasing(line(0.0), RADII)
    assert verdict in (YES, INCONCLUSIVE)
    assert report.degenerate


def test_ladders_refuse_values_outside_their_range():
    def fam_at(_r):
        return IntervalFamily([], [])

    for radii in (
        [1.0, 2.0, 4.0, np.inf],
        [np.nan, 1.0, 2.0, 4.0],
        [1e-320, 1.0, 2.0, 4.0],
        [1.0, 2.0, 4.0, 1e60],
    ):
        with pytest.raises(BadArgument):
            classify_short_long(fam_at, radii)
    # the top end is inclusive: a ladder may reach the largest family-file endpoint
    assert classify_short_long(fam_at, [1e47, 1e48, 1e49, 1e50]).radii[-1] == 1e50

