import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bmlab import density, sequences
from bmlab.density import default_radius_ladder, interior_density
from bmlab.envelope import (
    ENDPOINT_BOUND,
    INCONCLUSIVE,
    INTERIOR,
    LONG,
    NO,
    SHORT,
    TOUCHES_WINDOW_EDGE,
    YES,
    IntervalFamily,
    bm_family,
    classify_short_long,
    family_from_csv,
    family_to_csv,
    is_almost_decreasing,
    shortness_partial_sum,
)
from bmlab.errors import BadArgument, BadDataFile, BmLabError
from bmlab.sequences import PiecewiseLinear, gamma_line, load_sequence, parse_generator


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


def family(pairs, edge=None):
    """The family of sorted disjoint (left, right) pairs; Interior unless
    ``edge`` flags them."""
    return IntervalFamily(
        np.array([p[0] for p in pairs], dtype=float),
        np.array([p[1] for p in pairs], dtype=float),
        np.zeros(len(pairs), dtype=bool) if edge is None else np.array(edge, dtype=bool),
    )


def pairs_of(fam):
    """The family's intervals as (left, right) pairs."""
    return list(zip(fam.left.tolist(), fam.right.tolist()))


# ---------------------------------------------------------------- families


def test_family_csv_round_trip(tmp_path):
    fam = family([(-3.5, -1.25), (0.0, 2.0)], [True, False])
    path = tmp_path / "fam.csv"
    family_to_csv(fam, path)
    back = family_from_csv(path)
    assert pairs_of(back) == [(-3.5, -1.25), (0.0, 2.0)]
    assert back.flags.tolist() == [TOUCHES_WINDOW_EDGE, INTERIOR]


def test_family_csv_bytes_are_pinned_and_read_back_bit_exact(tmp_path):
    fam = family([(-1e50, -3.5), (-0.0, 5e-324), (1.0, 1e50)], [True, False, True])
    path = tmp_path / "fam.csv"
    family_to_csv(fam, path)
    assert path.read_bytes() == (
        b"left,right,flag\n"
        b"-1e+50,-3.5,TouchesWindowEdge\n"
        b"-0.0,5e-324,Interior\n"
        b"1.0,1e+50,TouchesWindowEdge\n"
    )
    back = family_from_csv(path)
    for got, want in ((back.left, fam.left), (back.right, fam.right)):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()  # -0.0 is not 0.0 here
    assert back.edge.tolist() == [True, False, True]


def test_family_csv_plain_two_columns(tmp_path):
    # the documented external format is bare `left,right` lines
    path = tmp_path / "fam.csv"
    path.write_text("1.0,2.0\n4.0,8.0\n")
    fam = family_from_csv(path)
    assert len(fam) == 2
    assert fam.flags.tolist() == [INTERIOR, INTERIOR]


def test_family_csv_bad_line(tmp_path):
    path = tmp_path / "fam.csv"
    path.write_text("left,right\n1.0,2.0\nx,y\n")
    with pytest.raises(BadDataFile, match="fam.csv:3"):
        family_from_csv(path)


@pytest.mark.parametrize(
    "text, line",
    [
        ("1.0,x2.0\n4,5\n8,9\n", 1),  # a first row that is data, not a header
        ("1\n4,5\n8,9\n", 1),
        ("left,right\n1,2,Interior,x\n4,5\n", 2),  # four cells
        ("1,2\n4,5,TouchesWindowEdge,\n", 2),
    ],
)
def test_family_csv_malformed_rows_are_refused_at_their_line(tmp_path, text, line):
    path = tmp_path / "fam.csv"
    path.write_text(text)
    with pytest.raises(BadDataFile) as info:
        family_from_csv(path)
    assert str(info.value) == f"{path}:{line}: expected left,right[,flag]"


@pytest.mark.parametrize("header", ["left,right", "left,right,flag", "x,y", "# note\nleft"])
def test_family_csv_header_is_a_first_line_whose_first_cell_is_not_a_number(tmp_path, header):
    path = tmp_path / "fam.csv"
    path.write_text(header + "\n1,2\n4,8,TouchesWindowEdge\n")
    fam = family_from_csv(path)
    assert pairs_of(fam) == [(1.0, 2.0), (4.0, 8.0)]
    assert fam.edge.tolist() == [False, True]


def reference_family_read(path):
    """The row reader family_from_csv had, kept as the reference: it reads
    every row, then checks the flags and the disjointness of the sorted rows.
    The first data line is a header only when its first cell is not a
    number, and a row has two or three cells."""
    rows = []
    first_data_line = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if first_data_line:
                first_data_line = False
                try:
                    float(parts[0])
                except ValueError:
                    continue  # header line
            try:
                if len(parts) > 3:
                    raise ValueError("more than three cells")
                left, right = float(parts[0]), float(parts[1])
            except (ValueError, IndexError):
                raise BadDataFile(f"{path}:{lineno}: expected left,right[,flag]") from None
            if not (abs(left) <= ENDPOINT_BOUND and abs(right) <= ENDPOINT_BOUND):
                raise BadDataFile(
                    f"{path}:{lineno}: endpoints must be finite and at most {ENDPOINT_BOUND:g} in magnitude"
                )
            if not left < right:
                raise BadDataFile(f"{path}:{lineno}: interval needs left < right, got [{left}, {right}]")
            rows.append((left, right, parts[2] if len(parts) > 2 and parts[2] else INTERIOR))
    rows.sort(key=lambda row: row[0])
    for _, _, flag in rows:
        if flag not in (INTERIOR, TOUCHES_WINDOW_EDGE):
            raise BadDataFile(f"{path}: unknown boundary flag {flag!r}")
    for (_, right, _), (left, _, _) in zip(rows, rows[1:]):
        if right > left:
            raise BadDataFile(f"{path}: intervals must be sorted and disjoint")
    return family([row[:2] for row in rows], [row[2] == TOUCHES_WINDOW_EDGE for row in rows])


def _family_outcome(read):
    """Column bits of a read, or the type and text of what it raised."""
    try:
        family = read()
    except (BmLabError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return family.left.tobytes(), family.right.tobytes(), family.edge.tobytes()


# mostly left < right, on a range wide enough for disjoint families
PAIRS = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(1, 4)).map(lambda p: f"{p[0]},{p[0] + p[1]}"),
    st.tuples(st.floats(-60, 60), st.floats(0.01, 4)).map(lambda p: f"{p[0]!r},{p[0] + p[1]!r}"),
)
ROWS = st.one_of(
    PAIRS,
    PAIRS,
    st.tuples(
        PAIRS,
        st.sampled_from(["Interior", "TouchesWindowEdge", "", " TouchesWindowEdge ", "Bogus", "interior"]),
    ).map(",".join),
    st.sampled_from(
        [
            "left,right,flag", "a,b", "# note", "#", "", "   ", " 1 , 2 ", "3,4,Interior,extra", "x,y", "1", "1;2",
            "nan,1", "1,inf", "-1e60,1", "1e50,1e51", "-1e50,1e50", "5,5", "6,5", "1.5,-2.25", "1_0,2_0", "١,٢",
            "7\x0c,8",
        ]
    ),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(ROWS, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12))
def test_family_reader_equals_the_row_reader(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("family") / "fam.csv"
    # the file's lines as a text file iterates them: a row ending "\r" and an
    # empty row ending "\n" make one line ending "\r\n"
    lines = io.StringIO("".join(row + end for row, end in rows), newline="").readlines()
    path.write_text("".join(lines), encoding="utf-8", newline="")
    got = _family_outcome(lambda: family_from_csv(path))
    # an unknown flag is now refused at its row, before any later row's fault:
    # the old reader refused it, without a line, once the whole file was read
    unknown = f"{path}: unknown boundary flag "
    for k in range(1, len(lines) + 1):
        path.write_text("".join(lines[:k]), encoding="utf-8", newline="")
        old = _family_outcome(lambda: reference_family_read(path))
        if isinstance(old[1], str) and old[1].startswith(unknown):
            want = old[0], old[1].replace(f"{path}:", f"{path}:{k}:", 1)
            break
    else:
        want = _family_outcome(lambda: reference_family_read(path))
    assert got == want


@pytest.mark.parametrize(
    "data, fault",
    [
        (b"1,2\n\xff3,4\n", "2: not UTF-8 text"),
        (b"# caf\xe9\n1,2\n", "1: not UTF-8 text"),
        (b"left,right\n1,2,Bogus\n\xff\n", "2: unknown boundary flag 'Bogus'"),
        (b"1,2\n3,x\n5,6,\xff\n", "2: expected left,right[,flag]"),
    ],
)
def test_family_reader_reports_faults_in_file_order(tmp_path, data, fault):
    path = tmp_path / "fam.csv"
    path.write_bytes(data)
    with pytest.raises(BadDataFile) as info:
        family_from_csv(path)
    assert str(info.value) == f"{path}:{fault}"


def test_family_reader_memory_is_two_columns(tmp_path):
    # 100k rows: the columns hold 17 bytes a row; an object and a tuple per row held 31 MB
    path = tmp_path / "fam.csv"
    rng = np.random.default_rng(3)
    left = np.cumsum(rng.uniform(1.0, 2.0, 100_000))
    order = rng.permutation(left.size)
    flags = ["TouchesWindowEdge" if k % 7 == 0 else "Interior" for k in range(left.size)]
    rows = (f"{a!r},{a + 0.5!r},{flags[k]}\n" for k, a in zip(order.tolist(), left[order].tolist()))
    path.write_text("left,right,flag\n" + "".join(rows))
    tracemalloc.start()
    try:
        family = family_from_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert family.left.tobytes() == left.tobytes() and family.right.tobytes() == (left + 0.5).tobytes()
    assert family.edge.tolist() == [flag == "TouchesWindowEdge" for flag in flags]


# ---------------------------------------------------------------- shortness


def test_partial_sum_unit_intervals_bounded():
    fam = family([(float(n), float(n + 1)) for n in range(1, 200)])
    total = shortness_partial_sum(fam, 1e9)
    assert total < np.pi**2 / 6


def test_partial_sum_dyadic_grows_linearly():
    fam = family([(float(2**k), float(2 ** (k + 1))) for k in range(1, 21)])
    sums = [shortness_partial_sum(fam, float(2 ** (k + 1))) for k in range(1, 21)]
    increments = np.diff(sums)
    # ~ 4^k/(1+4^k) per generation, approaching 1 from below
    assert np.all(increments[3:] > 0.9)
    assert np.all(increments < 1.0)


def test_partial_sum_single_interval_at_origin():
    fam = family([(0.0, 1.0)])
    assert shortness_partial_sum(fam, 2.0) == pytest.approx(1.0)


def test_partial_sum_monotone_and_additive():
    left = family([(-9.0, -7.0), (-4.0, -3.0)])
    right = family([(1.0, 2.0), (5.0, 8.0)])
    both = family(pairs_of(left) + pairs_of(right))
    for r in (2.0, 5.0, 10.0):
        assert shortness_partial_sum(both, r) == pytest.approx(
            shortness_partial_sum(left, r) + shortness_partial_sum(right, r)
        )
    sums = [shortness_partial_sum(both, r) for r in (1.0, 3.0, 6.0, 9.0, 20.0)]
    assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))


def plain_mass(pairs):
    """Reference sum of |I|^2 / (1 + dist(I,0)^2), one interval at a time:
    dist(I,0) is 0 when I holds 0, else the distance of its near end."""
    total = 0.0
    for left, right in pairs:
        d = 0.0 if left <= 0.0 <= right else min(abs(left), abs(right))
        total += (right - left) ** 2 / (1.0 + d * d)
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
    edge = (rng.random(k) < draw(st.floats(min_value=0.0, max_value=1.0))).tolist()
    radius = draw(st.floats(min_value=0.0, max_value=1.5)) * scale
    return list(zip(lefts, rights)), edge, radius


@given(random_family())
@settings(max_examples=200, deadline=None)
def test_columnar_sums_match_plain_loop_bit_for_bit(data):
    pairs, edge, radius = data
    fam = family(pairs, edge)
    assert fam.flags.tolist() == [TOUCHES_WINDOW_EDGE if e else INTERIOR for e in edge]
    # exact equality: a pairwise or reordered sum moves the last bits
    inside = [(a, b) for a, b in pairs if a >= -radius and b <= radius]
    assert shortness_partial_sum(fam, radius) == plain_mass(inside)
    assert shortness_partial_sum(fam, np.inf) == plain_mass(pairs)
    # at radii on the outer endpoints an interval touches [-r, r] and is contained
    for r in {abs(x) for iv in pairs[:4] + pairs[-4:] for x in iv}:
        assert shortness_partial_sum(fam, r) == plain_mass([(a, b) for a, b in pairs if a >= -r and b <= r])
    # term by term too, where no rounding of the sum hides a changed weight
    for iv in pairs:
        assert shortness_partial_sum(family([iv]), np.inf) == plain_mass([iv])


def test_classify_unit_intervals_short():
    # the unit intervals [n, n+1] that end below r, a family that grows with the radius
    radii = [100.0, 400.0, 1600.0, 6400.0, 25600.0]
    sums = [shortness_partial_sum(family([(float(n), float(n + 1)) for n in range(1, int(r) - 1)]), r) for r in radii]
    report = classify_short_long(radii, sums, degenerate=False)
    assert report.verdict == SHORT
    assert report.partial_sums[-1] < 2.0


def test_classify_dyadic_long():
    fam = family([(float(2**k), float(2 ** (k + 1))) for k in range(1, 40)])
    radii = [float(2**k) for k in range(4, 21)]
    report = classify_short_long(radii, [shortness_partial_sum(fam, r) for r in radii], degenerate=False)
    assert report.verdict == LONG
    assert report.model == "LogGrowth"
    assert report.r_squared > 0.99


def test_classify_empty_family_short_flagged():
    report = classify_short_long([1.0, 2.0, 4.0, 8.0], [0.0] * 4, degenerate=True)
    assert report.verdict == SHORT
    assert report.degenerate
    # the same zero sums from a family that is not empty are a plain Short
    report = classify_short_long([1.0, 2.0, 4.0, 8.0], [0.0] * 4, degenerate=False)
    assert report.verdict == SHORT and not report.degenerate


def test_classify_needs_four_radii():
    with pytest.raises(ValueError):
        classify_short_long([1.0, 2.0, 4.0], [0.0] * 3, degenerate=True)


def test_classify_power_growth_is_other_model():
    # single interval [0, r]: partial sum ~ r^2, a power law
    radii = [float(4**k) for k in range(1, 9)]
    sums = [shortness_partial_sum(family([(0.0, r)]), r) for r in radii]
    report = classify_short_long(radii, sums, degenerate=False)
    assert report.verdict == LONG
    assert report.model == "Other"


@pytest.mark.parametrize(
    "sum_at",
    [lambda r: 0.05 * math.log(r) + 1.0, lambda r: r**0.3, lambda r: 2e12],
    ids=["log-slope-below-min", "power-slope-below-min", "flat-above-sum-cap"],
)
def test_sums_just_outside_a_decision_constant_are_inconclusive(sum_at):
    # clean fits, r^2 = 1: Long but for LOG_SLOPE_MIN and POWER_SLOPE_MIN,
    # Short but for SUM_CAP
    radii = [1024.0 / 2 ** (7 - j) for j in range(8)]
    assert classify_short_long(radii, [sum_at(r) for r in radii], degenerate=False).verdict == INCONCLUSIVE


# ---------------------------------------------------------------- bm_family


def test_bm_decreasing_is_empty():
    fam = bm_family(line(-1.0), (-10.0, 10.0))
    assert len(fam) == 0


def test_bm_increasing_is_whole_window():
    fam = bm_family(line(1.0), (-10.0, 10.0))
    assert len(fam) == 1
    assert fam.left[0] == pytest.approx(-10.0)
    assert fam.right[0] == pytest.approx(10.0)
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
    assert len(fam) == len(oracle)
    for (left, right), (lo, hi) in zip(pairs_of(fam), oracle):
        assert left == pytest.approx(lo, abs=2e-3)
        assert right == pytest.approx(hi, abs=2e-3)


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
    assert len(fam) == 1
    assert fam.right[0] == pytest.approx(0.0, abs=1e-12)


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
    for left, right in pairs_of(fam):
        inside = (xs > left + step) & (xs < right - step)
        covered |= (xs >= left - step) & (xs <= right + step)
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
    if np.any(fam.right - fam.left < 2 * step) or np.any(fam.left[1:] - fam.right[:-1] < 2 * step):
        return
    oracle = grid_oracle(gamma, window, step)
    assert len(fam) == len(oracle)
    for (left, right), (lo, hi) in zip(pairs_of(fam), oracle):
        assert abs(left - lo) <= 2e-3
        assert abs(right - hi) <= 2e-3


def test_bm_disjoint_output():
    gamma = PiecewiseLinear(
        np.array([-3.0, -1.0, 0.0, 1.0, 3.0]),
        np.array([1.0, -1.0, 0.5, -0.5, 2.0]),
        left_slope=-1.0,
        right_slope=-1.0,
    )
    fam = bm_family(gamma, (-6.0, 6.0))
    assert np.all(fam.right[:-1] <= fam.left[1:])


# ------------------------------------------------------- is_almost_decreasing


RADII = [25.0, 50.0, 100.0, 200.0, 400.0]


def test_decreasing_line_yes():
    verdict, report = is_almost_decreasing(line(-1.0), RADII)
    assert verdict == YES
    assert report.verdict == SHORT


def test_half_slope_line_no():
    verdict, report = is_almost_decreasing(line(0.5), RADII)
    assert verdict == NO
    assert report.degenerate  # no interior interval: one flagged component fills the window


def test_squares_gamma_no():
    # a = 0.5 far exceeds the vanishing density of the squares: gamma is
    # eventually increasing, the BM set swallows the window as one
    # edge-flagged component whose mass explodes with the radius.  Its
    # ordinates are not monotone and its interior family is Short, so the
    # No comes from the edge mass alone
    seq = parse_generator("squares", 490000.0)
    gamma = gamma_line(seq, 0.5)
    radii = [1000.0, 4000.0, 16000.0, 64000.0, 256000.0, 490000.0]
    verdict, report = is_almost_decreasing(gamma, radii)
    assert gamma.trend == 0 and report.verdict == SHORT
    assert verdict == NO


def test_window_sums_match_plain_loop_bit_for_bit(monkeypatch):
    # each rung's interior sum and edge mass are a plain loop over that
    # window's bm_family, split by the flag; the family lies in [-r, r],
    # so no containment test drops an interval
    from bmlab import envelope

    added = []
    plain_sum = envelope._sum
    monkeypatch.setattr(envelope, "_sum", lambda masses: added.append(plain_sum(masses)) or added[-1])
    points = np.array([k + 0.25 * (k % 3) for k in range(-400, 401)], dtype=float)
    seq = load_sequence(points, (-401.0, 401.0))
    radii = [25.0, 50.0, 100.0, 200.0, 400.0]
    for a in (0.7, 0.9, 1.0, 1.05, 1.3):
        gamma = gamma_line(seq, a)
        added.clear()
        _, report = is_almost_decreasing(gamma, radii)
        expected = []
        for r in radii:
            fam = bm_family(gamma, (-r, r))
            assert np.all(fam.left >= -r) and np.all(fam.right <= r)
            pairs = pairs_of(fam)
            expected.append(plain_mass([iv for iv, e in zip(pairs, fam.edge) if not e]))
            expected.append(plain_mass([iv for iv, e in zip(pairs, fam.edge) if e]))
        assert added == expected
        assert report.partial_sums == expected[::2]


def test_unit_lattice_gamma_yes():
    seq = parse_generator("lattice:1", 500.0)
    gamma = gamma_line(seq, 0.9)
    verdict, _ = is_almost_decreasing(gamma, RADII)
    assert verdict == YES


def test_flat_gamma_inconclusive_is_allowed():
    # gamma == 0: BM set empty at every radius -> degenerate -> Short -> Yes
    verdict, report = is_almost_decreasing(line(0.0), RADII)
    assert verdict in (YES, INCONCLUSIVE)
    assert report.degenerate


def test_ladders_refuse_values_outside_their_range():
    for radii in (
        [1.0, 2.0, 4.0, np.inf],
        [np.nan, 1.0, 2.0, 4.0],
        [1e-320, 1.0, 2.0, 4.0],
        [1.0, 2.0, 4.0, 1e60],
    ):
        with pytest.raises(BadArgument):
            classify_short_long(radii, [0.0] * 4, degenerate=True)
    # the top end is inclusive: a ladder may reach the largest family-file endpoint
    assert classify_short_long([1e47, 1e48, 1e49, 1e50], [0.0] * 4, degenerate=True).radii[-1] == 1e50



# ------------------------------------------- monotone gamma against the sweep


def sweep_reference(gamma, window):
    """BM(gamma) on the window by a plain suffix-max loop over the segments.

    Returns (left, right, edge) lists.  A segment is in the set whole when
    its left node lies below the maximum of the nodes right of it, from
    the crossing with that level when only its right node does; a piece
    joins the previous one unless it starts at a crossing.  Where node
    values tie, the level is the leftmost of them, as numpy's maximum
    keeps it; that fixes the sign of a zero level, which a crossing at a
    node -0.0 with value -0.0 carries into its left end.
    """
    xs, ys = (v.tolist() for v in gamma.grid_on(window))
    pieces = [None] * (len(xs) - 1)
    level = -math.inf
    for j in range(len(xs) - 2, -1, -1):
        if ys[j + 1] >= level:
            level = ys[j + 1]
        if ys[j] < level:
            pieces[j] = (xs[j], False)
        elif ys[j + 1] < level:
            t = (ys[j] - level) / (ys[j] - ys[j + 1])
            pieces[j] = (xs[j] + t * (xs[j + 1] - xs[j]), True)
    components = []
    for j, piece in enumerate(pieces):
        if piece is None:
            continue
        start, crossing = piece
        if components and j > 0 and pieces[j - 1] is not None and not crossing:
            components[-1][1] = xs[j + 1]
        else:
            components.append([start, xs[j + 1]])
    left = [c[0] for c in components]
    right = [c[1] for c in components]
    return left, right, [a == xs[0] or b == xs[-1] for a, b in components]


def _nudge(x, steps):
    """x moved by ``steps`` ulps."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return float(x)


def _same_family(fam, expected, window):
    """``fam`` equals the columns (left, right, edge), zero signs included."""
    left, right, edge = expected
    assert (fam.left.tolist(), fam.right.tolist(), fam.edge.tolist()) == (left, right, edge), window
    signs = [np.signbit(np.array(v, dtype=float)).tolist() for v in (left, right)]
    assert [np.signbit(fam.left).tolist(), np.signbit(fam.right).tolist()] == signs, window


@st.composite
def shaped_gamma(draw):
    """A gamma whose nodes increase strictly, stay flat, never increase,
    never fall, tie once, wander, come from gamma_line on a lattice at a
    slope a few ulps above 1/delta, where rounding makes neighbours tie,
    never increase before and after a wandering core, never increase but
    at one rising segment, or take values in {0.0, -0.0, 1, -1, 2}.  The
    first node may be -0.0.  Nodes that never fall may tie, hold zeros of
    both signs and have a flat head and tail; their edge slopes are 0 or
    positive, so a window past the nodes never falls either and may end
    on a tie."""
    shape = draw(
        st.sampled_from(
            ["increasing", "flat", "non-increasing", "never falls", "one tie", "random", "lattice", "core",
             "one rise", "zeros"]
        )
    )
    if shape == "lattice":
        step = draw(st.sampled_from([1.0, 0.5, 0.1, 0.3, 0.7, 2.5]))
        seq = load_sequence(np.arange(-draw(st.integers(2, 200)), draw(st.integers(2, 200)) + 1) * step)
        return gamma_line(seq, _nudge(1.0 / seq.delta, draw(st.integers(-1, 3))))
    k = draw(st.integers(2, 24))
    gaps = draw(st.lists(st.floats(0.01, 4.0), min_size=k - 1, max_size=k - 1))
    xs = np.cumsum([draw(st.one_of(st.just(-0.0), st.floats(-20.0, 20.0)))] + gaps)
    rises = np.array(draw(st.lists(st.floats(1e-9, 3.0), min_size=k - 1, max_size=k - 1)))
    y0 = draw(st.floats(-10.0, 10.0))
    if shape == "flat":
        ys = np.full(k, y0)
    elif shape in ("non-increasing", "one rise"):
        keep = np.array(draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1)))
        ys = y0 - np.concatenate(([0.0], np.cumsum(rises * keep)))
        if shape == "one rise":
            j = draw(st.integers(1, k - 1))
            ys[j:] += ys[j - 1] - ys[j] + draw(st.floats(1e-6, 30.0))
    elif shape == "random":
        ys = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)))
    elif shape == "core":
        ys = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k)))
        head = draw(st.integers(0, k))
        tail = draw(st.integers(0, k - head))
        ys[:head] = np.sort(ys[:head])[::-1]
        ys[k - tail :] = np.sort(ys[k - tail :])[::-1]
    elif shape == "zeros":
        ys = np.array(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), min_size=k, max_size=k)))
    elif shape == "never falls":
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]) | st.floats(-10.0, 10.0)
        ys = np.sort(draw(st.lists(values, min_size=k, max_size=k)))
        ys[: draw(st.integers(0, k))] = ys[0]
        ys[k - draw(st.integers(0, k)) :] = ys[-1]
        return PiecewiseLinear(xs, ys, *draw(st.tuples(*[st.sampled_from([0.0, 0.5, 2.0])] * 2)))
    else:
        ys = y0 + np.concatenate(([0.0], np.cumsum(rises)))
        if shape == "one tie":
            j = draw(st.integers(1, k - 1))
            ys[j] = ys[j - 1]
    slopes = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    return PiecewiseLinear(xs, ys, *slopes)


@st.composite
def windows_for(draw, gamma):
    """Nested symmetric windows, windows past the nodes, and windows whose
    ends lie on a node or within an ulp of one.  Among the last are
    windows ending next to a node at or below its left neighbour: there
    a node at the top may leave the set, and the end comparison decides."""
    xs, ys = gamma.x, gamma.y
    out = [(-r, r) for r in sorted(draw(st.lists(st.floats(0.5, 80.0), min_size=1, max_size=4)))]
    out.append((float(xs[0]) - 5.0, float(xs[-1]) + 5.0))
    ends = draw(st.lists(st.integers(0, xs.size - 1), max_size=3))
    not_rising = np.flatnonzero(ys[1:] <= ys[:-1])
    if not_rising.size:
        for k in draw(st.lists(st.sampled_from(not_rising.tolist()), max_size=6, unique=True)):
            ends += [q for q in (k, k + 1, k + 2) if q < xs.size]
    for q in ends:
        for d in (-1, 0, 1):
            hi = _nudge(xs[q], d)
            lo = draw(st.sampled_from([float(xs[0]) - 1.0, _nudge(xs[0], 1), -abs(hi) - 1.0]))
            if lo < hi:
                out.append((lo, hi))
    return out


def _equals_the_plain_sweep(gamma, windows):
    for window in windows:
        _same_family(bm_family(gamma, window), sweep_reference(gamma, window), window)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bm_family_equals_the_plain_sweep(data):
    gamma = data.draw(shaped_gamma())
    _equals_the_plain_sweep(gamma, data.draw(windows_for(gamma)))


@pytest.mark.parametrize(
    "step, m, ulps, window",
    [(0.7, 20, 2, (-15.0, 11.9)), (0.7, 20, 2, (-15.0, -10.499999999999998)), (0.3, 200, 3, (-61.0, 38.7))],
)
def test_slope_above_one_over_delta_does_not_decide(step, m, ulps, window):
    # a is a few ulps above 1/delta, so gamma_a increases in exact
    # arithmetic, but its computed ordinates dip below a node near the
    # window end: the family has two components, not the whole window
    seq = load_sequence(np.arange(-m, m + 1) * step)
    gamma = gamma_line(seq, _nudge(1.0 / seq.delta, ulps))
    fam = bm_family(gamma, window)
    assert gamma.trend == 0 and len(fam) == 2
    _same_family(fam, sweep_reference(gamma, window), window)


@pytest.mark.parametrize(
    "ys, right_slope, expected",
    [
        # nodes -0.0 tie the right end +0.0: the level is the leftmost, -0.0
        (
            [-0.0, -1.0, -0.0, -0.0, -1.0, -1.0],
            1.0,
            ([-1.0, 0.0, 4.5], [-0.0, 2.5, 6.5], [True, False, True]),
        ),
        # the tail after the last rise starts at +0.0 and ties -0.0 after it
        ([-0.0, -1.0, 0.0, -0.0, -1.0, -1.0], -1.0, ([-1.0, -0.0], [-0.0, 2.5], [True, False])),
        # the tail starts at -0.0 and ties +0.0 after it
        ([-0.0, -1.0, -0.0, 0.0, -1.0, -1.0], -1.0, ([-1.0, 0.0], [-0.0, 2.5], [True, False])),
    ],
)
def test_tied_zero_maxima_keep_the_leftmost_sign(ys, right_slope, expected):
    # a crossing at the node -0.0 of value -0.0 starts at -0.0 + t*dx with
    # t = (-0.0 - level)/1, so its sign shows which tied zero is the level
    gamma = PiecewiseLinear(np.array([-0.0, 0.5, 2.5, 4.5, 5.0, 5.5]), np.array(ys), 1.0, right_slope)
    window = (-1.0, 6.5)
    _same_family(bm_family(gamma, window), expected, window)
    _same_family(bm_family(gamma, window), sweep_reference(gamma, window), window)


def test_monotone_gamma_needs_no_sweep(monkeypatch):
    # a rising or falling gamma never takes suffix maxima; a swept one does
    def no_sweep(self, *args):
        raise AssertionError("swept a monotone gamma")

    seq = parse_generator("lattice:1", 50.0)
    rising, falling = gamma_line(seq, 2.0), gamma_line(seq, 0.5)
    assert (rising.trend, falling.trend) == (1, -1)
    with monkeypatch.context() as patch:
        patch.setattr(sequences.PiecewiseLinear, "suffix_max", no_sweep)
        for r in (0.5, 10.0, 30.5):
            fam = bm_family(rising, (-r, r))
            assert (fam.left.tolist(), fam.right.tolist(), fam.edge.tolist()) == ([-r], [r], [True])
            assert len(bm_family(falling, (-r, r))) == 0
        with pytest.raises(BadArgument):
            bm_family(rising, (0.0, math.inf))
    swept = gamma_line(parse_generator("squares", 64.0), 0.3)
    assert swept.trend == 0
    calls = []
    plain = sequences.PiecewiseLinear.suffix_max
    monkeypatch.setattr(sequences.PiecewiseLinear, "suffix_max", lambda *args: calls.append(args) or plain(*args))
    bm_family(swept, (-50.0, 50.0))
    assert len(calls) == 1


def test_gamma_at_one_over_delta_needs_no_sweep(monkeypatch):
    # at a = 1/delta each segment slope a - 1/gap is at least 0, and on these
    # sequences the computed ordinates never fall either, though they tie
    # (trend 0): each window's family is [lo, node after the last rise].
    # On squares the segments beside 0 are flat, so the windows that end
    # inside them end on a tie.
    def no_sweep(self, *args):
        raise AssertionError("swept a window that never falls")

    seqs = [parse_generator("logperturbed", 1e5), parse_generator("squares", 1e6), jittered_sequence()]
    monkeypatch.setattr(sequences.PiecewiseLinear, "suffix_max", no_sweep)
    for seq in seqs:
        gamma = gamma_line(seq, 1.0 / seq.delta)
        assert gamma.trend == 0 and not np.any(gamma.y[:-1] > gamma.y[1:])
        windows = [(-r, r) for r in default_radius_ladder(min(-seq.window[0], seq.window[1]))]
        for window in windows + [(-0.5, 9.0), (-9.0, 0.5)]:
            fam = bm_family(gamma, window)
            _same_family(fam, sweep_reference(gamma, window), window)
            assert fam.left.tolist() == [window[0]] and fam.edge.tolist() == [True]


def test_one_fall_anywhere_takes_the_sweep():
    # rising nodes with one deep fall: the nodes before it lie below the
    # last one before the fall, which no node after it reaches, so the
    # family splits there.  The falls sit at the first and the last inner
    # pair and at points inside the line, around nodes 1024 and 5120
    n = 6000
    x = np.arange(n, dtype=float)
    window = (-1.0, float(n))
    for p in (0, 1022, 1023, 1024, 5117, 5118, 5119, n - 2):
        y = x.copy()
        y[p + 1 :] -= 2.0 * n
        gamma = PiecewiseLinear(x, y, 1.0, 1.0)
        fam = bm_family(gamma, window)
        _same_family(fam, sweep_reference(gamma, window), p)
        assert len(fam) == 2 and fam.right[0] == x[p]


# ------------------------------------------- a jittered gamma against the loop


def jittered_sequence():
    """A fixed-seed 20,001-point lattice jittered by up to 0.3."""
    k = np.arange(-10000, 10001, dtype=float)
    return sequences.load_sequence(k + np.random.default_rng(20240).uniform(-0.3, 0.3, k.size))


def jittered_gamma():
    """gamma_1 of ``jittered_sequence``."""
    return gamma_line(jittered_sequence(), 1.0)


def jittered_windows(gamma):
    """The eight nested rungs of radius 1e4, off-centre windows, and windows
    ending exactly on a node, just past one, and near the first node."""
    x = gamma.x.tolist()
    out = [(-r, r) for r in default_radius_ladder(1e4)]
    out += [(-3000.5, 9000.0), (-9876.5, -123.25), (17.0, 4321.0), (x[0] - 1.0, x[-1] + 1.0)]
    for q in (1, 7, 4096, 12345):
        out += [(x[0] - 1.0, x[q]), (x[0] - 1.0, _nudge(x[q], 1)), (x[q - 1], x[-1] + 1.0), (x[q], x[q + 2])]
    out += [(x[0] - 1.0, x[2]), (x[1], x[5]), (_nudge(x[0], 1), _nudge(x[3], -1))]
    return out


def logperturbed_gamma():
    """gamma_0.9 of logperturbed at radius 1e5: its nodes rise only for
    |x| below about 2905, so each rung past that has a non-increasing head
    and tail around the same core."""
    return gamma_line(parse_generator("logperturbed", 1e5), 0.9)


def test_bm_family_on_many_blocks_equals_the_plain_sweep():
    gamma = jittered_gamma()
    assert gamma.trend == 0
    windows = jittered_windows(gamma)
    expected = [sweep_reference(gamma, w) for w in windows]
    assert sum(len(e[0]) for e in expected) > 100
    for window, family_expected in zip(windows, expected):
        _same_family(bm_family(gamma, window), family_expected, window)
    gamma = logperturbed_gamma()
    assert gamma.trend == 0
    _equals_the_plain_sweep(gamma, [(-r, r) for r in default_radius_ladder(1e5)])


def test_bm_family_accumulates_only_the_rising_core(monkeypatch):
    # over the ladder to 1e5 the suffix maxima read the nodes between the
    # first and the last rise, under a tenth of the windows' nodes; the
    # rungs 781.25 and 1562.5 lie inside the rising region, where the
    # ordinates never fall, and take no sweep
    gamma = logperturbed_gamma()
    reads, plain = [], sequences.PiecewiseLinear.suffix_max
    monkeypatch.setattr(
        sequences.PiecewiseLinear, "suffix_max", lambda self, i, j, *rest: reads.append(j - i) or plain(self, i, j, *rest)
    )
    window_nodes = 0
    for r in default_radius_ladder(1e5):
        *_, i, j = gamma.window_ends((-r, r))
        window_nodes += j - i
        bm_family(gamma, (-r, r))
    assert len(reads) == 6
    assert sum(reads) < 0.1 * window_nodes


# ----------------------------------------------- a gamma line in blocks against the eager one


def eager_gamma(seq, a):
    """gamma_line(seq, a) formed whole, as an explicit PiecewiseLinear."""
    counting = seq.counting
    return PiecewiseLinear(counting.x, a * counting.x - counting.y, a - counting.left_slope, a - counting.right_slope)


def _same_bytes(fam, other, window):
    assert [fam.left.tobytes(), fam.right.tobytes(), fam.edge.tobytes()] == [
        other.left.tobytes(),
        other.right.tobytes(),
        other.edge.tobytes(),
    ], window


def seam_windows(x, block, ends):
    """Windows that end on a block seam's node or one node either side of
    it, from the first node's left or to the last node's right, the
    ladder's windows, and a window between two seams."""
    out = [(-r, r) for r in default_radius_ladder(ends)]
    for seam in range(block, x.size - 1, block):
        for q in (seam - 1, seam, seam + 1):
            out += [(float(x[0]) - 0.5, float(x[q])), (float(x[q]), float(x[-1]) + 0.5)]
            out += [(_nudge(x[q], -1), _nudge(x[q], 1))]
    out.append((float(x[block - 1]), float(x[-block])))
    return out


def _block_slopes(seq):
    """Slopes at 1/delta and a few ulps off it, within the density, at
    1/(largest gap), 1 and at 0 and below."""
    base, widest = 1.0 / seq.delta, 1.0 / float(np.diff(seq.points).max())
    return [base, _nudge(base, 2), _nudge(base, -3), 0.9 * base, 0.5 * base, widest, 1.0, 0.0, -0.5]


def renewal_sequence(count, seed):
    gaps = 0.2 + np.random.default_rng(seed).exponential(1.0, count)
    return load_sequence(np.cumsum(gaps) - gaps.sum() / 2.0)


def test_a_gamma_line_in_blocks_gives_the_eager_families_bit_for_bit(monkeypatch):
    # blocks of 256 pairs put many seams in small sequences; the lazy line
    # answers windows in turn, so later ones see blocks earlier ones filled
    monkeypatch.setattr(sequences, "BLOCK", 256)
    seqs = [
        parse_generator("logperturbed", 1500.0),
        parse_generator("lattice:1", 700.0),
        parse_generator("squares", 4e5),
        renewal_sequence(1500, 7),
        load_sequence(np.arange(-700.0, 701.0) + np.random.default_rng(3).uniform(-0.3, 0.3, 1401)),
    ]
    for seq in seqs:
        ends = min(-seq.window[0], seq.window[1])
        windows = seam_windows(seq.points, 256, ends)
        for a in _block_slopes(seq):
            lazy, eager = gamma_line(seq, a), eager_gamma(seq, a)
            assert isinstance(lazy, sequences.GammaLine)
            for window in windows:
                _same_bytes(bm_family(lazy, window), bm_family(eager, window), (a, window))
            assert lazy.trend == eager.trend
            assert lazy.y.tobytes() == eager.y.tobytes() and all(lazy.filled)


def test_a_gamma_line_of_real_blocks_gives_the_eager_families_bit_for_bit():
    seq = parse_generator("logperturbed", 1e5)
    assert seq.block_gaps.shape[1] == 3
    windows = seam_windows(seq.points, sequences.BLOCK, 1e5)
    for a in (0.9, 1.0 / seq.delta, 0.5):
        lazy, eager = gamma_line(seq, a), eager_gamma(seq, a)
        for window in windows:
            _same_bytes(bm_family(lazy, window), bm_family(eager, window), (a, window))


def test_interior_density_reports_equal_those_on_eager_lines(monkeypatch):
    monkeypatch.setattr(sequences, "BLOCK", 512)
    seqs = (parse_generator("logperturbed", 3000.0), parse_generator("lattice:1", 2000.0), renewal_sequence(4000, 11))
    for seq in seqs:
        lazy = interior_density(seq)
        with monkeypatch.context() as patch:
            patch.setattr(density, "gamma_line", eager_gamma)
            eager = interior_density(seq)
        assert repr(lazy) == repr(eager)


def test_trials_above_the_density_of_a_lattice_fill_no_block(monkeypatch):
    # the gaps certify every block of the trials a >= 1.03 to rise; the
    # trial a = 1 ties every ordinate at 0, decides nothing and fills all
    made = []
    monkeypatch.setattr(density, "gamma_line", lambda seq, a: made.append(gamma_line(seq, a)) or made[-1])
    interior_density(parse_generator("lattice:1", 1e5))
    assert [g.a for g in made] == [1.0, 1.5, 1.25, 1.125, 1.0625, 1.03125]
    for gamma in made[1:]:
        assert gamma.certified == (1,) * 4 and not any(gamma.filled) and gamma.trend == 1
    assert made[0].certified == (0,) * 4 and all(made[0].filled)


def test_a_trend_0_trial_fills_only_the_blocks_of_its_rising_core():
    gamma = logperturbed_gamma()
    assert gamma.certified == (-1, 0, -1)
    is_almost_decreasing(gamma, default_radius_ladder(1e5))
    y = eager_gamma(parse_generator("logperturbed", 1e5), 0.9).y
    core = np.unique(np.flatnonzero(y[:-1] < y[1:]) // sequences.BLOCK)
    assert [b for b, f in enumerate(gamma.filled) if f] == core.tolist() == [1]


def test_the_block_accessors_answer_as_the_eager_line(monkeypatch):
    # ranges that start and end on a seam, next to one and inside a block,
    # on lines whose blocks rise, fall or are undecided; each query runs on
    # a fresh lazy line and on one that earlier queries filled.  The
    # lattice's last node starts a block of its own, and the two-sided
    # sequence switches from gaps 1 to gaps 3 on a seam, so at a = 0.5 its
    # blocks all fall, then all rise
    monkeypatch.setattr(sequences, "BLOCK", 64)
    two_sided = load_sequence(np.concatenate((np.arange(-640.0, 0.0), np.arange(0.0, 900.0, 3.0))))
    for seq in (
        parse_generator("logperturbed", 400.0),
        renewal_sequence(600, 5),
        parse_generator("lattice:1", 320.0),
        two_sided,
    ):
        n = len(seq)
        seams = (64, 128, (n - 2) // 64 * 64)
        marks = sorted({0, 1, 100, n - 2, n - 1} | {q for seam in seams for q in (seam - 1, seam, seam + 1)})
        for a in _block_slopes(seq):
            eager, used = eager_gamma(seq, a), gamma_line(seq, a)
            y = eager.y
            assert gamma_line(seq, a).trend == eager.trend
            for i in marks:
                for j in (q for q in marks if q >= i):
                    for lazy in (gamma_line(seq, a), used):
                        assert lazy.first_rise(i, j) == eager.first_rise(i, j), (a, i, j)
                        assert lazy.last_rise(i, j) == eager.last_rise(i, j), (a, i, j)
                        assert lazy.falls(i, j) == eager.falls(i, j), (a, i, j)
                        assert lazy.ordinates(i, j + 1).tobytes() == y[i : j + 1].tobytes()
                        run = y[i:j]
                        if not np.any(run[:-1] < run[1:]):  # ordinates that never increase
                            for level in (*run[:: max(1, run.size // 3)], 0.0, -math.inf):
                                assert lazy.count_at_least(i, j, level) == eager.count_at_least(i, j, level)
                assert gamma_line(seq, a).ordinate(i) == y[i]


def test_the_head_count_is_a_full_count_on_runs_that_never_increase(monkeypatch):
    # seeded runs that never increase, from empty ones to runs across the
    # seams of blocks of 64 pairs, on the eager line and on a GammaLine:
    # lattice:1 at a = 1 ties every node at 0, and at a = -0.5 its node 0 is
    # -0.0; the levels are nodes of the run, one ulp either side of them,
    # the node after it, +-0.0 and +-inf.  A count forms no block
    monkeypatch.setattr(sequences, "BLOCK", 64)
    rng = np.random.default_rng(40)
    seen = set()
    for seq, a in (
        (parse_generator("lattice:1", 320.0), 1.0),
        (parse_generator("lattice:1", 320.0), -0.5),
        (renewal_sequence(600, 5), 0.5),
        (parse_generator("logperturbed", 400.0), 0.9),
    ):
        eager, lazy = eager_gamma(seq, a), gamma_line(seq, a)
        assert isinstance(lazy, sequences.GammaLine)
        y = eager.y
        if np.any((y == 0.0) & np.signbit(y)):
            seen.add("-0.0")
        rises = np.flatnonzero(y[:-1] < y[1:])
        for _ in range(80):
            i = int(rng.integers(0, y.size + 1))
            after = rises[rises >= i]
            longest = int(after[0]) + 1 if after.size else y.size  # nodes i to longest-1 never increase
            j = longest if rng.random() < 0.3 else int(rng.integers(i, longest + 1))
            run = y[i:j]
            seen.add("empty" if i == j else "seam" if i // 64 != (j - 1) // 64 else "block")
            nodes = run[rng.integers(0, run.size, 3)] if run.size else run
            levels = [*nodes, *np.nextafter(nodes, math.inf), *np.nextafter(nodes, -math.inf)]
            levels += [0.0, -0.0, math.inf, -math.inf]
            if j < y.size:
                levels.append(y[j])
            for level in levels:
                expected = int(np.count_nonzero(run >= level))
                assert eager.count_at_least(i, j, level) == expected, (a, i, j, level)
                filled = bytes(lazy.filled)
                assert lazy.count_at_least(i, j, level) == expected, (a, i, j, level)
                assert bytes(lazy.filled) == filled
    assert seen == {"-0.0", "empty", "seam", "block"}


def test_a_head_count_on_a_gamma_line_forms_no_block():
    # the head of gamma_0.9 on logperturbed runs from block 0, certified to
    # fall, into the undecided block 1
    gamma = logperturbed_gamma()
    y = eager_gamma(parse_generator("logperturbed", 1e5), 0.9).y
    head = int(np.flatnonzero(y[:-1] < y[1:])[0]) + 1  # nodes 0 to head-1 never increase
    assert head > sequences.BLOCK
    for level in (y[0], y[sequences.BLOCK], y[head - 1], y[head], -math.inf):
        assert gamma.count_at_least(0, head, level) == np.count_nonzero(y[:head] >= level)
    assert not any(gamma.filled)
