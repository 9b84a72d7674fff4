import io
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bmlab import sequences
from bmlab._json import Table
from bmlab.errors import (
    BadArgument,
    BadDataFile,
    BmLabError,
    DuplicatePoint,
    EmptyRange,
    GapOverflow,
    NotSeparated,
    OutOfWindow,
    SinglePoint,
    SizeGuard,
)
from bmlab.sequences import (
    PiecewiseLinear,
    count_in,
    gamma_line,
    load_sequence,
    parse_generator,
    read_sequence_file,
    write_csv,
)
from conftest import logperturbed_points


# ---------------------------------------------------------------- sequences


def test_load_sorts_and_measures_gap():
    seq = load_sequence([3.0, 1.0, 0.0, 10.0])
    assert list(seq.points) == [0.0, 1.0, 3.0, 10.0]
    assert seq.delta == 1.0
    lo, hi = seq.window
    assert lo <= 0.0 and hi >= 10.0


def test_duplicate_points_hard_error():
    with pytest.raises(DuplicatePoint):
        load_sequence([0.0, 1.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "points, window, error",
    [
        ([0.0, math.inf], None, BadArgument),
        ([0.0, 5e-324], None, NotSeparated),
        ([0.0, 1.0, 1.0], None, DuplicatePoint),
        ([-0.0, 0.0], None, DuplicatePoint),
        ([0.0], (0.0, 0.0), BadArgument),
        ([-1.7e308, 1.7e308], None, GapOverflow),
    ],
    ids=["infinite", "subnormal-gap", "duplicate", "signed-zeros", "empty-window", "overflowing-gap"],
)
def test_separated_sequence_refuses_what_load_sequence_refuses(points, window, error):
    with pytest.raises(error):
        load_sequence(points, window)


def test_separated_sequence_computes_its_gap_and_counting_function_once():
    seq = load_sequence([-1.0, 0.5, 1.0, 3.0], window=(-2.0, 4.0))
    assert seq.delta == 0.5 and seq.window == (-2.0, 4.0)
    assert seq.counting is seq.counting
    assert gamma_line(seq, 1.0).x is seq.points


def test_min_delta_enforced():
    # the one minimum gap load_sequence keeps is the smallest normal double
    tiny = sys.float_info.min
    assert load_sequence([0.0, tiny, 1.0]).delta == tiny
    with pytest.raises(NotSeparated):
        load_sequence([0.0, np.nextafter(tiny, 0.0), 1.0])


def test_empty_input_rejected():
    with pytest.raises(EmptyRange):
        load_sequence([])


def test_points_of_a_wrong_shape_are_refused_with_the_shape():
    with pytest.raises(BadArgument, match=r"\(2, 2\)"):
        load_sequence(np.zeros((2, 2)))


def test_window_must_contain_points():
    with pytest.raises(OutOfWindow):
        load_sequence([0.0, 5.0], window=(-1.0, 1.0))


def test_singleton_has_infinite_delta():
    seq = load_sequence([2.0])
    assert math.isinf(seq.delta)


def test_file_round_trip(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# comment\n1.5\n-2.0\n\n0.25\n")
    seq = read_sequence_file(path)
    assert list(seq.points) == [-2.0, 0.25, 1.5]


def test_file_with_garbage_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot a number\n")
    with pytest.raises(BadDataFile, match="bad.txt:2"):
        read_sequence_file(path)


def test_file_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(BadDataFile):
        read_sequence_file(path)


# ---------------------------------------------------------------- generators


def _bits(points):
    """The float64 bit patterns of points: equal bits mean equal values and zero signs."""
    return np.asarray(points, dtype=float).view(np.int64).tolist()


def _expected_sequence(points, radius):
    """(bits, delta, window) of sorted points cut to |x| <= radius."""
    points = points[np.abs(points) <= radius]
    delta = float(np.diff(points).min()) if points.size > 1 else math.inf
    return _bits(points), delta, (-radius, radius)


def test_lattice_generate():
    # every multiple k*step within the radius, bit for bit
    for step, radius in [(0.5, 2.0), (1.0, 7.5), (0.1, 0.3), (0.1, 0.7), (0.3, 1.0), (1e-13, 1e-9), (0.7, 50.0)]:
        m = int(radius / step) + 2
        seq = parse_generator(f"lattice:{step!r}", radius)
        expected = _expected_sequence(np.arange(-m, m + 1) * step, radius)
        assert (_bits(seq.points), seq.delta, seq.window) == expected, (step, radius)
    assert parse_generator("lattice:0.5", 2.0).points.tolist() == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]


def test_squares_includes_zero_once():
    seq = parse_generator("squares", 9.0)
    assert list(seq.points) == [-9.0, -4.0, -1.0, 0.0, 1.0, 4.0, 9.0]


def test_logperturbed_points():
    # the points n + n/log(|n| + 2) within the radius, zero signs included,
    # their exact minimal gap and the window (-radius, radius); the last
    # radius is a point
    for radius in [1.5, 2.0, 50.0, 3326.18, 1e5, float(logperturbed_points(50)[-1])]:
        seq = parse_generator("logperturbed", radius)
        expected = _expected_sequence(logperturbed_points(math.floor(radius)), radius)
        assert (_bits(seq.points), seq.delta, seq.window) == expected, radius


def _around(radius):
    """A radius and its two neighbouring doubles."""
    return [np.nextafter(radius, 0.0), radius, np.nextafter(radius, math.inf)]


def _generator_cases():
    """(spec, radius, independently built points) with radii on a point and one ulp either side."""
    for step in (1.0, 0.1, 0.3, 0.7, 1e-13):
        for k in (3, 7, 50):
            for radius in _around(k * step):
                yield f"lattice:{step!r}", radius, np.array([n * step for n in range(-k - 2, k + 3)])
    yield "lattice:1e308", 1.5e308, np.array([-1e308, 0.0, 1e308])  # the index past the estimate overflows
    for m in (2, 5, 9, 10, 11, 17, 18, 100):  # but at 2 and 100, sqrt rounds the double below m^2 up to m
        for radius in _around(float(m * m)):
            yield "squares", radius, np.array([float(n * abs(n)) for n in range(-m - 1, m + 2)])
    for n in (1, 7, 50, 3326):
        for radius in _around(float(logperturbed_points(n)[-1])):
            yield "logperturbed", radius, logperturbed_points(n + 1)
    for radius in (1.0, 1.25, 1.5, float(np.nextafter(logperturbed_points(1)[-1], 0.0))):  # {0}: the first point is 1 + 1/ln 3
        yield "logperturbed", radius, logperturbed_points(1)


def test_generated_sequences_hold_the_rules_load_sequence_checks():
    # a generator's sequence is not checked again: it must be the one
    # load_sequence builds from the same points, cut to the radius by hand
    for spec, radius, points in _generator_cases():
        seq = parse_generator(spec, radius)
        checked = load_sequence(points[np.abs(points) <= radius], (-radius, radius))
        assert np.all(np.abs(seq.points) <= radius), (spec, radius)
        assert (_bits(seq.points), seq.delta, seq.window) == (
            _bits(checked.points),
            checked.delta,
            checked.window,
        ), (spec, radius)


@pytest.mark.parametrize("count", [32.0, math.inf, math.nan])
def test_odd_points_refuse_a_count_beyond_the_cap(monkeypatch, count):
    monkeypatch.setattr(sequences, "POINTS_CAP", 64)
    with pytest.raises(SizeGuard):
        sequences.odd_points(lambda k: k, count, (-1.0, 1.0))
    assert sequences.odd_points(lambda k: k, 31.5, (-31.5, 31.5)).tolist() == list(range(-31, 32))


def test_the_logperturbed_count_bounds_every_kept_index(monkeypatch):
    # odd_points forms the indices up to int(count) + 1: the term there
    # must lie past the radius, so the formed range holds every kept point;
    # the builder is replaced, so no point array is formed
    built = []
    monkeypatch.setattr(sequences, "odd_points", lambda term, count, window: built.append((term, count)) or np.zeros(1))
    rng = np.random.default_rng(38)
    for radius in np.exp(rng.uniform(0.0, math.log(4.4e6), 10_000)):
        parse_generator("logperturbed", float(radius))
        term, count = built.pop()
        assert term(np.array([int(count) + 1.0]))[0] > radius, radius


# ---------------------------------------------------------------- counting


def test_counting_unit_lattice_is_identity():
    seq = parse_generator("lattice:1", 10.0)
    n = seq.counting
    xs = np.linspace(-10.0, 10.0, 201)
    assert np.allclose(n(xs), xs, atol=1e-12)


def test_counting_anchored_at_zero():
    seq = load_sequence([3.0, 5.0, 11.0], window=(2.0, 12.0))
    n = seq.counting
    # 0 is outside the window: the anchor extrapolates the first segment
    assert n(0.0) == pytest.approx(0.0, abs=1e-12)


def test_counting_interpolation_example():
    seq = load_sequence([0.0, 1.0, 4.0, 9.0])
    n = seq.counting
    assert n(2.5) == pytest.approx(n(1.0) + 0.5)
    # unit increment between consecutive points
    assert n(4.0) - n(1.0) == pytest.approx(1.0)


def test_counting_single_point_rejected():
    with pytest.raises(SinglePoint):
        load_sequence([1.0]).counting


@given(
    st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=2,
        max_size=40,
        unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_counting_increments_are_unit(points):
    pts = sorted(points)
    if min(b - a for a, b in zip(pts, pts[1:])) < 1e-6:
        return
    seq = load_sequence(pts)
    n = seq.counting
    vals = n(np.asarray(pts))
    steps = np.diff(vals)
    assert np.allclose(steps, 1.0, atol=1e-9)
    # monotone nondecreasing over the whole window
    lo, hi = seq.window
    grid = np.linspace(lo, hi, 512)
    assert np.all(np.diff(n(grid)) >= -1e-12)
    # total increase over the points equals #points - 1
    assert vals[-1] - vals[0] == pytest.approx(len(pts) - 1)


@given(st.integers(min_value=2, max_value=60), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_lattice_counting_is_affine(k, step):
    seq = load_sequence(np.arange(-k, k + 1) * step)
    n = seq.counting
    xs = np.linspace(-k * step, k * step, 101)
    assert np.allclose(n(xs), xs / step, atol=1e-9 * (1 + k))


# ---------------------------------------------------------------- count_in


def test_count_in_lattice():
    seq = parse_generator("lattice:1", 10.0)
    assert count_in(seq, (0.5, 3.5)) == 3


def test_count_in_squares():
    seq = parse_generator("squares", 25.0)
    assert count_in(seq, (2.0, 8.0)) == 1


def test_count_in_degenerate_point():
    seq = load_sequence([0.0, 1.0, 4.0])
    assert count_in(seq, (4.0, 4.0)) == 1


def test_count_in_out_of_window():
    seq = load_sequence([0.0, 1.0], window=(-2.0, 2.0))
    with pytest.raises(OutOfWindow):
        count_in(seq, (0.0, 5.0))


@given(
    st.lists(
        st.integers(min_value=-60, max_value=60), min_size=2, max_size=30, unique=True
    ),
    st.floats(min_value=-65.0, max_value=35.0),
    st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=60, deadline=None)
def test_count_in_matches_brute_force(ns, left, width):
    pts = sorted(float(v) for v in ns)
    seq = load_sequence(pts, window=(-70.0, 70.0))
    right = left + width
    expect = sum(1 for p in pts if left <= p <= right)
    assert count_in(seq, (left, right)) == expect


def test_count_in_agrees_with_counting_function():
    seq = parse_generator("squares", 144.0)
    n = seq.counting
    pts = seq.points
    j, k = 3, 17
    assert count_in(seq, (pts[j], pts[k])) == k - j + 1
    assert n(pts[k]) - n(pts[j]) == pytest.approx(k - j)


# ---------------------------------------------------------------- gamma line


def test_gamma_line_values_at_breakpoints():
    seq = parse_generator("lattice:1", 10.0)
    g = gamma_line(seq, 0.75)
    n = seq.counting
    for x in (-10.0, -3.5, 0.0, 7.25, 10.0):
        assert g(x) == pytest.approx(0.75 * x - n(x), abs=1e-12)


def test_gamma_line_slopes():
    seq = load_sequence([0.0, 2.0, 3.0])
    g = gamma_line(seq, 1.0)
    # left extrapolation slope: a - 1/first gap = 1 - 0.5
    assert g.left_slope == pytest.approx(0.5)
    assert g.right_slope == pytest.approx(0.0)


# ---------------------------------------------------------------- pwl basics


def test_pwl_eval_and_extrapolation():
    f = PiecewiseLinear(
        np.array([0.0, 1.0]), np.array([0.0, 2.0]), left_slope=1.0, right_slope=-1.0
    )
    assert f(0.5) == pytest.approx(1.0)
    assert f(-2.0) == pytest.approx(-2.0)
    assert f(3.0) == pytest.approx(0.0)
    out = f(np.array([0.0, 2.0]))
    assert out.shape == (2,)


def test_pwl_grid_includes_breakpoints():
    f = PiecewiseLinear(
        np.array([-1.0, 0.5, 2.0]),
        np.array([0.0, 1.0, 0.0]),
        left_slope=0.0,
        right_slope=0.0,
    )
    xs, ys = f.grid_on((-3.0, 3.0))
    assert xs[0] == -3.0 and xs[-1] == 3.0
    assert {-1.0, 0.5, 2.0} <= set(xs.tolist())
    assert np.allclose(ys, f(xs))


PWL_MILD = PiecewiseLinear(np.array([-1.0, 0.0, 0.5, 2.0]), np.array([0.25, -0.0, 1.0, -3.0]), 0.7, -1.3)
PWL_AT_ZERO = PiecewiseLinear(np.array([0.0, 1.0, 3.0]), np.array([-0.0, 2.0, 1.5]), 1e10, -1e10)


@pytest.mark.parametrize(
    "f, window",
    [
        (PWL_MILD, (-0.5, 1.5)),     # inside
        (PWL_MILD, (-3.0, 1.0)),     # straddles the first node
        (PWL_MILD, (0.25, 7.5)),     # straddles the last node
        (PWL_MILD, (-9.0, 9.0)),     # holds every node
        (PWL_MILD, (-9.0, -2.0)),    # wholly left
        (PWL_MILD, (3.0, 11.0)),     # wholly right
        (PWL_MILD, (-1.0, 2.0)),     # ends on the outer nodes
        (PWL_MILD, (0.0, 0.5)),      # ends on inner nodes
        (PWL_MILD, (-0.0, 0.5)),
        (PWL_MILD, (-1e300, 1e300)),  # far but finite
        (PWL_AT_ZERO, (-0.0, 1.0)),  # -0 on the first node x = +0
        (PWL_AT_ZERO, (-5e-324, 3.0)),
        (PWL_AT_ZERO, (-1e-300, 3.0 + 1e-12)),
        (PWL_AT_ZERO, (-7.0, -2.0)),
    ],
)
def test_window_ends_are_the_function_at_the_ends_bit_for_bit(f, window):
    lo, hi, ends, i, j = f.window_ends(window)
    want = f(np.array([float(window[0]), float(window[1])]))
    assert (lo, hi) == window
    assert ends.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert f.x[i:j].tolist() == [v for v in f.x.tolist() if lo < v < hi]


@pytest.mark.parametrize(
    "f, window",
    [
        (PWL_AT_ZERO, (-1e300, 1.0)),   # the left line overflows to -inf
        (PWL_AT_ZERO, (0.5, 1e300)),    # the right line overflows to -inf
        (PWL_MILD, (0.0, 1.7e308)),     # the distance to the last node, times the slope
        (PWL_MILD, (-math.inf, 0.0)),
        (PWL_MILD, (0.0, math.nan)),
        (PWL_MILD, (1.0, 0.5)),
    ],
)
def test_window_ends_that_are_not_finite_are_refused(f, window):
    with np.errstate(over="ignore", invalid="ignore"):
        want = f(np.array(window, dtype=float))
    assert not (window[0] < window[1] and np.isfinite(want).all())
    with pytest.raises(BadArgument, match="finite values at both ends"):
        f.window_ends(window)


def test_sequence_preconditions_raise_bad_argument():
    seq = parse_generator("lattice:1", 5.0)
    f = seq.counting
    for window in ((1.0, 1.0), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(BadArgument):
            f.grid_on(window)
    for a in (math.nan, math.inf, 1e308):
        with pytest.raises(BadArgument):
            gamma_line(seq, a)


def test_subnormal_gap_is_not_separated():
    # the counting function divides by the edge gaps
    with pytest.raises(NotSeparated):
        load_sequence([0.0, 1e-320, 1.0])


# ---------------------------------------------------------------- gap certificate


def certificate_sequence(kind, rng, n):
    """About n points: a lattice of random step, logperturbed, a renewal
    sequence with gaps 0.2 + Exp(1) at a random scale, or a lattice
    jittered by up to 0.3 and scaled by 1e3."""
    k = np.arange(-(n // 2), n // 2 + 1, dtype=float)
    if kind == "logperturbed":
        return parse_generator("logperturbed", float(n // 2))
    if kind == "lattice":
        points = k * rng.uniform(0.01, 100.0)
    elif kind == "renewal":
        gaps = 0.2 + rng.exponential(1.0, k.size)
        points = (np.cumsum(gaps) - gaps.sum() / 2.0) * 10.0 ** rng.uniform(-3.0, 3.0)
    else:
        points = (k + rng.uniform(-0.3, 0.3, k.size)) * 1e3
    return load_sequence(points)


def _ulps_around(value, count):
    """The doubles within ``count`` ulps of ``value``, itself included."""
    below, above = [value], [value]
    for _ in range(count):
        below.append(float(np.nextafter(below[-1], -math.inf)))
        above.append(float(np.nextafter(above[-1], math.inf)))
    return below[:0:-1] + above


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["lattice", "logperturbed", "renewal", "jittered"]),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 7, 256, 1 << 16]),
)
def test_certified_blocks_rise_or_fall_in_every_computed_pair(kind, seed, block):
    # slopes within 40 ulps of 1/delta, of 1/(largest gap) and of 1/(a
    # random gap), where a*gap - 1 is at the rounding of the ordinates,
    # and slopes of 0 and below; blocks of one pair certify each pair
    # alone, and 1 << 16 holds the whole sequence in one block
    rng = np.random.default_rng(seed)
    with mock.patch.object(sequences, "BLOCK", block):
        seq = certificate_sequence(kind, rng, int(rng.integers(200, 3000)))
    x, c = seq.points, seq.counting.y
    gaps = np.diff(x)
    reach = max(-float(x[0]), float(x[-1]), 0.0)
    slopes = [0.0, -0.0, -1e-300, -1.0 / seq.delta]
    for gap in (seq.delta, float(gaps.max()), float(rng.choice(gaps))):
        slopes += _ulps_around(1.0 / gap, 40)
    y = np.multiply.outer(slopes, x) - c
    certified = np.array([sequences._certificate(seq, a, reach) for a in slopes])
    assert certified.shape == (len(slopes), -(-gaps.size // block))
    pairs = certified[:, np.arange(gaps.size) // block]
    assert np.all(y[:, :-1][pairs == 1] < y[:, 1:][pairs == 1])
    assert np.all(y[:, :-1][pairs == -1] > y[:, 1:][pairs == -1])
    assert np.all(certified[:4] == -1)  # a <= 0: every pair falls


def test_no_certificate_where_the_rounding_bound_is_not_small(monkeypatch):
    # at a reach near 1e308 the bound E = 16u(|a|X + C + 2) is far above 1/2
    monkeypatch.setattr(sequences, "BLOCK", 4)
    seq = load_sequence(np.arange(-20, 21) * 5e306)
    reach = 1e308
    assert sequences._certificate(seq, 1e-300, reach) == (1,) * 10  # |a|X = 1e8: E is small
    assert sequences._certificate(seq, 1e-310, reach) == (-1,) * 10
    for a in (1.0 / seq.delta, 1e-10, -1e-10):
        assert sequences._certificate(seq, a, reach) == (0,) * 10
    gamma = gamma_line(seq, 1e-10)
    assert gamma.certified == (0,) * 10 and gamma.trend == 1


# ---------------------------------------------------------------- file reading


def reference_read(path):
    """The line loop of the file reader, kept here as the reference.

    A byte that is not UTF-8 decodes to a surrogate in U+DC80..U+DCFF and
    is refused at its line, in file order with the other faults.
    """
    values = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            if any("\udc80" <= ch <= "\udcff" for ch in raw):
                raise BadDataFile(f"{path}:{lineno}: not UTF-8 text")
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
    if not values:
        raise BadDataFile(f"{path}: no data lines")
    return values


def _outcome(read):
    """Point bits of a read, or the type and text of what it raised."""
    try:
        return read().points.tobytes()
    except (BmLabError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        return type(exc).__name__, str(exc)


# lines the loop reads, skips or refuses, some of which float() and
# np.loadtxt treat differently
LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f" {v:.6e}\t"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(
        [
            "1_0", "2_5.0_1", "1__0", "١٢", "１２.５", "٣",
            "nan", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
            "3 # c", "1 2", "0x10", "", "   ", "# note", "#", "\x0c", "7\x0c", "\x1c8", "\u20289", "\x85",
        ]
    ),
)
# \x0c, \x1c, \u2028 and \x85 end a line for str.splitlines, not for the file
SEPARATORS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    pieces=st.lists(st.tuples(LINES, SEPARATORS), max_size=30),
    trailing=st.booleans(),
    bad_byte=st.booleans(),
    chunk=st.sampled_from([1, 8, 40, 1 << 16]),
)
def test_fast_parse_agrees_with_the_line_loop(tmp_path_factory, monkeypatch, pieces, trailing, bad_byte, chunk):
    text = "".join(line + sep for line, sep in pieces)
    if pieces and not trailing:
        text = text[: -len(pieces[-1][1])]  # no end after the last line
    data = text.encode("utf-8") + (b"\xff1\n" if bad_byte else b"")
    path = tmp_path_factory.mktemp("parse") / "seq.txt"
    path.write_bytes(data)
    monkeypatch.setattr(sequences, "FILE_CHUNK", chunk)  # blocks of a few lines each
    assert _outcome(lambda: read_sequence_file(path)) == _outcome(lambda: load_sequence(reference_read(path)))


def test_only_unusual_blocks_take_the_line_loop(tmp_path, monkeypatch):
    looped = []
    parse_lines = sequences._parse_lines

    def spy(path, lines, first):
        looped.append(len(lines))
        return parse_lines(path, lines, first)

    monkeypatch.setattr(sequences, "_parse_lines", spy)
    monkeypatch.setattr(sequences, "FILE_CHUNK", 64)
    path = tmp_path / "seq.txt"
    path.write_text("".join(f"{k}.5\r\n" for k in range(1000)))
    assert read_sequence_file(path).points.size == 1000 and looped == []
    path.write_text("".join(f"{k}.5\n" for k in range(1000)) + "# end\n\n")
    assert read_sequence_file(path).points.size == 1000
    assert len(looped) == 1 and looped[0] < 20


def _lines_as_iterated(data: bytes) -> int:
    return len(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines())


@pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
@pytest.mark.parametrize(
    "data",
    [b"", b"1", b"1\n", b"1\r\n2\r\n", b"1\r2\r3", b"1\r\r\n\n2", b"\r\n\r\n\r", b"1\x0c2\n3\x1c\n", b"\n\n\n1"],
)
def test_file_line_count_matches_text_iteration(tmp_path, monkeypatch, chunk, data):
    # the cap refuses one line more than the file iterates, and not exactly that many
    path = tmp_path / "seq.txt"
    path.write_bytes(data)
    lines = _lines_as_iterated(data)
    monkeypatch.setattr(sequences, "FILE_CHUNK", chunk)
    monkeypatch.setattr(sequences, "POINTS_CAP", lines)
    sequences.check_file_size(path)
    if lines > 1:  # a cap of 0 lines is also one of 0 bytes
        monkeypatch.setattr(sequences, "POINTS_CAP", lines - 1)
        with pytest.raises(SizeGuard, match="lines"):
            sequences.check_file_size(path)


def test_file_beyond_the_caps_is_refused_before_parsing(tmp_path, monkeypatch):
    monkeypatch.setattr(sequences, "POINTS_CAP", 4096)
    many = tmp_path / "many.txt"
    many.write_bytes(b"1\n" * 100_000)  # would be DuplicatePoint if parsed
    wide = tmp_path / "wide.txt"
    wide.write_bytes(b"1" + b"0" * (64 * 4096) + b"\n2\n")  # two lines, one byte past the cap
    for path, what in ((many, "lines"), (wide, "bytes")):
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuard, match=what):
                read_sequence_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * sequences.FILE_CHUNK
    at_cap = tmp_path / "at_cap.txt"
    at_cap.write_bytes(b"1\n" * 4096)
    with pytest.raises(DuplicatePoint):
        read_sequence_file(at_cap)


def test_restricted_sequences_keep_their_points_and_gap():
    seq = load_sequence([-7.0, -2.0, -1.5, 0.0, 3.0, 3.25, 9.0])
    near = seq.within(3.0)
    assert near.points.tolist() == [-2.0, -1.5, 0.0, 3.0]
    assert near.delta == 0.5 and near.window == (-3.0, 3.0)
    assert seq.within(0.1).delta == math.inf
    with pytest.raises(EmptyRange):
        load_sequence([5.0, 6.0]).within(1.0)


# ---------------------------------------------------------------- csv tables


def test_csv_cells_follow_the_column_dtype(tmp_path):
    # a float column as repr, an int or label column as str, the header in declared order
    path = tmp_path / "out.csv"
    table = Table(
        x=np.array([-0.0, 5e-324, math.nan, -math.inf, 1e50]),
        n=np.array([3, -2, 0, 10**12, 7]),
        label=np.array(["Interior", "a b", "", "TouchesWindowEdge", "x"]),
    )
    write_csv(path, (None, table))
    assert path.read_bytes() == (
        b"x,n,label\n"
        b"-0.0,3,Interior\n"
        b"5e-324,-2,a b\n"
        b"nan,0,\n"
        b"-inf,1000000000000,TouchesWindowEdge\n"
        b"1e+50,7,x\n"
    )


def test_csv_zero_row_table_writes_only_its_header(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, (None, Table(a=np.zeros(0), verdict=np.array([], dtype=str))))
    assert path.read_bytes() == b"a,verdict\n"


def test_csv_titled_blocks_are_a_blank_line_apart(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path,
        ("trials", Table(a=[0.5, 0.25], verdict=["No", "Yes"])),
        ("partial_sums", Table(a=[0.5], radius=[16.0], partial_sum=[0.1])),
    )
    assert path.read_bytes() == (
        b"# trials\na,verdict\n0.5,No\n0.25,Yes\n"
        b"\n# partial_sums\na,radius,partial_sum\n0.5,16.0,0.1\n"
    )
