import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bmlab import density
from bmlab.density import NOT_POLYA, POLYA, default_radius_ladder, interior_density, null_ratio_witness
from bmlab.envelope import (
    INCONCLUSIVE,
    LONG,
    NO,
    YES,
    IntervalFamily,
    bm_family,
    classify_short_long,
    is_almost_decreasing,
    shortness_partial_sum,
)
from bmlab.errors import BadArgument, BmLabError, SpanTooWide, WindowTooSmall
from bmlab.gap import TWO_PI, cauchy_decay, lattice_gap_measure, min_gap_residual
from bmlab.sequences import count_in, gamma_line, load_sequence, parse_generator
from bmlab.zerotype import qcos_zeros
from conftest import logperturbed_points


# ------------------------------------------------------------ radius ladder


def test_default_ladder_doubles_up_to_rmax():
    ladder = default_radius_ladder(1024.0)
    assert ladder[-1] == 1024.0
    assert np.allclose(np.diff(np.log2(ladder)), 1.0)
    assert len(ladder) == 8


# ------------------------------------------------------------ lattice cases


def test_unit_lattice_density():
    seq = parse_generator("lattice:1", 10000.0)
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    assert rep.a_lower == pytest.approx(1.0)
    assert 1.0 < rep.a_upper <= 1.05
    assert rep.gap_lower == pytest.approx(2 * math.pi * rep.a_lower)
    assert rep.gap_upper == pytest.approx(2 * math.pi * rep.a_upper)
    assert rep.resolution_ok


def test_half_step_lattice_density_doubles():
    seq = parse_generator("lattice:0.5", 10000.0)
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    assert rep.a_lower == pytest.approx(2.0)
    assert rep.a_upper <= 2.1


def test_scaling_covariance():
    # brackets halve within the decision tolerance; exact endpoints differ
    # because the first bisection bracket [0, 2/delta] rescales the trial grid
    base = parse_generator("lattice:1", 10000.0)
    scaled = load_sequence(2.0 * np.asarray(base.points), window=(-20000.0, 20000.0))
    r1 = interior_density(base)
    r2 = interior_density(scaled)
    assert abs(r2.a_lower - r1.a_lower / 2.0) <= r2.a_tolerance
    assert abs(r2.a_upper - r1.a_upper / 2.0) <= r2.a_tolerance


def test_bisection_consistency():
    seq = parse_generator("lattice:1", 2000.0)
    rep = interior_density(seq)
    yes = [t.a for t in rep.trials if t.verdict == YES]
    no = [t.a for t in rep.trials if t.verdict == NO]
    assert yes and no
    assert max(yes) < min(no)
    assert 0.0 <= rep.a_lower <= rep.a_upper


# ------------------------------------------------------------ squares cases


def test_squares_not_polya():
    seq = parse_generator("squares", 1e6)
    rep = interior_density(seq)
    assert rep.polya_class == NOT_POLYA
    assert rep.a_lower == 0.0
    assert rep.a_upper <= 2 * rep.a_tolerance


def test_logperturbed_polya_with_pinned_bracket():
    seq = load_sequence(logperturbed_points(100000))
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    # regression pin from the first oracle run (raw generator window; the
    # radius-masked CLI path pins its own bracket in the acceptance suite)
    assert rep.a_lower == pytest.approx(0.8975604540446083, rel=1e-12)
    assert rep.a_upper == pytest.approx(0.9265140170783054, rel=1e-12)


@pytest.mark.parametrize("radius", [3000.0, 30000.0])
def test_two_sided_density_is_the_sparser_side(tmp_path, radius):
    # step 1 on the left and 3 on the right: the density is 1/3.  For a in
    # (1/3, 1) gamma_a falls on the left and rises on the right, so every
    # window's grid has a head that never increases before its first rise
    path = tmp_path / "two-sided.txt"
    points = np.concatenate((np.arange(-30000, 0), np.arange(0, 30001, 3)))
    path.write_text("\n".join(map(str, points.tolist())) + "\n")
    seq = parse_generator(f"file:{path}", radius)
    for a in (0.375, 0.5, 0.9):
        y = gamma_line(seq, a).y
        rises = y[:-1] < y[1:]
        assert not rises[seq.points[1:] <= 0.0].any() and rises[seq.points[:-1] >= 0.0].all()
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    assert rep.a_lower <= 1.0 / 3.0 <= rep.a_upper
    assert (rep.a_lower, rep.a_upper) == (0.3125, 0.34375)


# ------------------------------------------------------------------- guards


def test_too_few_points_rejected():
    seq = parse_generator("lattice:1", 5.0)
    with pytest.raises(WindowTooSmall):
        interior_density(seq)


def test_one_sided_window_rejected():
    seq = load_sequence(np.arange(1.0, 40.0), window=(0.5, 40.0))
    with pytest.raises(WindowTooSmall, match="two-sided"):
        interior_density(seq)


def test_a_sequence_whose_trial_slopes_overflow_is_refused_before_a_trial(monkeypatch):
    # (2/delta)*1e10 overflows, and so does a*x at the first trial a = 1/delta
    seq = load_sequence([*range(-8, 9), 1e-300, 1e10, -1e10])
    monkeypatch.setattr(density, "gamma_line", lambda seq, a: pytest.fail("a trial ran"))
    with pytest.raises(SpanTooWide, match="slopes to 2/delta overflow a\\*x") as caught:
        interior_density(seq)
    assert not isinstance(caught.value, BadArgument)


def test_a_strictly_rising_line_is_a_no_where_the_counting_bound_is_silent():
    # the first trial a = fl(1/delta) has a*delta == 1.0, so the counting bound
    # does not decide it, while every computed pair rises: were it a Yes, the
    # bracket would close on [1018.36, 1018.39] and miss the density 1000
    rng = np.random.default_rng(21)
    seq = load_sequence((np.arange(-60, 61) + rng.uniform(-0.01, 0.01, 121)) * 1e-3)
    rep = interior_density(seq)
    first = rep.trials[0]
    assert first.a * seq.delta == 1.0 and gamma_line(seq, first.a).trend == 1
    assert first.verdict == NO
    assert rep.polya_class == POLYA and rep.a_lower <= 1000.0 <= rep.a_upper


def test_a_long_interior_family_is_a_no():
    # the integers of [-1e4, 1e4] without the holes +-[2^k, 1.5 * 2^k): D_* = 0.
    # Each No below a = 1/2 rests on a Long interior family alone; were those
    # trials Inconclusive, the bracket would stop at [0, 0.5]
    n = np.arange(-10000, 10001)
    m = np.abs(n)
    hole = (m >= 1) & (m < 1.5 * np.exp2(np.floor(np.log2(np.maximum(m, 1)))))
    rep = interior_density(load_sequence(n[~hole].astype(float)))
    assert (rep.polya_class, rep.a_lower, rep.a_upper) == (NOT_POLYA, 0.0, 0.03125)
    low = [t for t in rep.trials if t.a < 0.5]
    assert low and all(t.verdict == NO for t in low)
    assert all(t.shortness.verdict == LONG and t.shortness.model == "LogGrowth" for t in low)


def test_ladder_beyond_window_rejected():
    seq = parse_generator("lattice:1", 50.0)
    with pytest.raises(WindowTooSmall):
        interior_density(seq, radii=[10.0, 20.0, 40.0, 80.0])


@pytest.mark.parametrize("points", [np.arange(-3.0, 30.0), np.arange(-29.0, 4.0)], ids=["short-left", "short-right"])
def test_ladder_beyond_the_short_side_of_the_window_rejected(points):
    # each rung's window (-r, r) must lie in the data window, on its short side too
    seq = load_sequence(points)
    with pytest.raises(WindowTooSmall):
        interior_density(seq, radii=[2.0, 4.0, 8.0, 16.0])
    assert interior_density(seq, radii=[0.375, 0.75, 1.5, 3.0]).radii[-1] == 3.0


def test_resolution_guard_forces_inconclusive():
    seq = parse_generator("lattice:1", 10.0)
    rep = interior_density(seq, a_tolerance=0.001)
    assert not rep.resolution_ok
    assert rep.polya_class == INCONCLUSIVE


# ---------------------------------------------------------------- witnesses


def test_null_ratio_witness_squares():
    seq = parse_generator("squares", 1e6)
    w = null_ratio_witness(seq)
    assert w is not None
    assert w.shortness.verdict == LONG
    ratios = list(w.ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[4] < 0.05
    # ratios recomputable from the family
    from bmlab.sequences import count_in

    for left, right, r in zip(w.family.left.tolist(), w.family.right.tolist(), w.ratios):
        assert count_in(seq, (left, right)) / (right - left) == pytest.approx(r)


def test_null_ratio_witness_lattice_not_found():
    seq = parse_generator("lattice:1", 10000.0)
    assert null_ratio_witness(seq) is None


def test_null_ratio_witness_empty_tail():
    seq = load_sequence([0.0, 1.0, 2.0], window=(-1e6, 1e6))
    w = null_ratio_witness(seq)
    assert w is not None
    assert w.shortness.verdict == LONG
    # all but finitely many intervals are point-free
    assert sum(1 for r in w.ratios if r == 0.0) >= len(w.ratios) - 2


# --------------------------------------------------------- witness/density


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_generator("lattice:1", 2000.0),
        lambda: parse_generator("lattice:0.5", 2000.0),
        lambda: parse_generator("squares", 1e6),
        lambda: load_sequence(logperturbed_points(2000)),
    ],
    ids=["lattice1", "lattice05", "squares", "logperturbed"],
)
def test_witness_agrees_with_density(build):
    seq = build()
    rep = interior_density(seq)
    w = null_ratio_witness(seq)
    if w is not None:
        assert rep.polya_class != POLYA
    elif rep.polya_class == NOT_POLYA:
        pytest.fail("NotPolya without witness")


def test_tolerance_domain():
    seq = parse_generator("lattice:1", 100.0)
    for tol in (0.0, 0.5000001, math.inf, math.nan):
        with pytest.raises(BadArgument):
            interior_density(seq, a_tolerance=tol)
    with pytest.raises(BadArgument):
        default_radius_ladder(0.0)


def test_bisection_stops_at_adjacent_doubles():
    # density --seq lattice:1e-13 --radius 1e-9 --tol 1e-3: the window
    # resolves 2*delta/R = 2e-4, but the doubles near 1/delta = 1e13 are
    # about 2e-3 apart, so the tolerance cannot be met
    rep = interior_density(parse_generator("lattice:1e-13", 1e-9), a_tolerance=1e-3)
    assert rep.resolution_ok
    assert rep.a_upper == np.nextafter(rep.a_lower, math.inf)
    assert rep.a_upper - rep.a_lower > rep.a_tolerance
    assert rep.polya_class == POLYA


def test_bisection_stops_at_the_window_resolution():
    # a window of radius 100 resolves slopes 2*delta/R = 0.02 apart; a finer
    # tolerance is Inconclusive, and the bracket halves from 2 to 1/64 in 7
    # trials: the end 2/delta of the first bracket is a No by the counting
    # bound and is not tried
    rep = interior_density(parse_generator("lattice:1", 100.0), a_tolerance=1e-320)
    assert not rep.resolution_ok
    assert rep.polya_class == INCONCLUSIVE
    assert len(rep.trials) == 7
    assert rep.a_upper - rep.a_lower == 2.0 / 2**7 <= 2.0 * rep.delta / rep.radii[-1]
    assert rep.a_lower <= 1.0 < rep.a_upper


@pytest.mark.parametrize(
    "step, radius",
    [(s, r) for s in (1e-3, 1e-2, 0.1, 0.37, 1.0) for r in (0.1, 1.0, 10.0) if r / s >= 8] + [(1e-13, 1e-9)],
)
def test_bracket_holds_the_counting_bound(step, radius):
    # no density exceeds 1/delta, so a trial with a*delta > 1 is No however
    # small the window, also where the ordinates of gamma_a round too
    # coarsely to rise (step 1e-13: a rise of about 1.7e-12 per segment
    # against an ulp of a*x near 1.8e-12).  Where the window resolves the
    # lattice, its density 1/step stays in the bracket.  The points k*step
    # are rounded, so delta sits a few ulps below step and a No at
    # a = 1/delta itself is also right.
    rep = interior_density(parse_generator(f"lattice:{step!r}", radius))
    assert rep.a_lower <= 1.0 / rep.delta
    if step >= 1e-3:
        assert rep.a_lower <= (1.0 / step) * (1.0 + 1e-12) and (1.0 / step) * (1.0 - 1e-12) <= rep.a_upper


# ------------------------------------------------ density against gap probe


def jittered_lattice(radius):
    """6001 points k + U(-0.3, 0.3), seeded, cut to the radius."""
    k = np.arange(-3000, 3001)
    return load_sequence(k + np.random.default_rng(17).uniform(-0.3, 0.3, k.size)).within(radius)


PROBE_SIZES = [64, 128, 256, 512]
EQUIVALENCE_SLACK = 0.01  # relative widening of 2*pi*[a_lower, a_upper]


@pytest.mark.parametrize(
    "build, decays, bounded",
    [
        (lambda r: parse_generator("lattice:1", r), 3.0, 12.0),
        (lambda r: parse_generator("lattice:0.5", r), 6.0, 24.0),
        (lambda r: parse_generator("lattice:2", r), 1.5, 6.0),
        (lambda r: parse_generator("logperturbed", r), 3.0, 12.0),
        (jittered_lattice, 3.0, 12.0),
    ],
    ids=["lattice1", "lattice05", "lattice2", "logperturbed", "jittered"],
)
def test_gap_probe_flips_where_the_density_says(build, decays, bounded):
    # The paper's equivalence: for a separated sequence the gap
    # characteristic is 2*pi times the interior density D_*.  The density
    # comes from the gamma_a envelopes, the probe from the sinc Gram
    # kernel's smallest eigenvalue; the two share no code.  The probe's
    # classification flips from DecaysToZero to BoundedBelow inside
    # [decays, bounded]; the interval where it flips must meet the
    # density's 2*pi bracket.  The probe measures the upper density D+
    # (a Riesz sequence for a > 2*pi*D+ by Beurling and Kahane, none for
    # a < 2*pi*D+ by Landau), so the check holds only where D_* = D+, as
    # on these five sequences.
    # logperturbed's bracket carries the window bias of a finite radius,
    # and the probe sees the same.  squares is left out: D+ = 0 there, so
    # BoundedBelow is the true limit for every a > 0, and its DecaysToZero
    # at small a comes from the probe's terminal-floor rule.
    rep = interior_density(build(2000.0))
    probe = build(1500.0)

    def classify(a):
        return min_gap_residual(probe, a, PROBE_SIZES).classification

    assert (classify(decays), classify(bounded)) == ("DecaysToZero", "BoundedBelow")
    lo, hi = decays, bounded
    while hi - lo > 0.02:
        mid = 0.5 * (lo + hi)
        verdict = classify(mid)
        if verdict == "DecaysToZero":
            lo = mid
        elif verdict == "BoundedBelow":
            hi = mid
        else:  # Inconclusive: the flip is within [lo, hi]
            break
    assert lo <= TWO_PI * rep.a_upper * (1.0 + EQUIVALENCE_SLACK)
    assert hi >= TWO_PI * rep.a_lower * (1.0 - EQUIVALENCE_SLACK)


# ------------------------------------------------------ bisection premises


def premise_draws(family, count=40):
    """Seeded separated sequences of one family on their hull, which holds 0:
    jittered lattices k + U(-0.3, 0.3), renewal sequences with gaps
    0.2 + Exp(1), and jittered squares sign(k) (|k| + U(-0.3, 0.3))^2 / s."""
    rng = np.random.default_rng({"jittered": 31, "renewal": 32, "squares": 33}[family])
    for _ in range(count):
        k = np.arange(-int(rng.integers(40, 200)), 0)
        k = np.concatenate((k, [0], -k[::-1]))
        if family == "jittered":
            points = k + rng.uniform(-0.3, 0.3, k.size)
        elif family == "renewal":
            points = np.cumsum(0.2 + rng.exponential(1.0, k.size))
            points -= rng.uniform(0.3, 0.7) * points[-1]
        else:
            jitter = np.where(k == 0, 0.0, rng.uniform(-0.3, 0.3, k.size))
            points = np.sign(k) * (np.abs(k) + jitter) ** 2 / rng.uniform(1.0, 10.0)
        yield load_sequence(points)


def total_mass(family):
    """The sum of |I|^2 / (1 + dist(I, 0)^2) over all intervals, edge ones included, correctly rounded."""
    pairs = zip(family.left.tolist(), family.right.tolist())
    return math.fsum((right - left) ** 2 / (1.0 + dist_to_origin(left, right) ** 2) for left, right in pairs)


@pytest.mark.parametrize("family", ["jittered", "renewal", "squares"])
def test_rung_mass_and_verdicts_are_monotone_in_a(family):
    # The bisection's premises (M1, M2).  For a' < a, gamma_a - gamma_a'
    # rises, so BM(gamma_a') lies in BM(gamma_a); each small component lies
    # in a large one J, and sum |I|^2/(1 + d^2) <= |J|^2/(1 + d_J^2).  So a
    # rung's total mass, interior plus edge, cannot fall as a rises (the
    # interior sum alone can: a component may move into the edge mass).
    # And on one ladder no Yes verdict sits above a No.  Both are compared
    # exactly, on 12 geometric slopes from 1e-3/delta to 1/delta, where
    # nearly every draw has both Yes and No verdicts.
    for seq in premise_draws(family):
        radii = default_radius_ladder(min(-seq.window[0], seq.window[1]))
        masses, verdicts = [], []
        for a in np.geomspace(1e-3, 1.0, 12) / seq.delta:
            gamma = gamma_line(seq, a)
            masses.append([total_mass(bm_family(gamma, (-r, r))) for r in radii])
            verdicts.append(is_almost_decreasing(gamma, radii)[0])
        for lower, upper in zip(masses, masses[1:]):
            assert not any(u < m for m, u in zip(lower, upper)), (lower, upper)
        if NO in verdicts:
            assert YES not in verdicts[verdicts.index(NO) :], verdicts


# ------------------------------------------- columnar code against its loops


def dist_to_origin(left, right):
    """0 when [left, right] holds 0, else the distance of its near end."""
    if left <= 0.0 <= right:
        return 0.0
    return min(abs(left), abs(right))


def reference_witness(seq, caps):
    """The ladder walk the witness search had, one (left, right) pair per
    interval, kept as the reference."""
    ladders = []
    for base in (4, 2):
        lo, hi = seq.window
        pos, neg = [], []
        k = 0
        while base ** (k + 1) <= hi:
            if base**k >= lo:
                pos.append((float(base**k), float(base ** (k + 1))))
            k += 1
        k = 0
        while -(base ** (k + 1)) >= lo:
            if -(base**k) <= hi:
                neg.append((float(-(base ** (k + 1))), float(-(base**k))))
            k += 1
        if pos:
            ladders.append((f"pow{base}:positive", pos))
        if neg:
            ladders.append((f"pow{base}:negative", neg))
        if pos and neg:
            ladders.append((f"pow{base}:both", sorted(pos + neg, key=lambda iv: dist_to_origin(*iv))))
    for name, intervals in ladders:
        ratios = [count_in(seq, iv) / (iv[1] - iv[0]) for iv in intervals]
        kept = []
        for iv, ratio in zip(intervals, ratios):
            if len(kept) >= len(caps):
                break
            if ratio <= caps[len(kept)]:
                kept.append((iv, ratio))
        if len(kept) < 4:
            continue
        ordered = sorted(kept, key=lambda pair: pair[0][0])
        family = IntervalFamily(
            np.array([iv[0] for iv, _ in ordered]),
            np.array([iv[1] for iv, _ in ordered]),
            np.zeros(len(ordered), dtype=bool),
        )
        radii = sorted({max(abs(left), abs(right)) for (left, right), _ in kept})
        if len(radii) < 4:
            continue
        report = classify_short_long(radii, [shortness_partial_sum(family, r) for r in radii], degenerate=False)
        if report.verdict == LONG:
            return name, [r for _, r in ordered], family, report
    return None


def _witness_outcome(search):
    """Ladder, ratios, endpoint bits and shortness report, or what was raised."""
    try:
        found = search()
    except (BmLabError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if found is None:
        return None
    if not isinstance(found, tuple):
        found = found.ladder, found.ratios, found.family, found.shortness
    name, ratios, family, report = found
    return name, ratios, family.left.tobytes(), family.right.tobytes(), family.edge.tobytes(), repr(report)


WINDOWS = st.one_of(
    st.tuples(st.floats(-1e7, -1.0), st.floats(1.0, 1e7)),  # two-sided, asymmetric
    st.floats(1.0, 1e6).map(lambda r: (-r, r)),
    st.tuples(st.floats(0.0, 100.0), st.floats(200.0, 1e7)),  # one-sided, positive
    st.tuples(st.floats(-1e7, -200.0), st.floats(-100.0, 0.0)),  # one-sided, negative
    st.tuples(st.floats(-1e60, -1e40), st.floats(1e40, 1e60)),  # radii past ENDPOINT_BOUND
)


@st.composite
def scattered(draw):
    """Points spread evenly, or bunched near the low end, over a window."""
    lo, hi = window = draw(WINDOWS)
    u = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60)))
    points = np.unique(np.clip(lo + (hi - lo) * (u * u if draw(st.booleans()) else u), lo, hi))
    assume(not np.any(np.diff(points) < sys.float_info.min))  # a sequence's gaps are normal doubles
    return points, window


@st.composite
def dyadic_blocks(draw):
    """Dense blocks [2^k, 2^(k+1)] on either side, the rest empty, so that each
    half line alone can fail a ladder that both together pass."""
    blocks = draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(0, 9)), min_size=1, max_size=8))
    points = np.unique(np.concatenate([sign * np.arange(2.0**k, 2.0 ** (k + 1), 0.25) for sign, k in blocks]))
    reach = draw(st.tuples(st.integers(1, 11), st.integers(1, 11), st.floats(0.0, 0.9)))
    lo = min(-(2.0 ** reach[0]) * (1.0 + reach[2]), points[0])
    hi = max(2.0 ** reach[1] * (1.0 + reach[2]), points[-1])
    return points, (lo, hi)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.one_of(scattered(), dyadic_blocks()), harmonic=st.booleans())
def test_columnar_witness_search_equals_the_interval_walk(data, harmonic):
    # the search's own harmonic cap, or a step cap under which more ladders qualify
    points, window = data
    seq = load_sequence(points, window=window)
    caps = [1.0 / (k + 1) for k in range(64)] if harmonic else [0.5] * 4 + [0.25] * 60
    with pytest.MonkeyPatch.context() as patch:
        if not harmonic:
            patch.setattr(density, "RATIO_CAP", caps)
        found = _witness_outcome(lambda: null_ratio_witness(seq))
    assert found == _witness_outcome(lambda: reference_witness(seq, caps))


@pytest.mark.parametrize(
    "call",
    [
        lambda: cauchy_decay(lattice_gap_measure(3.0, 32), 0.5, [1.0, 2.0, 3.0, 4.0], 0.0),
        lambda: cauchy_decay(lattice_gap_measure(3.0, 32), 0.5, [1.0, 2.0, 3.0, 4.0], math.nan),
        lambda: gamma_line(parse_generator("lattice:1", 10000.0), math.nan),
        lambda: qcos_zeros((1.0, 1.0)),
        lambda: qcos_zeros((math.nan, 1.0)),
        lambda: count_in(parse_generator("lattice:1", 10.0), (math.nan, 1.0)),
        lambda: count_in(parse_generator("lattice:1", 10.0), (1.0, math.nan)),
        lambda: count_in(parse_generator("lattice:1", 10.0), (2.0, 1.0)),
    ],
    ids=["zero-epsilon", "nan-epsilon", "nan-a", "empty-window", "nan-window", "nan-left", "nan-right", "reversed"],
)
def test_engine_preconditions_raise_bad_argument(call):
    with pytest.raises(BadArgument):
        call()
