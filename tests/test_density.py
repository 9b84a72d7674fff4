import math

import numpy as np
import pytest
import scipy.integrate

from bmlab import (
    BadArgument,
    INCONCLUSIVE,
    LONG,
    NO,
    NOT_POLYA,
    POLYA,
    YES,
    Lattice,
    LogPerturbedLattice,
    SymmetricSquares,
    WindowTooSmall,
    counting_function,
    default_radius_ladder,
    generate,
    interior_density,
    load_sequence,
    null_ratio_witness,
    regularity_witness_search,
    strong_regularity_integral,
)


# ------------------------------------------------------------ radius ladder


def test_default_ladder_doubles_up_to_rmax():
    ladder = default_radius_ladder(1024.0)
    assert ladder[-1] == 1024.0
    assert np.allclose(np.diff(np.log2(ladder)), 1.0)
    assert len(ladder) == 8


# ------------------------------------------------------------ lattice cases


def test_unit_lattice_density():
    seq = generate(Lattice(1.0, -10000, 10000))
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    assert rep.a_lower == pytest.approx(1.0)
    assert 1.0 < rep.a_upper <= 1.05
    assert rep.gap_lower == pytest.approx(2 * math.pi * rep.a_lower)
    assert rep.gap_upper == pytest.approx(2 * math.pi * rep.a_upper)
    assert rep.resolution_ok


def test_half_step_lattice_density_doubles():
    seq = generate(Lattice(0.5, -20000, 20000))
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    assert rep.a_lower == pytest.approx(2.0)
    assert rep.a_upper <= 2.1


def test_scaling_covariance():
    # brackets halve within the decision tolerance; exact endpoints differ
    # because the bisection cap a_max = 2/delta rescales the trial grid
    base = generate(Lattice(1.0, -10000, 10000))
    scaled = load_sequence(2.0 * np.asarray(base.points), window=(-20000.0, 20000.0))
    r1 = interior_density(base)
    r2 = interior_density(scaled)
    assert abs(r2.a_lower - r1.a_lower / 2.0) <= r2.a_tolerance
    assert abs(r2.a_upper - r1.a_upper / 2.0) <= r2.a_tolerance


def test_bisection_consistency():
    seq = generate(Lattice(1.0, -2000, 2000))
    rep = interior_density(seq)
    yes = [t.a for t in rep.trials if t.verdict == YES]
    no = [t.a for t in rep.trials if t.verdict == NO]
    assert yes and no
    assert max(yes) < min(no)
    assert 0.0 <= rep.a_lower <= rep.a_upper


# ------------------------------------------------------------ squares cases


def test_squares_not_polya():
    seq = generate(SymmetricSquares(-1000, 1000))
    rep = interior_density(seq)
    assert rep.polya_class == NOT_POLYA
    assert rep.a_lower == 0.0
    assert rep.a_upper <= 2 * rep.a_tolerance


def test_logperturbed_polya_with_pinned_bracket():
    seq = generate(LogPerturbedLattice(-100000, 100000))
    rep = interior_density(seq)
    assert rep.polya_class == POLYA
    # regression pin from the first oracle run (raw generator window; the
    # radius-masked CLI path pins its own bracket in the acceptance suite)
    assert rep.a_lower == pytest.approx(0.8975604540446083, rel=1e-12)
    assert rep.a_upper == pytest.approx(0.9265140170783054, rel=1e-12)


# ------------------------------------------------------------------- guards


def test_too_few_points_rejected():
    seq = generate(Lattice(1.0, -5, 5))
    with pytest.raises(WindowTooSmall):
        interior_density(seq)


def test_one_sided_window_rejected():
    seq = load_sequence(np.arange(1.0, 40.0), window=(0.5, 40.0))
    with pytest.raises(WindowTooSmall):
        interior_density(seq)


def test_ladder_beyond_window_rejected():
    seq = generate(Lattice(1.0, -50, 50))
    with pytest.raises(WindowTooSmall):
        interior_density(seq, radii=[10.0, 20.0, 40.0, 80.0])


def test_resolution_guard_forces_inconclusive():
    seq = generate(Lattice(1.0, -10, 10))
    rep = interior_density(seq, a_tolerance=0.001)
    assert not rep.resolution_ok
    assert rep.polya_class == INCONCLUSIVE


# ---------------------------------------------------------------- witnesses


def test_null_ratio_witness_squares():
    seq = generate(SymmetricSquares(-1000, 1000))
    w = null_ratio_witness(seq)
    assert w is not None
    assert w.shortness.verdict == LONG
    ratios = list(w.ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[4] < 0.05
    # ratios recomputable from the family
    from bmlab import count_in

    for iv, r in zip(w.family.intervals, w.ratios):
        assert count_in(seq, iv) / iv.length == pytest.approx(r)


def test_null_ratio_witness_lattice_not_found():
    seq = generate(Lattice(1.0, -10000, 10000))
    assert null_ratio_witness(seq) is None


def test_null_ratio_witness_empty_tail():
    seq = load_sequence([0.0, 1.0, 2.0], window=(-1e6, 1e6))
    w = null_ratio_witness(seq)
    assert w is not None
    assert w.shortness.verdict == LONG
    # all but finitely many intervals are point-free
    assert sum(1 for r in w.ratios if r == 0.0) >= len(w.ratios) - 2


def test_regularity_witness_lattice_at_its_density():
    seq = generate(Lattice(1.0, -10000, 10000))
    assert regularity_witness_search(seq, 1.0, 0.5) is None


def test_regularity_witness_lattice_off_density():
    seq = generate(Lattice(1.0, -10000, 10000))
    w = regularity_witness_search(seq, 0.5, 0.25)
    assert w is not None
    assert w.shortness.verdict == LONG
    assert all(abs(r - 0.5) >= 0.25 for r in w.ratios)


def test_regularity_witness_squares():
    seq = generate(SymmetricSquares(-1000, 1000))
    w = regularity_witness_search(seq, 1.0, 0.5)
    assert w is not None
    assert w.shortness.verdict == LONG


# ------------------------------------------------- strong regularity integral


def test_strong_regularity_lattice_at_one_is_zero():
    seq = generate(Lattice(1.0, -100, 100))
    vals = strong_regularity_integral(seq, 1.0, [10.0, 30.0, 90.0])
    assert all(v == 0.0 for v in vals)


def test_strong_regularity_closed_form_on_lattice():
    seq = generate(Lattice(1.0, -100, 100))
    radii = [5.0, 10.0, 20.0, 40.0, 80.0]
    vals = strong_regularity_integral(seq, 0.5, radii)
    for r, v in zip(radii, vals):
        assert v == pytest.approx(0.5 * math.log1p(r * r), rel=1e-9)


def test_strong_regularity_matches_quadrature():
    seq = generate(SymmetricSquares(-40, 40))
    n = counting_function(seq)

    def integrand(x):
        return abs(0.7 * x - n(x)) / (1.0 + x * x)

    radii = [50.0, 200.0, 800.0]
    vals = strong_regularity_integral(seq, 0.7, radii)
    for r, v in zip(radii, vals):
        q, err = scipy.integrate.quad(integrand, -r, r, limit=2000)
        assert v == pytest.approx(q, rel=1e-6, abs=max(err * 10, 1e-9))


def test_strong_regularity_monotone_in_radius():
    seq = generate(LogPerturbedLattice(-500, 500))
    radii = [20.0, 40.0, 80.0, 160.0, 320.0]
    vals = strong_regularity_integral(seq, 0.9, radii)
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# --------------------------------------------------------- witness/density


@pytest.mark.parametrize(
    "spec",
    [
        Lattice(1.0, -2000, 2000),
        Lattice(0.5, -4000, 4000),
        SymmetricSquares(-1000, 1000),
        LogPerturbedLattice(-2000, 2000),
    ],
    ids=["lattice1", "lattice05", "squares", "logperturbed"],
)
def test_witness_agrees_with_density(spec):
    seq = generate(spec)
    rep = interior_density(seq)
    w = null_ratio_witness(seq)
    if w is not None:
        assert rep.polya_class != POLYA
    elif rep.polya_class == NOT_POLYA:
        pytest.fail("NotPolya without witness")


def test_tolerance_domain():
    seq = generate(Lattice(1.0, -100, 100))
    for tol in (0.0, 0.5000001, math.inf, math.nan):
        with pytest.raises(BadArgument):
            interior_density(seq, a_tolerance=tol)
    with pytest.raises(BadArgument):
        default_radius_ladder(0.0)


def test_bisection_stops_at_adjacent_doubles():
    # a tolerance finer than the double spacing at the bracket ends
    rep = interior_density(generate(Lattice(1.0, -100, 100)), a_tolerance=1e-320)
    assert len(rep.trials) < 64
    assert rep.a_upper == np.nextafter(rep.a_lower, math.inf)
    assert rep.polya_class == INCONCLUSIVE  # below the window resolution
