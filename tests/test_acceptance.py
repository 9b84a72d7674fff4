"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints one pass/fail line in the terminal summary (see
conftest.acceptance_note).  Runtime budgets are asserted where a
criterion carries one; oracle values frozen from the first full run
act as regression pins.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from bmlab.cli import run
from bmlab.density import interior_density, null_ratio_witness
from bmlab.envelope import IntervalFamily, bm_family, shortness_partial_sum
from bmlab.sequences import PiecewiseLinear, gamma_line, parse_generator
from bmlab.zerotype import eval_qcos, zero_set_qcos
from conftest import acceptance_note

PI = math.pi


def run_cli(argv):
    buf = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run([str(a) for a in argv])
    elapsed = time.monotonic() - t0
    out = buf.getvalue()
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload, elapsed


def test_criterion_01_lattice_density():
    code, p, dt = run_cli(
        ["density", "--seq", "lattice:1", "--radius", "1e4", "--tol", 0.05]
    )
    assert code == 0
    assert p["polya_class"] == "Polya"
    assert p["a_lower"] >= 0.95
    assert p["a_upper"] <= 1.05
    assert dt <= 10.0
    acceptance_note(
        1, f"lattice:1 bracket [{p['a_lower']:g}, {p['a_upper']:g}] Polya {dt:.2f}s"
    )


def test_criterion_02_scaling_covariance():
    code, p, dt = run_cli(
        ["density", "--seq", "lattice:0.5", "--radius", "1e4", "--tol", 0.05]
    )
    assert code == 0
    assert p["polya_class"] == "Polya"
    assert p["a_lower"] >= 1.9
    assert p["a_upper"] <= 2.1
    acceptance_note(
        2, f"lattice:0.5 bracket [{p['a_lower']:g}, {p['a_upper']:g}] {dt:.2f}s"
    )


def test_criterion_03_squares_witness():
    code, p, dt = run_cli(["classify", "--seq", "squares", "--radius", "1e6"])
    assert code == 0
    assert p["polya_class"] == "NotPolya"
    wit = p["witness"]
    assert wit is not None
    assert wit["shortness"]["verdict"] == "Long"
    ratios = wit["ratios"]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(r < 0.05 for r in ratios[4:])
    assert ratios[4] < 0.05
    # partial sums along dyadic radii: the witness ladder is 4-adic, so
    # the mass lands on alternate dyadic generations; count generations
    # whose increment clears 0.5
    fam = IntervalFamily(
        np.array([iv["left"] for iv in wit["intervals"]]),
        np.array([iv["right"] for iv in wit["intervals"]]),
        np.zeros(len(wit["intervals"]), dtype=bool),
    )
    sums = [shortness_partial_sum(fam, float(2**k)) for k in range(1, 21)]
    growing = sum(1 for s0, s1 in zip(sums, sums[1:]) if s1 - s0 >= 0.5)
    assert growing >= 8
    assert dt <= 30.0
    acceptance_note(
        3,
        f"squares NotPolya, {len(ratios)} witness intervals, "
        f"{growing} growing dyadic generations {dt:.2f}s",
    )


def test_criterion_04_logperturbed_density():
    code, p, dt = run_cli(["density", "--seq", "logperturbed", "--radius", "1e5"])
    assert code == 0
    assert p["polya_class"] == "Polya"
    assert p["a_lower"] >= 0.5
    # regression pins from the first oracle run
    assert p["a_lower"] == pytest.approx(0.8971229581213034, rel=1e-12)
    assert p["a_upper"] == pytest.approx(0.9260624083832809, rel=1e-12)
    acceptance_note(
        4, f"logperturbed bracket [{p['a_lower']:.6f}, {p['a_upper']:.6f}] {dt:.2f}s"
    )


def _grid_oracle(gamma, window, step=1e-3):
    # brute-force suffix-max components; the grid is refined with the
    # breakpoints so local maxima are sampled exactly
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


def _random_pwl(rng):
    n = int(rng.integers(2, 51))
    xs = np.sort(rng.uniform(-20.0, 20.0, size=n))
    while np.any(np.diff(xs) <= 1e-9):
        xs = np.sort(rng.uniform(-20.0, 20.0, size=n))
    slopes = rng.uniform(-3.0, 3.0, size=n - 1)
    ys = np.concatenate([[rng.uniform(-5.0, 5.0)], np.cumsum(slopes * np.diff(xs))])
    ys[1:] += ys[0]
    return PiecewiseLinear(
        xs,
        ys,
        left_slope=float(rng.uniform(-3.0, 3.0)),
        right_slope=float(rng.uniform(-3.0, 3.0)),
    )


def test_criterion_05_envelope_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        gamma = _random_pwl(rng)
        window = (float(gamma.x[0]) - 2.0, float(gamma.x[-1]) + 2.0)
        fam = bm_family(gamma, window)
        oracle = _grid_oracle(gamma, window)
        mine = list(zip(fam.left.tolist(), fam.right.tolist()))
        assert len(mine) == len(oracle)
        for (l1, r1), (l2, r2) in zip(mine, oracle):
            worst = max(worst, abs(l1 - l2), abs(r1 - r2))
    assert worst <= 2e-3
    acceptance_note(5, f"100 random envelopes, worst endpoint error {worst:.2e}")


def _membership(fam, xs):
    inside = np.zeros(xs.size, dtype=bool)
    for left, right in zip(fam.left.tolist(), fam.right.tolist()):
        inside |= (xs >= left) & (xs <= right)
    return inside


def test_criterion_06_monotone_inclusion():
    rng = np.random.default_rng(42)
    violations = 0
    for spec in ("lattice:1", "squares", "logperturbed"):
        seq = parse_generator(spec, 2500.0 if spec == "squares" else 50.0)
        window = seq.window
        xs = np.linspace(window[0], window[1], 10_000)
        for _ in range(10):
            a = float(rng.uniform(0.1, 3.0))
            a_prime = float(rng.uniform(0.02, 0.95) * a)
            small = _membership(bm_family(gamma_line(seq, a_prime), window), xs)
            big = _membership(bm_family(gamma_line(seq, a), window), xs)
            violations += int((small & ~big).sum())
    assert violations == 0
    acceptance_note(6, "30 slope pairs x 10000 grid points, 0 violations")


def test_criterion_07_gap_measure_round_trip():
    t0 = time.monotonic()
    code, p, _ = run_cli(
        ["gap-measure", "--gap", 3.14159, "--n", 256,
         "--verify-interval", "0.4,2.7", "--grid-step", 1e-3]
    )
    assert code == 0
    max_abs = p["verify"]["max_abs"]
    assert max_abs <= 1e-6
    half = p["params"]["gap"] / 2.0
    for x in (half / 2.0, -half / 2.0):
        code, q, _ = run_cli(["cauchy", "--gap", 3.14159, "--x", x])
        assert code == 0
        assert q["verdict"] == "VanishesCompatible"
        assert q["plus"]["log_abs"][-1] <= math.log(1e-6)
        assert q["minus"]["log_abs"][-1] <= math.log(1e-6)
    for x in (2.0 * half, -2.0 * half):
        code, q, _ = run_cli(["cauchy", "--gap", 3.14159, "--x", x])
        assert code == 0
        assert q["verdict"] == "Not"
    elapsed = time.monotonic() - t0
    assert elapsed <= 10.0
    acceptance_note(
        7, f"max |transform| on gap {max_abs:.2e}, round trip at +-a'/2 {elapsed:.2f}s"
    )


def test_criterion_08_gram_probe_signatures():
    t0 = time.monotonic()
    code, p, _ = run_cli(
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", PI]
    )
    assert code == 0
    assert p["classification"] == "DecaysToZero"
    # the plunge bottoms out below double resolution before N = 21, so
    # the >= 10x fall is certified against the noise floor: lambda_min
    # sits at machine zero at every window size, more than 10x below the
    # scale a bounded probe would hold (compare a = 7 below)
    raw = p["min_eigenvalues"]
    floors = p["noise_floors"]
    assert all(r <= f for r, f in zip(raw, floors))
    code, q, _ = run_cli(
        ["gap-probe", "--seq", "lattice:1", "--radius", 101, "--gap", 7.0]
    )
    assert code == 0
    assert q["classification"] == "BoundedBelow"
    level = q["min_eigenvalues"]
    assert max(level) <= 2.0 * min(level)
    assert floors[-1] * 10.0 < min(level)
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    acceptance_note(
        8,
        f"a=pi machine zero (<= {floors[-1]:.1e}), a=7 level {min(level):.4f} "
        f"{elapsed:.2f}s",
    )


def test_criterion_09_type_estimates():
    code, p, _ = run_cli(
        ["ftype", "--function", "cos", "--y-min", 0.05, "--y-max", 50, "--y-count", 16]
    )
    assert code == 0
    assert p["fitted_type"] == pytest.approx(1.0, abs=0.01)
    cos_type = p["fitted_type"]
    code, q, _ = run_cli(["ftype", "--function", "qcos"])
    assert code == 0
    assert q["fitted_type"] <= 0.01
    assert q["fitted_sqrt_coeff"] == pytest.approx(2.0 * math.sqrt(PI), rel=0.10)
    # zeros evaluate to machine-level residuals on the window where
    # doubles can honor the bound (cosh amplification takes over beyond)
    zeros = zero_set_qcos((0.0, 48.0))
    worst = max(abs(eval_qcos(lam)) / (1e-9 * (1.0 + abs(lam))) for lam in zeros.points)
    assert worst <= 1.0
    rep = interior_density(zero_set_qcos((-1e6, 1e6)))
    assert rep.polya_class == "NotPolya"
    acceptance_note(
        9,
        f"type(cos)={cos_type:.4f}, type(qcos)={q['fitted_type']:.4f}, "
        f"sqrt coeff {q['fitted_sqrt_coeff']:.4f}, zero set NotPolya",
    )


def test_criterion_10_classifier_agreement():
    cases = [
        ("lattice:1", 1e4),
        ("lattice:0.5", 1e4),
        ("squares", 1e6),
        ("logperturbed", 1e5),
    ]
    summary = []
    for spec, radius in cases:
        seq = parse_generator(spec, radius)
        rep = interior_density(seq)
        witness = null_ratio_witness(seq)
        if rep.polya_class == "Inconclusive":
            # allowed only when the bracket straddles the tolerance
            assert rep.a_lower < 2.0 * rep.a_tolerance < rep.a_upper
        else:
            assert (witness is not None) == (rep.polya_class == "NotPolya")
        summary.append(f"{spec}={rep.polya_class}")
    acceptance_note(10, ", ".join(summary))
