import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab.cli import parse_generator, run
from bmlab.density import interior_density
from bmlab.errors import BadArgument, SizeGuard
from bmlab.gap import (
    GRID_POINTS_CAP,
    TERMS_CAP,
    DiscreteMeasure,
    _grid_transform,
    cauchy_decay,
    gram_matrix,
    lattice_gap_measure,
    min_gap_residual,
    symmetric_gap_measure,
    verify_gap,
)
from bmlab.sequences import load_sequence
from conftest import logperturbed_points

TWO_PI = 2 * math.pi
EPS = np.finfo(float).eps


def fourier_transform(mu, x):
    """mu^(x) = sum w_n exp(i x lambda_n), the direct sum over the atoms."""
    return np.exp(1j * np.multiply.outer(x, mu.points)) @ mu.weights


# ----------------------------------------------------------------- measures


def test_measure_validation():
    mu = DiscreteMeasure(np.array([-1.0, 2.0]), np.array([1.0, -2.0], dtype=complex))
    assert mu.total_variation == pytest.approx(3.0)
    assert len(mu) == 2


def test_measure_csv_round_trip(tmp_path):
    # the gap-measure --csv-out file reads back bit for bit
    mu = lattice_gap_measure(3.0, 32)
    path = tmp_path / "mu.csv"
    argv = ["gap-measure", "--gap", "3.0", "--n", "32", "--out", str(tmp_path / "mu.json"), "--csv-out", str(path)]
    assert run(argv) == 0
    points, re, im = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    for got, want in ((points, mu.points), (re, mu.weights.real), (im, mu.weights.imag)):
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_fourier_at_zero_is_total_mass():
    mu = DiscreteMeasure(
        np.array([-2.0, 1.0, 5.0]), np.array([1.0, 2.0 - 1j, 0.5j])
    )
    assert fourier_transform(mu, 0.0) == pytest.approx(3.0 + (-1 + 0.5) * 1j)


@given(
    st.lists(st.floats(min_value=-20, max_value=20), min_size=1, max_size=8, unique=True),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_fourier_linearity(points, x, scale):
    pts = np.array(sorted(points))
    w1 = np.exp(1j * pts)
    w2 = np.cos(pts) + 0.5j
    mu1 = DiscreteMeasure(pts, w1)
    mu2 = DiscreteMeasure(pts, w2)
    mu_sum = DiscreteMeasure(pts, w1 + scale * w2)
    lhs = fourier_transform(mu_sum, x)
    rhs = fourier_transform(mu1, x) + scale * fourier_transform(mu2, x)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_fourier_brute_force_agreement():
    pts = np.array([-3.0, 0.5, 4.0])
    w = np.array([1.0 + 0j, -2.0j, 0.25])
    mu = DiscreteMeasure(pts, w)
    xs = np.linspace(-4.0, 4.0, 17)
    vals = fourier_transform(mu, xs)
    for x, v in zip(xs, vals):
        direct = sum(wk * cmath.exp(1j * x * pk) for pk, wk in zip(pts, w))
        assert v == pytest.approx(direct, abs=1e-12)


def test_conjugation_symmetry_real_transform():
    # real weights symmetric under point negation -> real Fourier transform
    pts = np.array([-5.0, -2.0, 2.0, 5.0])
    w = np.array([0.3, 1.2, 1.2, 0.3], dtype=complex)
    mu = DiscreteMeasure(pts, w)
    xs = np.linspace(-3.0, 3.0, 31)
    vals = fourier_transform(mu, xs)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_modulate_shifts_transform():
    # the transform on [-a', a'] is the one-sided design's on [0, 2a']
    a_prime = 1.5
    mu = symmetric_gap_measure(a_prime, 32)
    one_sided = lattice_gap_measure(2.0 * a_prime, 32)
    assert np.array_equal(mu.points, one_sided.points)
    xs = np.linspace(-2.0, 2.0, 17)
    assert np.allclose(fourier_transform(mu, xs), fourier_transform(one_sided, xs + a_prime), atol=1e-12)


# --------------------------------------------------------------- gap measure


def test_lattice_gap_measure_bad_inputs():
    with pytest.raises(BadArgument):
        lattice_gap_measure(0.0, 64)
    with pytest.raises(BadArgument):
        lattice_gap_measure(TWO_PI, 64)
    with pytest.raises(ValueError):
        lattice_gap_measure(3.0, 16)


def test_lattice_gap_measure_shape():
    mu = lattice_gap_measure(math.pi, 64)
    assert len(mu) == 129
    assert np.array_equal(mu.points, np.arange(-64.0, 65.0))
    assert mu.total_variation == pytest.approx(1.0)


def test_lattice_gap_measure_weights_match_fft_oracle():
    a, n_terms, q = 3.14159, 256, 4096
    margin = (TWO_PI - a) / 8.0
    lo, hi = a + margin, TWO_PI - margin
    t = (np.arange(q) + 0.5) * (TWO_PI / q)
    g = np.zeros(q)
    m = (t > lo) & (t < hi)
    u = t[m] - lo
    width = hi - lo
    g[m] = np.exp(-1.0 / u) * np.exp(-1.0 / (width - u))
    # rectangle-rule Fourier coefficients via the FFT, phase-shifted to the
    # midpoint grid with signed frequencies
    c = np.fft.fft(g) / q
    n_signed = np.where(np.arange(q) <= q // 2, np.arange(q), np.arange(q) - q)
    c *= np.exp(-1j * n_signed * (math.pi / q))
    coeff = np.concatenate([c[-n_terms:], c[: n_terms + 1]])
    coeff /= np.sum(np.abs(coeff))
    mu = lattice_gap_measure(a, n_terms)
    assert np.max(np.abs(mu.weights - coeff)) < 1e-14


def test_verify_gap_on_designed_measure():
    mu = lattice_gap_measure(3.14159, 256)
    chk = verify_gap(mu, (0.4, 2.7), 1e-3)
    assert chk.max_abs <= 1e-6
    assert 0.4 <= chk.argmax <= 2.7


def test_verify_gap_outside_gap_is_large():
    mu = lattice_gap_measure(3.14159, 256)
    chk = verify_gap(mu, (4.0, 5.0), 1e-2)
    assert chk.max_abs > 1e-3


def test_finite_smoothness_variant():
    mu = lattice_gap_measure(3.0, 64, smoothness=2)
    chk = verify_gap(mu, (0.3, 2.7), 1e-3)
    # C^2 bump coefficients decay like n^-4
    assert chk.max_abs < 1e-4
    # the smooth bump's exp(-c sqrt(n)) decay only overtakes the polynomial
    # rate at larger truncations; compare at N = 256 where it has
    smooth = verify_gap(lattice_gap_measure(3.0, 256), (0.3, 2.7), 1e-3)
    rough = verify_gap(lattice_gap_measure(3.0, 256, smoothness=2), (0.3, 2.7), 1e-3)
    assert smooth.max_abs < rough.max_abs / 10


def test_symmetric_gap_measure_vanishes_symmetrically():
    a_prime = 3.14159 / 2
    mu = symmetric_gap_measure(a_prime, 256)
    inner = verify_gap(mu, (-a_prime + 0.05, a_prime - 0.05), 1e-3)
    assert inner.max_abs <= 1e-6


def test_verify_gap_memory_is_bounded():
    # a dense grid x atom product would hold 2001 * 4001 complex entries (128 MB)
    mu = lattice_gap_measure(3.0, 1000)
    tracemalloc.start()
    try:
        chk = verify_gap(mu, (0.0, 4.0), 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mu) == 2001
    assert peak < 64 * 2**20
    xs = 1e-3 * np.arange(4001)
    full = np.abs(np.exp(1j * np.outer(xs, mu.points)) @ mu.weights)
    assert abs(chk.max_abs - float(full.max())) < 1e-15
    assert chk.argmax == float(xs[np.argmax(full)])


def _mp_transform(mu, xs):
    """mu^(x) for each double x as a 40-digit sum over the atoms."""
    with mpmath.workdps(40):
        ws = [mpmath.mpc(w.real, w.imag) for w in mu.weights.tolist()]
        ps = [mpmath.mpf(p) for p in mu.points.tolist()]
        return [
            complex(mpmath.fdot(ws, [mpmath.expj(mpmath.mpf(x) * p) for p in ps]))
            for x in np.atleast_1d(xs).tolist()
        ]


def _assert_grid_matches_mpmath(mu, lo, step, count, samples):
    vals = _grid_transform(mu, lo, step, count)
    assert vals.shape == (count,)
    rng = np.random.default_rng(count)
    ks = sorted({0, count - 1, *rng.integers(0, count, samples).tolist()})
    xs = lo + step * np.arange(count)
    ref = _mp_transform(mu, xs[ks])
    assert np.max(np.abs(vals[ks] - ref)) < 2e-15


# each n runs both smoothness classes, and on and off the designed gap
# [0, 3]; 2201 and 2801 grid points are not multiples of the split width
@pytest.mark.parametrize(
    "n, smoothness, interval",
    [
        (64, "inf", (0.4, 2.6)),
        (64, 8, (3.4, 6.2)),
        (1000, "inf", (3.4, 6.2)),
        (1000, 8, (0.4, 2.6)),
        (4000, "inf", (0.4, 2.6)),
        (4000, 8, (3.4, 6.2)),
    ],
)
def test_grid_transform_matches_mpmath(n, smoothness, interval):
    mu = lattice_gap_measure(3.0, n, smoothness)
    lo, hi = interval
    count = int(math.floor((hi - lo) / 1e-3)) + 1
    assert count % (math.isqrt(count - 1) + 1) != 0
    _assert_grid_matches_mpmath(mu, lo, 1e-3, count, samples=3 if n == 4000 else 10)


def test_grid_transform_matches_mpmath_off_the_lattice():
    # designed weights on atoms 0.7*n + 0.25, modulated by 0.37
    base = lattice_gap_measure(3.0, 150)
    points = 0.7 * base.points + 0.25
    mu = DiscreteMeasure(points, base.weights * np.exp(1j * 0.37 * points))
    for count in (1, 2, 5, 1000, 1001):
        _assert_grid_matches_mpmath(mu, -1.3, 0.0137, count, samples=10)


def test_verify_gap_single_grid_point():
    mu = lattice_gap_measure(3.0, 64)
    chk = verify_gap(mu, (4.0, 4.0005), 1e-3)
    assert chk.argmax == 4.0
    assert abs(chk.max_abs - abs(_mp_transform(mu, 4.0)[0])) < 2e-15


def test_fourier_transform_flattens_a_grid_array():
    mu = lattice_gap_measure(3.0, 64)
    x = np.linspace(0.0, 3.0, 12).reshape(3, 4)
    direct = np.exp(1j * np.outer(x, mu.points)) @ mu.weights
    np.testing.assert_allclose(fourier_transform(mu, x), direct.reshape(3, 4), rtol=0, atol=1e-15)


def test_size_caps_refuse_before_allocating():
    mu = lattice_gap_measure(3.0, 64)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuard):
            lattice_gap_measure(3.0, TERMS_CAP + 1)
        with pytest.raises(SizeGuard):
            verify_gap(mu, (0.0, 1.0), 1.0 / GRID_POINTS_CAP)
        with pytest.raises(SizeGuard):
            verify_gap(mu, (0.4, 2.6), 1e-320)  # the step count overflows to inf
        for argv in (
            ["cauchy", "--gap", "3", "--x", "1", "--y-count", "10000000000"],
            ["ftype", "--y-count", "10000000000"],
            ["density", "--seq", "lattice:1", "--radius", "1e11"],
            ["density", "--seq", "squares", "--radius", "1e300"],
            ["density", "--seq", "logperturbed", "--radius", "1e11"],
        ):
            assert run(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refused design's nodes alone would take 16 MB, the grid 8 MB
    assert peak < 2**20


# ------------------------------------------------- design past 2048 terms
#
# On the gap the bump vanishes, so the designed transform equals minus the
# Fourier tail of the bump beyond n_terms, divided by the total variation
# (at least c_0).  Integrating by parts k times,
#     |c_m| <= ||g^(k)||_1 / (2 pi |m|^k),
# so the tail is at most ||g^(k)||_1 n^(1-k) / (pi (k-1)).  ||g^(k)||_1 is
# the total variation of g^(k-1), summed on a fine grid (a lower estimate,
# hence the factor 2); g^(k-1) comes from the Leibniz recurrence of
# g' = phi' g for the C-infinity bump and from the polynomial for C^8.  The
# rounding allowance covers phases up to n_terms * (2 pi + x_max).


def _bump_geometry(a):
    margin = (TWO_PI - a) / 8.0
    return a + margin, TWO_PI - 2.0 * margin - a


def _bump_derivative(u, width, smoothness, order):
    if smoothness == "inf":
        dphi = [None] + [
            -((-1.0) ** j) * math.factorial(j) / u ** (j + 1)
            - math.factorial(j) / (width - u) ** (j + 1)
            for j in range(1, order + 1)
        ]
        ders = [np.exp(-1.0 / u - 1.0 / (width - u))]
        for n in range(order):
            ders.append(sum(math.comb(n, i) * dphi[i + 1] * ders[n - i] for i in range(n + 1)))
        return ders[order]
    poly = np.polynomial.Polynomial([0.0, width, -1.0]) ** (int(smoothness) + 1)
    return poly.deriv(order)(u)


def _bump_value(width, smoothness):
    if smoothness == "inf":
        return lambda s: mpmath.exp(-1 / s - 1 / (width - s))
    return lambda s: (s * (width - s)) ** (int(smoothness) + 1)


def _gap_bound(a, n_terms, smoothness, x_max, k=9):
    _, width = _bump_geometry(a)
    u = np.linspace(0.0, width, 2**19 + 1)[1:-1]
    der = np.concatenate([[0.0], _bump_derivative(u, width, smoothness, k - 1), [0.0]])
    norm_k = 2.0 * np.abs(np.diff(der)).sum()
    tail = norm_k * float(n_terms) ** (1 - k) / (math.pi * (k - 1))
    c0 = float(mpmath.quad(_bump_value(width, smoothness), [0, width])) / TWO_PI
    return tail / c0 + 4.0 * EPS * n_terms * (TWO_PI + x_max)


@pytest.mark.parametrize("smoothness", ["inf", 8])
@pytest.mark.parametrize("n_terms", [2500, 4000])
def test_gap_stays_at_roundoff_past_2048_terms(n_terms, smoothness):
    a, gap = 3.0, (0.4, 2.6)
    mu = lattice_gap_measure(a, n_terms, smoothness)
    chk = verify_gap(mu, gap, 1e-3)
    assert chk.max_abs <= _gap_bound(a, n_terms, smoothness, gap[1])


@pytest.mark.parametrize("smoothness", ["inf", 8])
def test_design_weights_match_mpmath_coefficients(smoothness):
    # weight ratios w_m / w_0 are coefficient ratios c_m / c_0, free of the
    # total variation normalization
    a, n_terms = 3.0, 2500
    lo, width = _bump_geometry(a)
    mu = lattice_gap_measure(a, n_terms, smoothness)
    bump = _bump_value(width, smoothness)
    with mpmath.workdps(30):
        def coeff(m):
            integrand = lambda s: bump(s) * mpmath.expj(-m * (s + lo))  # noqa: E731
            return complex(mpmath.quad(integrand, mpmath.linspace(0, width, 9)))

        c0 = coeff(0)
        for m in (1, 7, -13, 30):
            want = coeff(m) / c0
            got = mu.weights[n_terms + m] / mu.weights[n_terms]
            assert abs(got - want) <= 1e-14, m


# -------------------------------------------------------------- cauchy decay


def test_cauchy_delta_measure_trivial_sense():
    mu = DiscreteMeasure(np.array([0.0]), np.array([1.0 + 0j]))
    ys = np.geomspace(1e2, 1e7, 16)
    rep = cauchy_decay(mu, 0.0, ys)
    # closed form |1/(-+iy)| = 1/y on both branches
    for branch in (rep.plus, rep.minus):
        assert branch.log_abs == pytest.approx(-np.log(ys), rel=1e-12)
    assert rep.verdict == "VanishesCompatible"
    assert abs(rep.plus.rate) < 1e-5
    assert abs(rep.minus.rate) < 1e-5


def test_cauchy_round_trip_inside_gap():
    a_prime = 3.14159 / 2
    mu = symmetric_gap_measure(a_prime, 256)
    ys = np.linspace(2.0, 20.0, 10)
    for x in (a_prime / 2, -a_prime / 2):
        rep = cauchy_decay(mu, x, ys)
        assert rep.verdict == "VanishesCompatible"
        assert rep.plus.log_abs[-1] <= math.log(1e-6)
        assert rep.minus.log_abs[-1] <= math.log(1e-6)


def test_cauchy_outside_gap_grows():
    a_prime = 3.14159 / 2
    mu = symmetric_gap_measure(a_prime, 256)
    ys = np.linspace(2.0, 20.0, 10)
    for x in (2 * a_prime, -2 * a_prime):
        rep = cauchy_decay(mu, x, ys)
        assert rep.verdict == "Not"
        assert max(rep.plus.log_abs[-1], rep.minus.log_abs[-1]) > 0.0


def test_cauchy_requires_increasing_positive_ladder():
    mu = DiscreteMeasure(np.array([0.0]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        cauchy_decay(mu, 0.0, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cauchy_decay(mu, 0.0, [-1.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cauchy_decay(mu, 0.0, [1.0, 3.0, 2.0, 4.0])


def test_cauchy_overflow_saturates_to_inf():
    # e^{xy} beyond the double range must not raise: the magnitude lives in log scale
    mu = DiscreteMeasure(np.array([1.0]), np.array([1.0 + 0j]))
    rep = cauchy_decay(mu, 100.0, np.array([2.0, 4.0, 8.0, 16.0]))
    assert rep.verdict == "Not"
    assert np.all(np.isfinite(rep.plus.log_abs))
    # closed form at x*y = 1600: 1600 + log|1/(1 - 16i)|
    assert rep.plus.log_abs[-1] == pytest.approx(1600.0 - 0.5 * math.log(257.0), rel=1e-15)


# -------------------------------------------------------------- gram matrix


def test_gram_entries_match_quadrature():
    pts = np.arange(-20.0, 21.0)
    a = math.pi
    g = gram_matrix(pts, a)
    rng = np.random.default_rng(11)
    for _ in range(25):
        j, k = rng.integers(0, len(pts), size=2)
        d = pts[k] - pts[j]

        re, _ = scipy.integrate.quad(lambda t: math.cos(d * t), 0.0, a)
        im, _ = scipy.integrate.quad(lambda t: math.sin(d * t), 0.0, a)
        assert g[j, k] == pytest.approx(complex(re, im), abs=1e-10)


def test_gram_is_hermitian_psd():
    pts = np.array([-3.0, -1.0, 0.0, 2.0, 5.5])
    g = gram_matrix(pts, 2.0)
    assert np.allclose(g, g.conj().T)
    vals = np.linalg.eigvalsh(g)
    assert vals[0] > -1e-12
    assert np.allclose(np.diag(g).real, 2.0)


def test_gram_quadratic_form_is_transform_energy():
    # c* G c with c = weights equals the integral of |mu-hat|^2 over [0, a]
    a = 3.0
    mu = lattice_gap_measure(a, 64)
    g = gram_matrix(mu.points, a)
    c = mu.weights
    quad_form = float(np.real(c.conj() @ g @ c))

    def integrand(t):
        return abs(fourier_transform(mu, t)) ** 2

    energy, err = scipy.integrate.quad(integrand, 0.0, a, limit=400)
    assert quad_form == pytest.approx(energy, rel=1e-8, abs=max(10 * err, 1e-13))
    # and is bounded by the verified residual on the gap
    chk = verify_gap(mu, (0.0, a), 1e-3)
    assert quad_form <= chk.max_abs**2 * a * (1.0 + 1e-6) + 1e-18


def test_sinc_kernel_entries_match_mpmath():
    # centered: 2 sin(d a/2)/d = a sinc(d a/2), and a on the diagonal
    pts = np.sort(np.random.default_rng(5).uniform(-300.0, 300.0, 40))
    for a in (0.5, math.pi, 7.0):
        s = gram_matrix(pts, a, centered=True)
        assert s.dtype == np.float64 and np.array_equal(s, s.T)
        with mpmath.workdps(40):
            want = [
                [a * mpmath.sinc((mpmath.mpf(q) - mpmath.mpf(p)) * mpmath.mpf(a) / 2) for q in pts]
                for p in pts
            ]
        err = max(abs(s[m, n] - float(want[m][n])) for m in range(pts.size) for n in range(pts.size))
        assert err <= 8 * EPS * a


@pytest.mark.parametrize(
    "points, a",
    [
        (np.arange(-100.0, 101.0), math.pi),
        (np.arange(-100.0, 101.0), 7.0),
        (np.cumsum(np.full(300, 1.1)) + 0.37 * np.sin(np.arange(300)), 2.0),
        (np.sign(np.arange(-20.0, 21.0)) * np.arange(-20.0, 21.0) ** 2, 0.5),
    ],
)
def test_sinc_kernel_spectrum_matches_gram_on_zero_a(points, a):
    # G = D* S D with D unitary: the [0, a] form has the same eigenvalues
    want = np.linalg.eigvalsh(gram_matrix(points, a))
    got = np.linalg.eigvalsh(gram_matrix(points, a, centered=True))
    assert np.max(np.abs(got - want)) <= points.size * EPS * want[-1]


def test_gram_refuses_an_overflowing_phase():
    # d*a/2 must stay finite, or sin(inf) leaves NaN in the matrix
    with pytest.raises(BadArgument, match="overflows"):
        gram_matrix(np.array([-100.0, 100.0]), 1e307)
    assert np.all(np.isfinite(gram_matrix(np.array([-100.0, 100.0]), 1e305)))


def test_gram_rejects_repeated_points():
    # a repeated point would leave 0/0 off the diagonal
    with pytest.raises(ValueError, match="distinct"):
        gram_matrix(np.array([0.0, 1.0, 1.0]), 2.0)


def test_gram_size_guard():
    with pytest.raises(SizeGuard):
        gram_matrix(np.arange(0.0, 600.0), 1.0)


# --------------------------------------------------------- min gap residual


@pytest.fixture(scope="module")
def lattice301():
    return load_sequence(np.arange(-150.0, 151.0))


def test_gap_probe_lattice_below_two_pi(lattice301):
    rep = min_gap_residual(lattice301, math.pi, [21, 51, 101, 201])
    assert rep.classification == "DecaysToZero"
    # the plunge is superexponential: every raw value is at machine zero
    assert all(
        raw <= floor for raw, floor in zip(rep.min_eigenvalues, rep.noise_floors)
    )


def test_gap_probe_visible_plunge(lattice301):
    rep = min_gap_residual(lattice301, math.pi, [5, 7, 9, 11, 13])
    assert rep.classification == "DecaysToZero"
    assert rep.fall_factor >= 10.0
    vals = rep.min_eigenvalues
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # frozen from the oracle run
    assert vals[0] == pytest.approx(1.465e-2, rel=1e-2)
    assert vals[4] == pytest.approx(2.006e-8, rel=1e-2)


def test_gap_probe_lattice_above_two_pi(lattice301):
    rep = min_gap_residual(lattice301, 7.0, [21, 51, 101, 201])
    assert rep.classification == "BoundedBelow"
    # exponentials over more than one period: G = 2*pi*I + (PSD Gram on the
    # leftover subinterval), so lambda_min is pinned at 2*pi
    for v in rep.min_eigenvalues:
        assert v == pytest.approx(TWO_PI, rel=1e-9)


def test_gap_probe_one_window_is_no_evidence_of_a_bound(lattice301):
    # "every value within 2x of the first" holds vacuously for one value
    rep = min_gap_residual(lattice301, 7.0, [201])
    assert rep.classification == "Inconclusive"
    assert rep.min_eigenvalues == [pytest.approx(TWO_PI, rel=1e-9)]


def test_gap_probe_squares_recorded_classification():
    sq = parse_generator("squares", 10000.0)
    rep = min_gap_residual(sq, 0.5, [21, 51, 101, 201])
    # recorded from the oracle run: the centered windows cluster near 0 and
    # the exponentials are locally near-dependent on [0, 0.5], so the probe
    # floors at machine zero at every size.  squares has D+ = 0, so its
    # exponentials are a Riesz sequence for every a > 0: this DecaysToZero
    # comes from the terminal-floor rule, not from the gap
    assert rep.classification == "DecaysToZero"
    assert all(v <= f for v, f in zip(rep.min_eigenvalues, rep.noise_floors))


def _window_kernel(seq, a, n):
    start = (len(seq) - n) // 2
    return gram_matrix(seq.points[start : start + n], a, centered=True)


PROBE_CASES = [
    (np.arange(-150.0, 151.0), math.pi, [5, 8, 21, 50, 101, 200]),
    (np.arange(-150.0, 151.0), 7.0, [21, 51, 101, 201]),
    (np.cumsum(np.full(300, 1.1)) + 0.37 * np.sin(np.arange(300)), 2.0, [7, 20, 63, 128, 256, 300]),
]


@pytest.mark.parametrize("points, a, sizes", PROBE_CASES)
def test_min_gap_residual_matches_per_window_gram_bit_for_bit(points, a, sizes, monkeypatch):
    # the nested blocks the probe solves are the per-window kernels, bit for bit
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(m):
        seen.append(np.array(m))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    seq = load_sequence(points)
    rep = min_gap_residual(seq, a, sizes)
    assert [m.shape[0] for m in seen] == sizes
    for k, n in enumerate(sizes):
        fresh = _window_kernel(seq, a, n)
        assert np.array_equal(seen[k], fresh)
        vals = eigvalsh(fresh)
        assert rep.min_eigenvalues[k] == float(vals[0])
        assert rep.noise_floors[k] == n * EPS * max(float(vals[-1]), 1.0)


@pytest.mark.parametrize(
    "points, a, sizes",
    PROBE_CASES
    + [
        (logperturbed_points(300), 7.0, [21, 101, 256, 512]),
        (parse_generator("squares", 10000.0).points, 0.5, [21, 51, 101, 201]),
        (logperturbed_points(30), 4.068, [5, 11, 21]),
    ],
)
def test_min_gap_residual_agrees_with_a_full_eigensolve(points, a, sizes):
    seq = load_sequence(points)
    rep = min_gap_residual(seq, a, sizes)
    for k, n in enumerate(sizes):
        kernel = _window_kernel(seq, a, n)
        vals = np.linalg.eigh(kernel).eigenvalues
        lam_min, floor = rep.min_eigenvalues[k], rep.noise_floors[k]
        assert abs(lam_min - vals[0]) <= n * EPS * vals[-1]
        # the floor is n * eps * max(lambda_max, 1)
        assert abs(floor / (n * EPS) - max(vals[-1], 1.0)) <= n * EPS * vals[-1]


def test_min_gap_residual_runs_without_a_full_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the probe needs only eigenvalues")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for seq, a in (
        (parse_generator("lattice:1", 300.0), 3.15),
        (load_sequence(logperturbed_points(300)), 7.0),
    ):
        rep = min_gap_residual(seq, a, [64, 128, 256, 512])
        assert not rep.breakdown and len(rep.min_eigenvalues) == 4


def test_probe_eigenvalues_match_complex_gram_at_isolated_eigenvalue():
    # logperturbed at a = 7: lambda_min is well separated from the rest of
    # the spectrum, and the real sinc kernel's values are those of the
    # complex Gram matrix on [0, a] to within the backward error scale
    seq = load_sequence(logperturbed_points(300))
    sizes = [21, 101, 256, 512]
    rep = min_gap_residual(seq, 7.0, sizes)
    assert rep.classification == "BoundedBelow"
    for k, n in enumerate(sizes):
        start = (len(seq) - n) // 2
        vals = np.linalg.eigvalsh(gram_matrix(seq.points[start : start + n], 7.0))
        assert vals[1] - vals[0] >= 0.01 * vals[-1]
        assert rep.min_eigenvalues[k] > rep.noise_floors[k]
        assert abs(rep.min_eigenvalues[k] - vals[0]) <= n * EPS * vals[-1]


def _two_sided():
    """Step 1 on [-1500, 0) and step 3 on [0, 4500]: D_* = 1/3, D+ = 1."""
    return load_sequence(np.concatenate((np.arange(-1500.0, 0.0), np.arange(0.0, 4501.0, 3.0))))


def _holes():
    """The integers in [-1e5, 1e5] without +-[4^k, 1.5*4^k), k = 1..8, cut
    at 1500: each hole holds no point, so D_* = 0, and D+ = 1."""
    k = np.arange(-100000, 100001)
    keep = np.ones(k.size, dtype=bool)
    for j in range(1, 9):
        keep &= ~((np.abs(k) >= 4.0**j) & (np.abs(k) < 1.5 * 4.0**j))
    return load_sequence(k[keep].astype(float)).within(1500.0)


@pytest.mark.parametrize("build", [_two_sided, _holes], ids=["two_sided", "holes"])
def test_gap_probe_flips_at_two_pi_times_the_upper_density(build):
    # The probe tests whether the exponentials form a Riesz sequence on an
    # interval of length a: they do when D+ < a/2pi (Beurling, Kahane) and
    # do not when D+ > a/2pi (Landau).  Both sequences hold stretches of
    # the integers, D+ = 1, so the flip sits near 2*pi whatever D_* is.
    seq = build()
    assert min_gap_residual(seq, 6.0, [64, 128, 256, 512]).classification == "DecaysToZero"
    assert min_gap_residual(seq, 6.6, [64, 128, 256, 512]).classification == "BoundedBelow"
    if build is _two_sided:
        # the density sees the sparser side: 2*pi*D_* is about 2.1, far below the flip
        rep = interior_density(seq)
        assert (rep.a_lower, rep.a_upper) == (0.3125, 0.34375)


def test_gap_probe_guards(lattice301):
    with pytest.raises(ValueError):
        min_gap_residual(lattice301, 1.0, [51, 21])
    with pytest.raises(SizeGuard):
        min_gap_residual(lattice301, 1.0, [21, 600])
    with pytest.raises(ValueError):
        min_gap_residual(lattice301, 1.0, [21, 302])


def test_gap_preconditions_raise_bad_argument():
    mu = lattice_gap_measure(3.0, 32)
    for call in (
        lambda: lattice_gap_measure(3.0, 31),
        lambda: lattice_gap_measure(3.0, 32, -1),
        lambda: lattice_gap_measure(3.0, 32, 10**400),
        lambda: verify_gap(mu, (0.4, 2.6), math.inf),
        lambda: verify_gap(mu, (0.4, math.nan), 1e-3),
        lambda: cauchy_decay(mu, math.nan, [1.0, 2.0, 3.0, 4.0]),
        lambda: cauchy_decay(mu, 1e300, [1.0, 2.0, 3.0, 4.0]),  # the fit would square x*y
        lambda: cauchy_decay(mu, 0.5, [1.0, 2.0, 3.0, 4.0], math.inf),
        lambda: cauchy_decay(mu, 0.5, [1.0, 2.0, 3.0, math.inf]),
        lambda: gram_matrix(np.arange(4.0), math.inf),
        lambda: min_gap_residual(parse_generator("lattice:1", 10.0), 1.0, [0, 5]),
    ):
        with pytest.raises(BadArgument):
            call()


@pytest.mark.parametrize("gap", [3.0, 5.5])
def test_bump_beyond_double_range_is_refused(gap, recwarn):
    # at gap 3 the C^k bump overflows to inf, at 5.5 it underflows to 0
    with pytest.raises(BadArgument, match="smoothness 100000"):
        lattice_gap_measure(gap, 64, 100000)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
