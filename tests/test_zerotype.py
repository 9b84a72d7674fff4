import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmlab.density import interior_density
from bmlab.errors import BadArgument, EmptyRange
from bmlab.zerotype import (
    _cos_sqrt,
    eval_qcos,
    log_abs_cos,
    log_abs_qcos,
    qcos_zeros,
    type_estimate,
    zero_set_qcos,
)

PI = math.pi
EPS = np.finfo(float).eps


# --------------------------------------------------------------- evaluation


def test_value_at_zero_is_one():
    assert eval_qcos(0.0) == pytest.approx(1.0)


def test_first_zero():
    assert abs(eval_qcos(PI / 8)) < 1e-14


def test_conjugation_symmetry():
    for z in (1.3 + 0.7j, -2.0 + 0.1j, 5.0 - 3.0j):
        assert eval_qcos(z.conjugate()) == pytest.approx(
            eval_qcos(z).conjugate(), rel=1e-12
        )


def test_real_on_real_axis():
    xs = np.linspace(-20.0, 20.0, 41)
    for x in xs:
        v = eval_qcos(complex(x))
        assert abs(v.imag) < 1e-9 * (1.0 + abs(v))


def test_series_branch_agreement_on_overlap():
    # the series is used for |w| <= 30, cos(sqrt(w)) beyond; both must agree
    # near the switch radius away from zeros of cos
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = rng.uniform(25.0, 30.0)
        th = rng.uniform(0.0, 2 * PI)
        w = complex(r * math.cos(th), r * math.sin(th))
        series = _cos_sqrt(w)
        branch = cmath.cos(cmath.sqrt(w))
        if abs(branch) > 1e-6:
            assert abs(series - branch) / abs(branch) < 1e-10


def test_branch_independent_of_sqrt_sign():
    # evenness of cos kills the branch cut: cos(sqrt(w)) == cos(-sqrt(w))
    for w in (40.0 + 1j, -35.0 + 5j, 100.0 - 40j):
        s = cmath.sqrt(w)
        assert cmath.cos(s) == pytest.approx(cmath.cos(-s), rel=1e-12)


# -------------------------------------------------------------------- zeros


def test_zeros_on_documented_window():
    zeros = qcos_zeros((0.0, 10.0))
    assert np.allclose(zeros, [PI / 8, 9 * PI / 8, 25 * PI / 8])


def test_zero_set_symmetric_window():
    seq = zero_set_qcos((-60.0, 60.0))
    pts = seq.points
    assert np.allclose(pts, -pts[::-1])
    # smallest gap is between -pi/8 and pi/8
    assert seq.delta == pytest.approx(PI / 4)


def test_zero_gaps_grow_linearly():
    seq = zero_set_qcos((0.0, 1e4))
    gaps = np.diff(seq.points)
    # pi (2k+1)^2 / 8: consecutive gaps are pi (k+1)
    assert np.allclose(np.diff(gaps), PI)


def test_zero_set_empty_window():
    with pytest.raises(EmptyRange):
        zero_set_qcos((0.5, 1.0))


def zeros_by_loop(lo, hi):
    """The zeros in [lo, hi], walking k up while pi (2k+1)^2 / 8 is within the reach."""
    zeros, k = [], 0
    while (z := PI * (2 * k + 1) ** 2 / 8.0) <= max(hi, -lo):
        zeros += [v for v in (-z, z) if lo <= v <= hi]
        k += 1
    return np.array(sorted(zeros))


def test_a_closed_window_keeps_the_zeros_on_its_ends():
    # sqrt(8 z_k / pi) rounds down below 2k+1 for k = 107, 112, 115, ...
    for k in range(3000):
        z = PI * (2 * k + 1) ** 2 / 8.0
        zeros = qcos_zeros((-z, z))
        assert zeros.size == 2 * (k + 1) and zeros[0] == -z and zeros[-1] == z, k


Z107 = PI * 215**2 / 8.0  # sqrt(8 z / pi) rounds below 215 here


@pytest.mark.parametrize(
    "window",
    [
        (-10.0, 1000.0),
        (0.1, 50.0),
        (-50.0, -0.1),
        (-1e6, 1e6),
        (-0.5, 0.3),
        (0.0, Z107),
        (-Z107, 0.0),
        (PI * 9**2 / 8.0 + 0.5, PI * 11**2 / 8.0 - 0.5),  # between two zeros: none
    ],
)
def test_zeros_equal_the_loop_bit_for_bit(window):
    zeros = qcos_zeros(window)
    assert zeros.dtype == float and zeros.tobytes() == zeros_by_loop(*window).tobytes()


def test_evaluation_at_zeros_within_float_budget():
    # the float budget 1e-9 (1+|lambda|) holds on the inner zeros; beyond
    # k ~ 6 the cosh factor amplifies rounding past any fixed polynomial
    # bound, so the claim is made on the window where doubles can honor it
    seq = zero_set_qcos((0.0, 48.0))
    for lam in seq.points:
        assert abs(eval_qcos(lam)) <= 1e-9 * (1.0 + abs(lam))


# -------------------------------------------------------------- log modulus


def test_log_abs_cos_matches_direct_at_moderate_height():
    rng = np.random.default_rng(3)
    for _ in range(100):
        w = complex(rng.uniform(-50, 50), rng.uniform(-35, 35))
        direct = abs(cmath.cos(w))
        if direct > 1e-300:
            assert log_abs_cos(w) == pytest.approx(math.log(direct), abs=1e-9)


def test_log_abs_cos_peeled_branch_matches_direct():
    # |Im w| in [45, 300] takes the peeled form yet direct cos is still
    # finite, so the two paths can be compared outright
    rng = np.random.default_rng(11)
    for _ in range(100):
        v = rng.uniform(45.0, 300.0) * rng.choice([-1.0, 1.0])
        w = complex(rng.uniform(-50, 50), v)
        direct = math.log(abs(cmath.cos(w)))
        assert log_abs_cos(w) == pytest.approx(direct, abs=1e-9)


def test_log_abs_qcos_matches_direct():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        direct = abs(eval_qcos(z))
        if direct > 1e-300:
            assert log_abs_qcos(z) == pytest.approx(math.log(direct), rel=1e-9, abs=1e-9)


def test_log_abs_qcos_beyond_overflow():
    # at y = 1e6, log|F(iy)| ~ 2 sqrt(pi y) ~ 3545: direct evaluation
    # overflows but the log path stays finite
    v = log_abs_qcos(1e6j)
    assert v == pytest.approx(2 * math.sqrt(PI * 1e6), rel=1e-2)


def _mp_log_abs_cos(w):
    with mpmath.workdps(50):
        return float(mpmath.log(abs(mpmath.cos(mpmath.mpc(w.real, w.imag)))))


@pytest.mark.parametrize("height", [39.9, 40.0, 40.1, -39.9, -40.0, -40.1])
def test_log_abs_cos_matches_mpmath_across_the_switch(height):
    # |Im w| = 40 separates cmath.cos from the peeled form
    for re in (0.0, 0.3, PI / 2, -2.5, 100.25):
        w = complex(re, height)
        assert log_abs_cos(w) == pytest.approx(_mp_log_abs_cos(w), rel=4 * EPS)


def test_log_abs_cos_matches_mpmath_near_real_zeros():
    for k in range(-5, 40, 3):
        for dist in (1e-8, -1e-8, 1e-9, 3e-12, -1e-15):
            for im in (0.0, 1e-9, -1e-8):
                w = complex((k + 0.5) * PI + dist, im)
                assert log_abs_cos(w) == pytest.approx(_mp_log_abs_cos(w), rel=4 * EPS)


def _mp_log_abs_qcos(z):
    """log|F(z)| at 50 digits, with the condition number of each factor.

    log_abs_qcos rounds w = sqrt(+-2 pi z) to doubles first; an error of
    eps*|w| in w moves log|cos w| by eps*|w tan w|.
    """
    with mpmath.workdps(50):
        zm = mpmath.mpc(z.real, z.imag)
        ws = [mpmath.sqrt(s * 2 * mpmath.pi * zm) for s in (1, -1)]
        value = mpmath.log(abs(mpmath.cos(ws[0]) * mpmath.cos(ws[1])))
        cond = sum(abs(w * mpmath.tan(w)) for w in ws)
        return float(value), float(cond)


def test_log_abs_qcos_matches_mpmath_across_the_switch():
    # z = w^2 / (2 pi) puts Im sqrt(2 pi z) on either side of 40
    for height in (39.9, 40.0, 40.1):
        for re in (0.5, 3.0, 60.0):
            for sign in (1.0, -1.0):
                w = complex(re, sign * height)
                z = w * w / (2 * PI)
                ref, _ = _mp_log_abs_qcos(z)
                assert log_abs_qcos(z) == pytest.approx(ref, rel=4 * EPS)


def test_log_abs_qcos_matches_mpmath_near_real_zeros():
    for z0 in qcos_zeros((-600.0, 600.0)):
        for dist in (1e-8, -1e-8, 1e-9, 5e-10):
            for im in (0.0, 1e-9):
                z = complex(z0 + dist, im)
                ref, cond = _mp_log_abs_qcos(z)
                assert abs(log_abs_qcos(z) - ref) <= 2 * EPS * cond + 1e-14


# ------------------------------------------------------------ type estimate


def test_type_of_cos_documented_ladder():
    est = type_estimate(log_abs_cos, np.geomspace(0.05, 50.0, 16))
    assert est.fitted_type == pytest.approx(1.0, abs=0.01)


def test_type_of_scaled_cos():
    for a in (0.5, 1.0, 2.0):
        est = type_estimate(lambda z, a=a: log_abs_cos(a * z), np.geomspace(0.5, 80.0, 16))
        assert est.fitted_type == pytest.approx(a, rel=0.01)


def test_type_of_constant_is_zero():
    est = type_estimate(lambda _z: 0.0, np.geomspace(1.0, 1e4, 16))
    assert est.fitted_type == 0.0


def test_type_of_qcos_with_log_path():
    ys = np.geomspace(10.0, 1e6, 64)
    est = type_estimate(log_abs_qcos, ys)
    assert est.fitted_type <= 0.01
    # frozen from the oracle run
    assert est.fitted_type == pytest.approx(0.003538, abs=2e-4)
    assert est.fitted_sqrt_coeff == pytest.approx(2 * math.sqrt(PI), rel=1e-3)


def test_type_slope_is_recomputable():
    ys = np.geomspace(0.05, 50.0, 16)
    est = type_estimate(log_abs_cos, ys)
    top = slice(len(ys) - len(ys) // 2, None)
    slope = np.polyfit(ys[top], np.array(est.log_moduli)[top], 1)[0]
    assert est.fitted_type == pytest.approx(slope, rel=1e-9)


def test_type_of_cos_past_double_range():
    # |cos(iy)| = cosh(y) leaves double range near y = 710; log scale fits
    # the ladder that direct evaluation could not
    est = type_estimate(log_abs_cos, np.geomspace(10.0, 1e6, 16))
    assert np.all(np.isfinite(est.log_moduli))
    assert est.fitted_type == pytest.approx(1.0, rel=1e-12)


def test_type_of_a_modulus_never_finite_is_nan():
    # no finite point is left to fit: the too_few value of both fits
    est = type_estimate(lambda _z: -math.inf, np.geomspace(10.0, 1e3, 8))
    assert math.isnan(est.fitted_type) and math.isnan(est.fitted_sqrt_coeff)


def test_type_estimate_needs_eight_values():
    with pytest.raises(ValueError):
        type_estimate(log_abs_cos, np.geomspace(1.0, 10.0, 7))


@given(st.floats(min_value=0.2, max_value=3.0))
@settings(max_examples=20, deadline=None)
def test_type_recovery_property(a):
    est = type_estimate(lambda z: log_abs_cos(a * z), np.geomspace(1.0, 120.0 / a, 12))
    assert est.fitted_type == pytest.approx(a, rel=0.02)


# ----------------------------------------------------------- cross-module


def test_zero_set_density_not_polya():
    seq = zero_set_qcos((-1e6, 1e6))
    rep = interior_density(seq)
    assert rep.polya_class == "NotPolya"


def test_type_estimate_refuses_non_finite_ladder(recwarn):
    with pytest.raises(BadArgument):
        type_estimate(log_abs_cos, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, math.inf])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
