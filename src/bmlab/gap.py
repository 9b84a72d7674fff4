"""Discrete measures on the lattice, designed spectral gaps and Gram probes.

A finite complex measure mu = sum w_n delta_{lambda_n} has Fourier
transform mu^(x) = sum w_n exp(i x lambda_n).  For integer atoms mu^ is
2*pi periodic, so a measure whose transform vanishes on a prescribed
interval [0, a] (0 < a < 2*pi) can be designed by reading the weights off
the Fourier coefficients of a smooth bump supported inside the complement
arc: the truncated Fourier series of the bump is exactly mu^.  The bump
is either the C-infinity glue exp(-1/t)*exp(-1/(w-t)) or a C^k spline
(t*(w-t))^(k+1); its coefficients are read off one FFT of the bump
sampled at the smallest power of two >= 16*n_terms nodes (the periodic
rectangle rule, spectrally accurate for smooth g), and the weight vector
is normalized to total variation 1.

Two independent diagnostics accompany the construction.

* Cauchy transform decay: mu^ vanishes on [-a', a'] iff
  exp(x*y) * sum w_n / (lambda_n - i*y) tends to 0 as y goes to +/- inf
  for every x in [-a', a'].  The quantity is evaluated on both branches
  in log scale so the exponential factor never overflows.

* Gram matrices of exponentials on [0, a]:
  G[m][n] = integral_0^a exp(i (lambda_n - lambda_m) t) dt in closed
  form.  The decay of the smallest eigenvalue along growing centered
  point windows is finite-section evidence, not a decision procedure.
  The probe works on the real sinc kernel, the Gram matrix on
  [-a/2, a/2], which is unitarily similar to G, with a values-only
  symmetric solver.  It measures the upper uniform density D+, not D_*:
  the exponentials form a Riesz sequence on an interval of length a when
  D+ < a/2pi (Beurling, Kahane) and fail to when D+ > a/2pi (Landau,
  Acta Math. 117, 1967), so the flip from DecaysToZero to BoundedBelow
  estimates 2pi*D+.  That is the gap characteristic 2pi*D_* only where
  D_* = D+, as on lattices and their bounded perturbations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .envelope import ENDPOINT_BOUND, INCONCLUSIVE, increasing_ladder, top_half_slope
from .errors import BadArgument, NumericalBreakdown, SizeGuard
from .sequences import SeparatedSequence, as_bounds

TWO_PI = 2.0 * math.pi  # the transform period of a lattice measure, and gap / density

GRAM_SIZE_CAP = 512        # refuse dense eigensolves beyond this
TERMS_CAP = 1 << 16        # n_terms cap: an FFT of at most 2^20 nodes
GRID_POINTS_CAP = 1 << 20  # verify_gap grid points
TRANSFORM_BLOCK = 1 << 18  # exponentials per atom block of verify_gap


@dataclass
class DiscreteMeasure:
    """Finite complex measure: strictly increasing float atom positions and
    complex weights of the same length.  The constructor checks nothing;
    ``lattice_gap_measure`` and ``symmetric_gap_measure`` build it so."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum())

    def __len__(self):
        return int(self.points.size)


def _bump(t, width: float, smoothness) -> np.ndarray:
    """Nonnegative bump on (0, width), zero outside, C^k or C-infinity."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < width)
    out = np.zeros_like(t)
    ts = t[inside]
    if smoothness == "inf":
        out[inside] = np.exp(-1.0 / ts) * np.exp(-1.0 / (width - ts))
    else:
        k = int(smoothness)
        if not 0 <= k <= sys.float_info.max:  # numpy takes the power as a double
            raise BadArgument(f"smoothness must be 'inf' or an integer in [0, 1.8e308], got {k}")
        with np.errstate(over="ignore"):  # lattice_gap_measure refuses an infinite bump
            out[inside] = (ts * (width - ts)) ** (k + 1)
    return out


def design_margin(a: float) -> float:
    """Margin m = (2*pi - a)/8 between the designed gap [0, a] and the bump."""
    return (TWO_PI - a) / 8.0


def lattice_gap_measure(a: float, n_terms: int, smoothness="inf") -> DiscreteMeasure:
    """Design an integer-atom measure whose transform vanishes on [0, a].

    The bump sits on [a + m, 2*pi - m] with margin m = (2*pi - a)/8; its
    Fourier coefficients for |n| <= n_terms become the weights, so mu^
    equals the truncated series of the bump and is small on the designed
    gap up to the series tail.  Weights are normalized to total variation
    one.

    The coefficients come from one FFT of the bump sampled at `nodes`
    points, the smallest power of two >= 16*n_terms.  The rectangle rule
    folds frequency n + k*nodes onto n, so the first coefficient mixed in
    has |frequency| >= 15*n_terms, far down the bump's tail for every
    n_terms; a fixed node count would alias silently once n_terms reached
    half of it.  At n_terms = 256 the rule gives 4096 nodes.

    Parameters
    ----------
    a : float
        Gap length, 0 < a < 2*pi.
    n_terms : int
        Coefficient cutoff, 32 <= n_terms <= TERMS_CAP; the measure has
        2*n_terms+1 atoms.
    smoothness : "inf" or int
        Bump regularity; higher smoothness buys faster tail decay.
    """
    if not 0.0 < a < TWO_PI:
        raise BadArgument(f"gap length must be in (0, 2*pi), got {a:g}")
    if n_terms < 32:
        raise BadArgument(f"n_terms must be at least 32, got {n_terms}")
    if n_terms > TERMS_CAP:
        raise SizeGuard(f"n_terms {n_terms} beyond the cap {TERMS_CAP}")
    margin = design_margin(a)
    lo = a + margin
    width = (TWO_PI - margin) - lo
    nodes = 1 << (16 * n_terms - 1).bit_length()
    t = TWO_PI * np.arange(nodes) / nodes
    g = _bump(t - lo, width, smoothness)
    n = np.arange(-n_terms, n_terms + 1)
    # rectangle rule on the full period; negative n index from the end
    with np.errstate(invalid="ignore", over="ignore"):
        coeff = np.fft.fft(g)[n] / nodes
        tv = float(np.abs(coeff).sum())
    if not 0.0 < tv < math.inf:
        raise BadArgument(f"the smoothness {smoothness} bump on this gap has total variation {tv:g}")
    return DiscreteMeasure(n.astype(float), coeff / tv)


def symmetric_gap_measure(a_prime: float, n_terms: int) -> DiscreteMeasure:
    """Measure with transform vanishing on the symmetric interval [-a', a'].

    Built from the one-sided C-infinity design with gap [0, 2*a'] and
    modulated by a' (weights times exp(i a' lambda_n)), which shifts the
    transform by a' and so centers the vanishing interval at 0.
    """
    mu = lattice_gap_measure(2.0 * a_prime, n_terms)
    return DiscreteMeasure(mu.points, mu.weights * np.exp(1j * a_prime * mu.points))


@dataclass
class GapCheck:
    interval: tuple[float, float]
    grid_step: float
    max_abs: float
    argmax: float


def _grid_transform(mu: DiscreteMeasure, lo: float, step: float, count: int) -> np.ndarray:
    """mu^(lo + step*k) for k < count, in grid order, as one matrix product.

    With B = ceil(sqrt(count)) and k = q*B + r, the exponential splits as
    exp(i (lo + step*q*B) lambda) * exp(i step*r lambda), so the grid is the
    Q x B table coarse @ (fine * w) read row by row.  Atoms go in column
    blocks of TRANSFORM_BLOCK // (Q + B), each filling the same two buffers.
    """
    width = math.isqrt(count - 1) + 1  # B
    rows = -(-count // width)          # Q
    anchors = lo + step * (width * np.arange(rows))
    offsets = step * np.arange(width)
    cols = max(1, min(len(mu), TRANSFORM_BLOCK // (rows + width)))
    coarse = np.empty((cols, rows), dtype=complex)
    fine = np.empty((cols, width), dtype=complex)
    part = np.empty((rows, width), dtype=complex)
    table = np.zeros((rows, width), dtype=complex)
    phase = 1j * mu.points
    for j in range(0, len(mu), cols):
        p = phase[j : j + cols]
        c, f = coarse[: p.size], fine[: p.size]
        np.exp(np.multiply.outer(p, anchors, out=c), out=c)
        np.exp(np.multiply.outer(p, offsets, out=f), out=f)
        f *= mu.weights[j : j + cols, None]
        np.matmul(c.T, f, out=part)
        table += part
    return table.ravel()[:count]


def check_grid_step(grid_step: float) -> None:
    """Refuse a verify_gap grid step that is not positive and finite."""
    if not 0.0 < grid_step < math.inf:
        raise BadArgument(f"grid step must be positive and finite, got {grid_step!r}")


def verify_gap(mu: DiscreteMeasure, interval, grid_step: float) -> GapCheck:
    """Maximum of |mu^| on a uniform grid over the interval, with argmax.

    The grid x_k = lo + grid_step*k is split into coarse and fine steps,
    k = q*B + r with B = ceil(sqrt(count)), so only about
    2*sqrt(count)*atoms exponentials are computed (not count*atoms) and
    the sum over atoms runs as one complex matrix product.  Memory is
    TRANSFORM_BLOCK exponentials plus two tables of about count entries,
    some 36 MB at the GRID_POINTS_CAP grid whatever the atom count.
    """
    lo, hi = as_bounds(interval)
    if not -math.inf < lo < hi < math.inf:
        raise BadArgument(f"need a finite interval lo < hi, got {lo!r}, {hi!r}")
    check_grid_step(grid_step)
    steps = (hi - lo) / grid_step
    if not steps < GRID_POINTS_CAP:
        raise SizeGuard(f"grid of {steps + 1:.3g} points beyond the cap {GRID_POINTS_CAP}")
    count = int(math.floor(steps)) + 1
    vals = np.abs(_grid_transform(mu, lo, grid_step, count))
    k = int(np.argmax(vals))
    return GapCheck((lo, hi), grid_step, float(vals[k]), lo + grid_step * k)


@dataclass
class CauchyBranch:
    log_abs: np.ndarray      # log |exp(sign*x*y) * sum w_n/(lambda_n - sign*i*y)|, fit input
    rate: float              # least squares slope of log_abs against y, top half


@dataclass
class CauchyDecayReport:
    x: float
    y_values: np.ndarray
    plus: CauchyBranch
    minus: CauchyBranch
    tolerance: float
    verdict: str             # VanishesCompatible | Not


def _cauchy_branch(mu: DiscreteMeasure, x: float, ys: np.ndarray, sign: float) -> CauchyBranch:
    log_abs = np.empty(ys.size, dtype=float)
    for k, y in enumerate(ys):
        mag = abs(np.sum(mu.weights / (mu.points - sign * 1j * y)))
        log_abs[k] = sign * x * y + (math.log(mag) if mag > 0.0 else -math.inf)
    rate = top_half_slope(ys, log_abs, too_few=-math.inf, flat=0.0)
    return CauchyBranch(log_abs, rate)


def cauchy_decay(mu: DiscreteMeasure, x: float, y_values, tolerance: float = 1e-6) -> CauchyDecayReport:
    """Evaluate the gap criterion quantity on both Cauchy branches.

    The transform of mu vanishes on an interval containing x in its
    interior exactly when exp(x*y) * integral d mu(t)/(t - i y) tends to 0
    along both y -> +inf and y -> -inf.  Both branches are reported with
    fitted exponential rates; the verdict is VanishesCompatible when both
    terminal magnitudes fall below the tolerance.
    """
    ys = np.asarray(increasing_ladder(y_values, 4, "y_values"))
    if not (abs(x) <= ENDPOINT_BOUND and 0.0 < tolerance < math.inf):
        raise BadArgument(f"need |x| <= {ENDPOINT_BOUND:g} and a positive finite tol, got {x!r}, {tolerance!r}")
    plus = _cauchy_branch(mu, x, ys, +1.0)
    minus = _cauchy_branch(mu, x, ys, -1.0)
    log_tol = math.log(tolerance)
    ok = plus.log_abs[-1] <= log_tol and minus.log_abs[-1] <= log_tol
    verdict = "VanishesCompatible" if ok else "Not"
    return CauchyDecayReport(x, ys, plus, minus, tolerance, verdict)


def gram_matrix(points, a: float, centered: bool = False) -> np.ndarray:
    """Gram matrix of exponentials exp(i lambda t) on [0, a], closed form.

    G[m][n] = integral of exp(i (lambda_n - lambda_m) t) over [0, a]
            = exp(i d a/2) * S[m][n],  d = lambda_n - lambda_m,
    where S[m][n] = 2 sin(d a/2) / d off the diagonal and a on it, for
    distinct points.  G is Hermitian positive definite, and oriented so that
    c* G c equals the L^2[0, a] energy of t -> sum c_n exp(i lambda_n t).

    With centered=True the interval is [-a/2, a/2] and the matrix is S,
    the real symmetric sinc (prolate) kernel of Landau, Pollak and Slepian.
    G = D* S D with D = diag(exp(i lambda a/2)) unitary, so the two share
    their eigenvalues and the moduli of their eigenvector entries.  G's
    phase is formed from d: per-point phases lose accuracy at large |lambda|.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size == 0:
        raise BadArgument("points must be a nonempty 1d array")
    if pts.size > GRAM_SIZE_CAP:
        raise SizeGuard(f"dense Gram matrix limited to {GRAM_SIZE_CAP} points")
    if not 0.0 < a < math.inf:
        raise BadArgument(f"interval length a must be positive and finite, got {a!r}")
    half = 0.5 * a
    with np.errstate(over="ignore"):
        spread = (pts.max() - pts.min()) * half
    if not spread < math.inf:
        raise BadArgument(f"(max - min) * a/2 of the points overflows or is not finite, got a = {a!r}")
    if np.unique(pts).size != pts.size:
        raise BadArgument("points must be distinct")
    diff = np.subtract.outer(pts, pts)  # -d; S is even in d
    out = diff * half
    np.sin(out, out=out)
    with np.errstate(invalid="ignore"):
        out /= diff  # 0/0 on the diagonal, overwritten below
    out *= 2.0
    np.fill_diagonal(out, a)
    if centered:
        return out
    diff *= -half
    return np.exp(1j * diff) * out


@dataclass
class GapProbeReport:
    sizes: list[int]
    min_eigenvalues: list[float]       # raw eigensolver output
    floored_eigenvalues: list[float]   # raw floored at the backward error scale
    noise_floors: list[float]
    classification: str                # DecaysToZero | BoundedBelow | Inconclusive
    fall_factor: float
    step_ratios: list[float]
    breakdown: bool = False


def min_gap_residual(seq: SeparatedSequence, a: float, sizes) -> GapProbeReport:
    """Smallest Gram eigenvalue along growing centered point windows.

    For each N the centered window of N points is selected and the
    extreme eigenvalues of the exponential Gram matrix computed with a
    dense values-only real symmetric solver, on [-a/2, a/2] where the
    matrix is the real sinc kernel S (gram_matrix with centered=True).  S
    is unitarily similar to the Gram matrix on [0, a], so the eigenvalues
    are those of [0, a].  The windows are nested, so S is built once on
    the largest and each smaller one is its contiguous centered block.
    Raw eigenvalues below the backward error scale
    N * eps * max(lambda_max, 1) are floored before classification:

    * DecaysToZero   when the final raw eigenvalue sits at or below its
      noise floor (the centered windows are nested, so the exact value is
      nonincreasing by Cauchy interlacing and a terminal machine zero
      certifies the decay), or when the floored values fall by at least
      10x overall with a monotone trend (each step below 1.5x the
      previous value),
    * BoundedBelow   when there are two windows or more and every value
      stays within 2x of the initial one (one window shows no trend),
    * Inconclusive   otherwise.

    The plunge past the time-bandwidth product is superexponential, so on
    coarse size ladders the eigenvalue can be at machine zero already at
    the first window; the terminal-floor rule is what keeps that case out
    of Inconclusive.  As a grows the class flips near 2*pi*D+, the upper
    density, which is 2*pi*D_* only where the two agree (module docstring).
    """
    sizes = [int(n) for n in sizes]
    if not sizes or sizes[0] < 1 or any(b <= a_ for a_, b in zip(sizes, sizes[1:])):
        raise BadArgument(f"sizes must be positive and strictly increasing, got {sizes}")
    if sizes[-1] > GRAM_SIZE_CAP:
        raise SizeGuard(f"size {sizes[-1]} beyond dense solver cap {GRAM_SIZE_CAP}")
    if sizes[-1] > len(seq):
        raise BadArgument(f"size {sizes[-1]} exceeds the {len(seq)} available points")

    raw, floored, floors = [], [], []
    breakdown = False
    base = (len(seq) - sizes[-1]) // 2
    big = gram_matrix(seq.points[base : base + sizes[-1]], a, centered=True)
    for n in sizes:
        s = (len(seq) - n) // 2 - base
        try:
            vals = np.linalg.eigvalsh(big[s : s + n, s : s + n])
        except np.linalg.LinAlgError:
            breakdown = True
            break
        lam_min = float(vals[0])
        unit = np.finfo(float).eps * max(float(vals[-1]), 1.0)
        floor = float(n * unit)
        raw.append(lam_min)
        floors.append(floor)
        floored.append(max(lam_min, floor))

    if breakdown and not raw:
        raise NumericalBreakdown("eigensolver failed on the smallest window")

    ratios = [floored[k + 1] / floored[k] for k in range(len(floored) - 1)]
    fall = floored[0] / floored[-1] if floored[-1] > 0 else math.inf
    if breakdown:
        classification = INCONCLUSIVE
    elif raw[-1] <= floors[-1]:
        classification = "DecaysToZero"
    elif fall >= 10.0 and all(r <= 1.5 for r in ratios):
        classification = "DecaysToZero"
    elif len(floored) > 1 and all(0.5 * floored[0] <= v <= 2.0 * floored[0] for v in floored):
        classification = "BoundedBelow"
    else:
        classification = INCONCLUSIVE

    return GapProbeReport(
        sizes=sizes[: len(raw)] if breakdown else sizes,
        min_eigenvalues=raw,
        floored_eigenvalues=floored,
        noise_floors=floors,
        classification=classification,
        fall_factor=float(fall),
        step_ratios=ratios,
        breakdown=breakdown,
    )
