"""Independent checks of bm-lab outputs.

Nothing here calls into bmlab.  Each check compares a report with a
value known from the mathematics (the density of a lattice, the Polya
class of a generator, the type of cos) or recomputes the reported
evidence by a separate route (FFT coefficients of the design bump, a
direct sum of the transform, the shortness sums of a family file, the
suffix-max membership of sample points).  A check returns None when the
output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
# max |mu^| on the gap that the aliased 4096-node design may reach at
# n = 4000: measured 5e-8 to 1e-7, so a design worse than that fails
ALIAS_CEILING = 1e-6


def _reason(ok: bool, text: str):
    return None if ok else text


# ---------------------------------------------------------------- density


def bracket_contains(report: dict, density: float):
    """The bisection bracket holds the known density; the class is Polya.

    The bracket ends are bisection points of [0, 2/delta]; for a lattice
    the density itself is one of them, so each end may miss it by the
    rounding of delta.
    """
    lo, hi = report["a_lower"], report["a_upper"]
    slack = 1e-9 * density
    if not lo - slack <= density <= hi + slack:
        return f"bracket [{lo}, {hi}] misses density {density}"
    return polya(report)


def polya(report: dict):
    """Polya class; the bracket itself may sit below the density (window bias)."""
    got = report["polya_class"]
    return _reason(got == "Polya", f"class {got}, expected Polya")


def polya_without_witness(payload: dict):
    if payload["polya_class"] != "Polya":
        return f"class {payload['polya_class']}, expected Polya"
    return _reason(payload["witness"] is None, "a Polya sequence got a null-ratio witness")


def not_polya_with_long_witness(payload: dict):
    if payload["polya_class"] != "NotPolya":
        return f"class {payload['polya_class']}, expected NotPolya"
    witness = payload["witness"]
    if witness is None:
        return "no null-ratio witness for a density-zero sequence"
    verdict = witness["shortness"]["verdict"]
    return _reason(verdict == "Long", f"witness family is {verdict}, expected Long")


# ---------------------------------------------------------------- envelope


def counting_gamma(points: np.ndarray, a: float, xs: np.ndarray) -> np.ndarray:
    """a*x - n(x) for the continuous counting function anchored at n(0) = 0."""
    idx = np.arange(points.size, dtype=float)
    n = np.interp(xs, points, idx)
    left = xs < points[0]
    right = xs > points[-1]
    n[left] = (xs[left] - points[0]) / (points[1] - points[0])
    n[right] = points.size - 1 + (xs[right] - points[-1]) / (points[-1] - points[-2])
    anchor = float(np.interp(0.0, points, idx))
    return a * xs - (n - anchor)


def envelope_membership(points, a, window, intervals):
    """Compare the reported family with suffix-max membership of midpoints.

    The midpoint of each segment between consecutive nodes lies in the
    set exactly when some node to its right sits strictly above it.
    Samples within rounding distance of an endpoint or of a tie are
    skipped.
    """
    lo, hi = window
    inner = points[(points > lo) & (points < hi)]
    xs = np.concatenate(([lo], inner, [hi]))
    ys = counting_gamma(points, a, xs)
    mids = 0.5 * (xs[:-1] + xs[1:])
    y_mid = 0.5 * (ys[:-1] + ys[1:])
    right_max = np.maximum.accumulate(ys[::-1])[::-1][1:]
    scale = 1e-9 * (1.0 + np.abs(right_max))
    expected = y_mid < right_max
    usable = np.abs(y_mid - right_max) > scale

    lefts = np.array([iv["left"] for iv in intervals], dtype=float)
    rights = np.array([iv["right"] for iv in intervals], dtype=float)
    if lefts.size and (np.any(lefts >= rights) or np.any(rights[:-1] > lefts[1:])):
        return "intervals are not sorted, disjoint and nonempty"
    inside = np.zeros(mids.size, dtype=bool)
    if lefts.size:
        k = np.searchsorted(lefts, mids, side="right") - 1
        kk = np.maximum(k, 0)
        inside = (k >= 0) & (mids > lefts[kk]) & (mids < rights[kk])
        ends = np.sort(np.concatenate((lefts, rights)))
        j = np.clip(np.searchsorted(ends, mids), 1, ends.size - 1)
        near = np.minimum(np.abs(mids - ends[j - 1]), np.abs(mids - ends[j]))
        usable &= near > 1e-9 * (1.0 + abs(hi - lo))
    wrong = int(np.count_nonzero((inside != expected) & usable))
    return _reason(wrong == 0, f"{wrong} of {int(usable.sum())} sample points misclassified")


def read_family_csv(path) -> np.ndarray:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.strip().split(",")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                continue  # header
    return np.array(rows, dtype=float).reshape(-1, 2)


def shortness_sums(family: np.ndarray, radii) -> list[float]:
    """sum |I|^2 / (1 + dist(I, 0)^2) over intervals inside [-r, r]."""
    left, right = family[:, 0], family[:, 1]
    dist = np.where((left <= 0.0) & (right >= 0.0), 0.0, np.minimum(np.abs(left), np.abs(right)))
    terms = (right - left) ** 2 / (1.0 + dist**2)
    return [float(terms[(left >= -r) & (right <= r)].sum()) for r in radii]


def short_family_report(payload: dict, family: np.ndarray):
    """Recomputed partial sums agree; a family below the density is never Long."""
    if payload["count"] != family.shape[0]:
        return f"count {payload['count']} but the file has {family.shape[0]} rows"
    want = shortness_sums(family, payload["radii"])
    got = payload["partial_sums"]
    if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
        return f"partial sums {got} differ from recomputed {want}"
    return _reason(payload["verdict"] != "Long", "family of a slope below the density classified Long")


# ---------------------------------------------------------------- gap


def bump_tail(a: float, n_terms: int, smoothness) -> float:
    """Relative Fourier tail beyond |m| = n_terms of the design bump.

    On the designed gap the bump vanishes, so the truncated series equals
    minus its tail there; sum_{|m| > n} |c_m| / sum_{|m| <= n} |c_m| bounds
    |mu^| on the gap.  The coefficients come from an FFT on at least
    64 * n_terms nodes, far past the point where aliasing matters.
    """
    margin = (TWO_PI - a) / 8.0
    lo = a + margin
    width = (TWO_PI - margin) - lo
    nodes = 1 << int(math.ceil(math.log2(64 * n_terms)))
    s = TWO_PI * np.arange(nodes) / nodes - lo
    g = np.zeros(nodes)
    inside = (s > 0.0) & (s < width)
    si = s[inside]
    if smoothness == "inf":
        g[inside] = np.exp(-1.0 / si) * np.exp(-1.0 / (width - si))
    else:
        g[inside] = (si * (width - si)) ** (int(smoothness) + 1)
    coeff = np.abs(np.fft.fft(g)) / nodes
    freq = np.abs(np.fft.fftfreq(nodes, 1.0 / nodes))
    kept = freq <= n_terms
    return float(coeff[~kept].sum() / coeff[kept].sum())


def gap_level(a: float, n_terms: int, smoothness, x_max: float) -> float:
    """Largest |mu^| on the gap that exact arithmetic plus rounding allows.

    The rounding term bounds the phase error of exp at arguments up to
    n_terms * 2*pi in the design and n_terms * x_max in the transform,
    each summed against weights of total variation one, with a factor 4
    for the complex products.
    """
    rounding = 4.0 * EPS * n_terms * (TWO_PI + x_max)
    return bump_tail(a, n_terms, smoothness) + rounding


def unit_mass(payload: dict):
    got = payload["total_variation"]
    return _reason(abs(got - 1.0) <= 1e-9, f"total variation {got}, expected 1")


def designed_gap(payload: dict, level: float):
    got = payload["verify"]["max_abs"]
    too_big = f"max |mu^| on the gap {got:.3g} exceeds the predicted {level:.3g}"
    return unit_mass(payload) or _reason(got <= level, too_big)


def aliased_gap(payload: dict):
    """The outcome of the aliased design, once designed_gap has failed:
    unit mass and max |mu^| on the gap at most ALIAS_CEILING."""
    got = payload["verify"]["max_abs"]
    too_big = f"max |mu^| on the gap {got:.3g} exceeds even the aliased level {ALIAS_CEILING:.3g}"
    return unit_mass(payload) or _reason(got <= ALIAS_CEILING, too_big)


def measure_file_gap(path, n_terms: int, interval, step: float, level: float):
    """Transform of the written atoms, summed directly, stays under the level."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != 2 * n_terms + 1 or np.any(data[:, 0] != np.arange(-n_terms, n_terms + 1)):
        return f"expected atoms at -{n_terms}..{n_terms}, got {data.shape[0]} rows"
    weights = data[:, 1] + 1j * data[:, 2]
    lo, hi = interval
    xs = lo + step * np.arange(int(math.floor((hi - lo) / step)) + 1)
    got = float(np.abs(np.exp(1j * np.outer(xs, data[:, 0])) @ weights).max())
    return _reason(got <= level, f"max |mu^| of the written atoms {got:.3g} exceeds {level:.3g}")


def classification(payload: dict, expected: str):
    got = payload["classification"]
    return _reason(got == expected, f"Gram probe {got}, expected {expected}")


def cauchy_vanishes(payload: dict):
    got = payload["verdict"]
    return _reason(got == "VanishesCompatible", f"Cauchy verdict {got} inside the gap")


def cauchy_aliased(payload: dict, y_count: int):
    """The outcome of the aliased design: a whole report with verdict Not."""
    sizes = {len(payload["y_values"]), len(payload["plus"]["log_abs"]), len(payload["minus"]["log_abs"])}
    if sizes != {y_count}:
        return f"Cauchy report has series of lengths {sorted(sizes)}, expected {y_count}"
    got = payload["verdict"]
    return _reason(got == "Not", f"Cauchy verdict {got}, expected Not from the aliased design")


# ---------------------------------------------------------------- zerotype


def type_of_cos(payload: dict):
    got = payload["fitted_type"]
    return _reason(abs(got - 1.0) <= 0.01, f"type of cos fitted {got}, expected 1")


def type_of_qcos(payload: dict):
    got, coeff = payload["fitted_type"], payload["fitted_sqrt_coeff"]
    if got > 0.01:
        return f"type of qcos fitted {got}, expected 0"
    want = 2.0 * math.sqrt(math.pi)
    return _reason(abs(coeff - want) <= 0.1 * want, f"sqrt coefficient {coeff}, expected {want}")
