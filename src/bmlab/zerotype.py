"""Model entire functions of small type and growth/type estimation.

The central object is F(z) = cos(sqrt(2 pi z)) * cos(sqrt(-2 pi z)).
Both factors are entire in z because cos(sqrt(w)) is an even power
series in sqrt(w): either square root of w gives the same cosine, so
``eval_qcos`` takes cmath's principal root and no branch shows in F.  F
has order 1/2 in each factor, real zeros exactly at +/- pi (2k+1)^2 / 8,
and along the imaginary axis grows like
exp(2 sqrt(pi |y| / 2)), slower than exp(t |y|) for every t > 0.  Such
functions separate "zero type" from "bounded" and provide test material
for the growth fitting in type_estimate.

Everything evaluates through doubles, so magnitude-sensitive work is
done in log scale: log_abs_cos avoids overflow past |Im w| ~ 700 by
peeling off the dominant exponential explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .envelope import increasing_ladder, top_half_slope
from .errors import EmptyRange
from .gap import TWO_PI
from .sequences import SeparatedSequence, as_bounds, load_sequence, odd_points

PI = math.pi

_LOG_COS_SWITCH = 40.0     # |Im w| above which the peeled form is used


def eval_qcos(z: complex) -> complex:
    """F(z) = cos(sqrt(2 pi z)) cos(sqrt(-2 pi z)), each factor cmath's cos
    of cmath's principal square root.  Cosine is even, so the root's branch
    cancels and the factors are entire: across the cut on the negative
    axis the root changes sign and the cosine does not.
    """
    z = complex(z)
    return cmath.cos(cmath.sqrt(TWO_PI * z)) * cmath.cos(cmath.sqrt(-TWO_PI * z))


def qcos_zeros(window) -> np.ndarray:
    """Real zeros of F in the window [lo, hi]: +/- pi (2k+1)^2 / 8, sorted.

    ``odd_points`` builds them from the term pi (2k+1)^2 / 8 with the
    count (sqrt(8 reach / pi) - 1) / 2 for the reach max(hi, -lo): it
    refuses a window without lo < hi with BadArgument, and more than
    POINTS_CAP zeros (an infinite end too) with SizeGuard.
    """
    lo, hi = as_bounds(window)
    reach = max(hi, -lo, 0.0)  # 0.0 keeps the root real for a window odd_points refuses
    return odd_points(lambda k: PI * (2.0 * k + 1.0) ** 2 / 8.0, (math.sqrt(8.0 * reach / PI) - 1.0) / 2.0, (lo, hi))


def zero_set_qcos(window) -> SeparatedSequence:
    """Zero set of F in the window as a separated sequence.

    Consecutive same-sign zeros are pi (k+1) apart, so the smallest gap
    is pi/4 (between -pi/8 and pi/8) when both signs are present and pi
    otherwise; the set is always separated.
    """
    win = as_bounds(window)
    zeros = qcos_zeros(win)
    if zeros.size == 0:
        raise EmptyRange("no zeros of the model function in this window")
    return load_sequence(zeros, win)


def log_abs_cos(w: complex) -> float:
    """log |cos w|, stable for large |Im w|.

    For v = Im w with |v| >= 40 the dominant half of the cosine is peeled:
    cos w = e^{-i s w} (1 + e^{2 i s w}) / 2 with s = sign(v), where the
    remaining exponential is damped, giving
    log|cos w| = |v| + log|1 + e^{2 i s w}| - log 2.

    Neither logarithm meets 0: below the switch |cos w| >= |cos Re w|,
    and no double has a cosine of exactly 0; above it |1 + e^{2 i s w}|
    >= 1 - e^{-80}.
    """
    w = complex(w)
    v = w.imag
    if abs(v) < _LOG_COS_SWITCH:
        return math.log(abs(cmath.cos(w)))
    s = 1.0 if v > 0 else -1.0
    return abs(v) + math.log(abs(1.0 + cmath.exp(2j * s * w))) - math.log(2.0)


def log_abs_qcos(z: complex) -> float:
    """log |F(z)| via the two cosine factors, overflow free."""
    z = complex(z)
    w_plus = cmath.sqrt(TWO_PI * z)
    w_minus = cmath.sqrt(-TWO_PI * z)
    return log_abs_cos(w_plus) + log_abs_cos(w_minus)


@dataclass
class TypeEstimate:
    y_values: np.ndarray
    log_moduli: np.ndarray
    fitted_type: float        # slope of log|f(iy)| against y, top half
    fitted_sqrt_coeff: float  # slope against sqrt(y), top half
    y_max: float


def type_estimate(log_modulus, y_values) -> TypeEstimate:
    """Exponential type fit along the imaginary axis.

    Samples log|f(i y)| = log_modulus(i y) on the given ladder, in log
    scale so that no ladder overflows, and least-squares fits the top half
    (by count) against y (exponential type) and against sqrt(y) (order
    1/2 coefficient).
    """
    ys = np.asarray(increasing_ladder(y_values, 8, "y_values"))
    logs = np.empty(ys.size, dtype=float)
    for k, y in enumerate(ys):
        logs[k] = float(log_modulus(complex(0.0, y)))
    fitted_type = top_half_slope(ys, logs, too_few=math.nan, flat=math.nan)
    fitted_sqrt = top_half_slope(np.sqrt(ys), logs, too_few=math.nan, flat=math.nan)
    return TypeEstimate(ys, logs, fitted_type, fitted_sqrt, float(ys[-1]))
