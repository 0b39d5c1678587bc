"""Phase-2 size calibration by order statistics.

The calibrated set size is the i*-th smallest transformed Phase-2 value,
where i* is the smallest rank whose binomial tail clears the confidence
target:

    i* = min{ r : P(Bin(n2, 1-eps) <= r-1) >= 1-delta }.

Both ranks, binom_cdf and the achieved confidence read one pmf table,
P(Bin(n2, p) = j) for j = 0..k, built from the ratio recurrence
pmf(j)/pmf(j-1) in log space: the log terms are accumulated in order from
n2*log1p(-p), so no term over- or underflows before its own exp. The table
and its cumulative sums hold at most two float arrays of n2 (16 MB at
n2 = 1e6, 160 MB at 1e7). CDF comparisons against 1-delta carry a 1e-12
slack to keep boundary cases (where the tail equals the target exactly in
real arithmetic) from flipping on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCalibrationError, InvalidArgumentError
from .model import read_value

__all__ = [
    "CalibResult",
    "min_phase2_size",
    "calib_index_upper",
    "upper_rank_confidence",
    "calib_index_lower",
    "calibrate_size",
    "binom_cdf",
]

_BOUNDARY_SLACK = 1e-12


def _check_prob(value: float, name: str) -> float:
    value = read_value(value, float, name)
    if not (0.0 < value < 1.0):
        raise InvalidArgumentError(f"{name} must lie strictly in (0,1), got {value}")
    return value


@dataclass(frozen=True)
class CalibResult:
    i_star: int
    s: float
    n2: int
    epsilon: float
    delta: float
    tie_warning: bool = False


def min_phase2_size(epsilon: float, delta: float) -> int:
    """Smallest n2 with 1 - (1-eps)^n2 >= 1 - delta."""
    epsilon = _check_prob(epsilon, "epsilon")
    delta = _check_prob(delta, "delta")
    n = max(1, math.ceil(math.log(delta) / math.log(1.0 - epsilon)))
    # guard the ceil against representation error on either side
    while (1.0 - epsilon) ** n > delta * (1.0 + 1e-15):
        n += 1
    while n > 1 and (1.0 - epsilon) ** (n - 1) <= delta * (1.0 + 1e-15):
        n -= 1
    return n


def _pmf(n: int, p: float, k: int) -> np.ndarray:
    """P(Bin(n, p) = j) for j = 0..k; assumes 0 < p < 1 and 0 <= k <= n.

    The log terms n*log1p(-p), then log((n-j+1)/j) + log(p/(1-p)), are
    summed in order before one exp.
    """
    table = np.arange(k + 1, dtype=float)
    steps = table[1:]  # j, then log pmf(j) - log pmf(j-1)
    np.divide((n + 1.0) - steps, steps, out=steps)
    np.log(steps, out=steps)
    steps += math.log(p) - math.log1p(-p)
    table[0] = n * math.log1p(-p)
    np.cumsum(table, out=table)
    return np.exp(table, out=table)


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(Bin(n, p) <= k), the pmf summed in order from 0 upward.

    k and n are ints, n >= 0, and 0 < p < 1.  Terms far in the left tail
    underflow to zero, which is exactly their weight.
    """
    k, n = read_value(k, int, "k"), read_value(n, int, "n", least=0)
    p = _check_prob(p, "p")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    pmf = _pmf(n, p, k)
    return min(float(np.cumsum(pmf, out=pmf)[-1]), 1.0)


def upper_rank_confidence(n2: int, epsilon: float, delta: float) -> tuple[int, float]:
    """i* and its achieved confidence P(Bin(n2, 1-eps) <= i*-1), both read
    off one cumulative table."""
    epsilon = _check_prob(epsilon, "epsilon")
    delta = _check_prob(delta, "delta")
    n2 = read_value(n2, int, "n2")
    required = min_phase2_size(epsilon, delta)
    if n2 < required:
        raise InfeasibleCalibrationError(
            f"n2={n2} is below the minimum {required} required for "
            f"(epsilon={epsilon}, delta={delta})",
            required_min=required,
        )
    target = (1.0 - delta) - _BOUNDARY_SLACK
    # cdf[r-1] = P(Bin(n2, 1-eps) <= r-1), nondecreasing in r
    cdf = _pmf(n2, 1.0 - epsilon, n2 - 1)
    np.cumsum(cdf, out=cdf)
    i_star = min(int(np.searchsorted(cdf, target)) + 1, n2)
    return i_star, min(float(cdf[i_star - 1]), 1.0)


def calib_index_upper(n2: int, epsilon: float, delta: float) -> int:
    """Rank of the order statistic giving a 1-delta upper confidence bound
    on the (1-eps) quantile."""
    return upper_rank_confidence(n2, epsilon, delta)[0]


def calib_index_lower(n2: int, epsilon: float, delta: float) -> int:
    """Largest rank whose order statistic lower-bounds the (1-eps) quantile
    with confidence 1-delta."""
    epsilon = _check_prob(epsilon, "epsilon")
    delta = _check_prob(delta, "delta")
    n2 = read_value(n2, int, "n2")
    # validity: P(Bin(n2, 1-eps) >= 1) = 1 - eps^n2 must reach 1 - delta
    if 1.0 - epsilon**n2 < (1.0 - delta) - _BOUNDARY_SLACK:
        raise InfeasibleCalibrationError(
            f"n2={n2} cannot produce a lower confidence bound at "
            f"(epsilon={epsilon}, delta={delta})",
            required_min=min_phase2_size(1.0 - epsilon, delta),
        )
    target = (1.0 - delta) - _BOUNDARY_SLACK
    # summed from the top, tail[m] = P(Bin(n2, 1-eps) >= n2-m) keeps the
    # precision of a p-near-1 tail and is nondecreasing in m
    tail = _pmf(n2, 1.0 - epsilon, n2)[::-1]
    np.cumsum(tail, out=tail)
    return max(n2 - int(np.searchsorted(tail, target)), 1)


def calibrate_size(t_values, epsilon: float, delta: float) -> CalibResult:
    """Pick the calibrated size s as the i*-th smallest transformed value."""
    arr = np.asarray(t_values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise InfeasibleCalibrationError(
            "no Phase-2 values supplied",
            required_min=min_phase2_size(epsilon, delta),
        )
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("t_values contain non-finite entries")
    n2 = arr.size
    i_star = calib_index_upper(n2, epsilon, delta)
    ordered = np.sort(arr, kind="stable")
    s = float(ordered[i_star - 1])
    ties = bool(np.any(ordered[1:] == ordered[:-1]))
    return CalibResult(
        i_star=i_star,
        s=s,
        n2=n2,
        epsilon=float(epsilon),
        delta=float(delta),
        tie_warning=ties,
    )
