"""Rescaled-range (R/S) estimation of the Hurst index.

For each prefix X_1..X_t of the series: center by the prefix mean,
cumulate the centered values into Z (a pinned bridge, Z_t = 0), take
the range R_t = max Z - min Z, and normalize by the population
standard deviation S_t of the same prefix.  The rescaled range grows
like lambda * t^H for large t, so an ordinary least-squares fit of
ln(R_t/S_t) on ln(t) estimates H (slope) and lambda (exp intercept).

Centering each prefix by its own mean (rather than centering once by
the full-series mean) is what keeps the estimator consistent: a global
center turns the largest prefixes into pinned bridges with suppressed
ranges and drags the fitted slope well below the true index.

All n prefix ranges cost O(n log n), not O(n^2): with S the partial
sums and d_t the prefix mean, Z_j = S_j - d_t j, so the extremes of Z
are two queries against the upper and lower convex hulls of the points
(j, S_j).  One pass records, per point, its tangent pointer to the
hulls of the points before it; binary lifting along those pointers then
answers every prefix's two queries in a few vectorized rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HurstEstimate",
    "DegenerateSeriesError",
    "rs_series",
    "estimate_hurst",
]

DEFAULT_T_MIN = 16  # "t large enough": smaller prefixes are dropped from the fit


class DegenerateSeriesError(ValueError):
    """Series carries no usable rescaled-range entries."""


@dataclass(frozen=True)
class HurstEstimate:
    hurst: float
    amplitude: float
    r_squared: float
    points_used: int

    def __post_init__(self):
        if self.points_used < 2:
            raise ValueError("an estimate needs at least two fit points")


def rs_series(series) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled-range entries for prefixes t = 2..n, as the arrays
    (lengths t, ratios R_t/S_t): t strictly increasing, every ratio > 0.

    Entries whose standard deviation or range vanishes are excluded
    (they carry no information and would break the log fit); if nothing
    remains, e.g. for a constant series, a DegenerateSeriesError is
    raised.  O(n log n): each prefix's range is read off the convex
    hulls of the partial sums (see _prefix_ranges).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a one-dimensional series of length >= 2")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"series value at index {i} is not finite: {float(x[i])!r}")
    n = x.size
    # R/S is scale-free and scaling by a power of two is exact, so bring
    # max|x| into [1/2, 1): the mean and the squares below cannot overflow
    peak = float(np.abs(x).max())
    if peak > 0.0:
        x = np.ldexp(x, -math.frexp(peak)[1])
    # work on globally centered values so large offsets cost no precision;
    # per-prefix recentering below makes this mathematically neutral
    y = x - x.mean()
    sums = np.cumsum(y)
    t = np.arange(1, n + 1, dtype=float)
    drift = sums / t
    std = np.sqrt(np.clip(np.cumsum(y * y) / t - drift * drift, 0.0, None))
    ranges = _prefix_ranges(sums, drift, t)
    keep = (std > 0) & (ranges > 0)
    keep[0] = False
    if not keep.any():
        raise DegenerateSeriesError("series has no positive rescaled-range entries")
    return np.nonzero(keep)[0] + 1, ranges[keep] / std[keep]


def _prefix_ranges(sums, drift, t) -> np.ndarray:
    """R_i = max_j Z_ij - min_j Z_ij, Z_ij = S_j - d_i t_j over j <= i.

    The extremes lie on the upper and lower convex hulls of the points
    (t_j, S_j), at the vertex where the hull's edge slopes cross d_i.
    Each hull is kept as tangent pointers: prev[i] is the vertex left of
    i on the hull of points 0..i and key[i] that edge's slope (negated on
    the lower hull), found by following prev from i - 1 past the vertices
    that point i hides.  The hull of 0..i is then the chain i, prev[i],
    ..., 0, with keys rising to the sentinel key[0] = inf, and the
    extreme is the first vertex on it whose key exceeds d_i (-d_i).
    Binary lifting finds it for every i at once, in as many numpy rounds
    as log2 of the deepest chain.  Z is evaluated there with the same two
    roundings as a direct pass over every j, so the ranges agree with
    that pass bit for bit unless two Z_ij tie to rounding.
    """
    s = sums.tolist()
    n = len(s)
    up, up_key, lo, lo_key = [0] * n, [math.inf] * n, [0] * n, [math.inf] * n
    for i in range(1, n):
        si = s[i]
        j, g = i - 1, si - s[i - 1]
        while up_key[j] <= g:  # j is not strictly convex once i joins
            j = up[j]
            g = (si - s[j]) / (i - j)
        up[i], up_key[i] = j, g
        j, g = i - 1, s[i - 1] - si
        while lo_key[j] <= g:
            j = lo[j]
            g = (s[j] - si) / (i - j)
        lo[i], lo_key[i] = j, g
    # one forest: upper hull in nodes 0..n-1, lower hull in n..2n-1
    prev, key = np.array(up + lo), np.array(up_key + lo_key)
    prev[n:] += n
    query = np.concatenate((drift, -drift))
    jumps = [prev]  # jumps[k] climbs 2^k; the last lands all on roots, unused
    while not np.array_equal(nxt := jumps[-1][jumps[-1]], jumps[-1]):
        jumps.append(nxt)
    v = np.arange(2 * n)  # climb to the last vertex whose key is <= query
    for jump in reversed(jumps[:-1]):
        w = jump[v]
        v = np.where(key[w] <= query, w, v)
    v = np.where(key[v] > query, v, prev[v])  # unmoved if its own key is above
    hi, lo = v[:n], v[n:] - n
    return (sums[hi] - drift * t[hi]) - (sums[lo] - drift * t[lo])


def _loglog_fit(lengths, ratios) -> tuple[float, float, float]:
    """OLS of ln(ratio) on ln(length), at two or more distinct lengths and
    positive ratios: returns (slope, intercept, r^2)."""
    x = np.log(lengths)
    y = np.log(ratios)
    sxx = float(np.sum((x - x.mean()) ** 2))
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - intercept - slope * x) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r_sq


def estimate_hurst(series, t_min: int = DEFAULT_T_MIN) -> HurstEstimate:
    """Fit the rescaled-range growth law on prefixes of length >= t_min.

    The asymptotic law holds "for t large enough"; t_min makes that
    concrete and configurable.  The estimator is affine invariant:
    shifting cancels in the centering and scaling cancels in R/S.
    """
    if t_min < 2:
        raise ValueError("t_min must be at least 2")
    lengths, ratios = rs_series(series)
    sel = lengths >= t_min
    if int(sel.sum()) < 2:
        raise ValueError(
            f"fewer than two rescaled-range entries at t >= {t_min}")
    slope, intercept, r_sq = _loglog_fit(lengths[sel], ratios[sel])
    return HurstEstimate(slope, math.exp(intercept), r_sq, int(sel.sum()))
