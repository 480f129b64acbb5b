import bisect

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fraclangevin import (DegenerateSeriesError, HurstEstimate, NoiseStream,
                          estimate_hurst, rs_series, sample_fbm_exact,
                          uniform_grid)
from fraclangevin.hurst import _loglog_fit, _prefix_ranges

EPS = np.finfo(float).eps


def loop_terms(series):
    """Partial sums S, prefix means d, lengths t and standard deviations
    of the globally centred series, formed as rs_series forms them (less
    its exact power-of-two scaling)."""
    y = series - series.mean()
    sums = np.cumsum(y)
    t = np.arange(1, y.size + 1, dtype=float)
    drift = sums / t
    std = np.sqrt(np.clip(np.cumsum(y * y) / t - drift * drift, 0.0, None))
    return sums, drift, t, std


def loop_ranges(sums, drift, t):
    """The O(n^2) reference: R_i from one pass over every j <= i."""
    ranges = np.empty(t.size)
    for i in range(t.size):
        z = sums[: i + 1] - drift[i] * t[: i + 1]
        ranges[i] = z.max() - z.min()
    return ranges


def stack_ranges(sums, drift, t):
    """The ranges at the vertices Andrew's monotone chain and bisection pick:
    each hull kept as a stack with its edge slopes, the upper hull's
    negated so both lists ascend."""
    s = sums.tolist()
    upper, up_neg, lower, lo_slopes = [0], [], [0], []
    hi, lo = np.zeros((2, len(s)), dtype=np.intp)
    for i, d in enumerate(drift.tolist()[1:], start=1):
        g = (s[i] - s[upper[-1]]) / (i - upper[-1])
        while up_neg and -up_neg[-1] <= g:
            upper.pop()
            up_neg.pop()
            g = (s[i] - s[upper[-1]]) / (i - upper[-1])
        upper.append(i)
        up_neg.append(-g)
        g = (s[i] - s[lower[-1]]) / (i - lower[-1])
        while lo_slopes and lo_slopes[-1] >= g:
            lower.pop()
            lo_slopes.pop()
            g = (s[i] - s[lower[-1]]) / (i - lower[-1])
        lower.append(i)
        lo_slopes.append(g)
        hi[i] = upper[bisect.bisect_left(up_neg, -d)]
        lo[i] = lower[bisect.bisect_left(lo_slopes, d)]
    return (sums[hi] - drift * t[hi]) - (sums[lo] - drift * t[lo])


def fgn(hurst, n):
    grid = uniform_grid(1.0, n)
    return np.diff(sample_fbm_exact(hurst, grid, NoiseStream(8, 0)).values)


# The hull keeps every point (noise) or many collinear ones (arange, the
# alternating and squared series): the ranges must be the loop's, bit for bit.
@pytest.mark.parametrize("make", [
    lambda: fgn(0.3, 2048),
    lambda: fgn(0.7, 2048),
    lambda: fgn(0.3, 4096),
    lambda: fgn(0.7, 4096),
    lambda: NoiseStream(36).generator().standard_normal(3000),
    lambda: np.arange(1000.0),
    lambda: np.array([1.0, -1.0] * 500),
    lambda: np.arange(1000.0) ** 2,
    lambda: -np.arange(1000.0) ** 2,
    lambda: np.array([0.5, -2.0]),
    lambda: np.array([3.0, -1.0, 0.25]),
], ids=["fgn-0.3-2048", "fgn-0.7-2048", "fgn-0.3-4096", "fgn-0.7-4096",
        "iid", "arange", "alternating", "squares", "concave", "n2", "n3"])
def test_hull_ranges_bit_equal_to_loop(make):
    x = make()
    sums, drift, t, std = loop_terms(x)
    ranges = loop_ranges(sums, drift, t)
    assert np.array_equal(_prefix_ranges(sums, drift, t), ranges)
    keep = (std > 0) & (ranges > 0)
    keep[0] = False
    lengths, ratios = rs_series(x)
    assert np.array_equal(lengths, np.nonzero(keep)[0] + 1)
    assert np.array_equal(ratios, ranges[keep] / std[keep])


# Every point stays on one hull, so its chains are as deep as the series
# is long.  The extreme lies about 0.42 (squares) or 0.56 (square roots) of
# the way down the chain: with one jump table fewer than the deepest chain
# needs, the square roots' ranges move.
@pytest.mark.parametrize("make", [
    lambda n: np.arange(n) ** 2.0,
    lambda n: -np.arange(n) ** 2.0,
    lambda n: np.sqrt(np.arange(n)),
    lambda n: -np.sqrt(np.arange(n)),
], ids=["squares", "neg-squares", "roots", "neg-roots"])
def test_deep_hull_chains_bit_equal_to_loop(make):
    sums, drift, t, _ = loop_terms(make(16384.0))
    assert np.array_equal(_prefix_ranges(sums, drift, t),
                          loop_ranges(sums, drift, t))


# Integer steps make collinear partial sums, where Z_ij may tie to rounding
# and the direct pass then picks another j: the hull must still pick the
# stack's vertex bit for bit, and the loop's range to rounding.
@given(st.lists(st.integers(-3, 3), min_size=2, max_size=300),
       st.sampled_from([1.0, 0.1, 1e-3]))
@example([2, -2, 2, -2, 0, -3], 1.0)  # an edge slope equals a prefix mean
def test_random_walk_ranges_bit_equal_to_stack(steps, unit):
    sums, drift, t, _ = loop_terms(np.cumsum(steps) * unit)
    ranges = _prefix_ranges(sums, drift, t)
    assert np.array_equal(ranges, stack_ranges(sums, drift, t))
    bound = 8 * EPS * (np.maximum.accumulate(np.abs(sums)) + np.abs(drift) * t)
    assert (np.abs(ranges - loop_ranges(sums, drift, t)) <= bound).all()


# Rounded values, constant runs and collinear partial sums: the hull may
# pick another argmax among values that tie to rounding, so R_t may move
# by a few ulps of the partial sums it is formed from (not of R_t, which
# is itself rounding noise when it nearly vanishes).
@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)),
                min_size=1, max_size=20),
       st.sampled_from([1.0, 0.1, 1e-3, 7.0]),
       st.integers(-1000, 1000))
def test_hull_ranges_match_loop_to_rounding(runs, unit, offset):
    x = np.repeat([v / 10 * unit + offset / 10 for v, _ in runs],
                  [k for _, k in runs])
    if x.size < 2:
        return
    sums, drift, t, std = loop_terms(x)
    ranges = loop_ranges(sums, drift, t)
    bound = 8 * EPS * (np.maximum.accumulate(np.abs(sums)) + np.abs(drift) * t)
    assert (np.abs(_prefix_ranges(sums, drift, t) - ranges) <= bound).all()
    keep = (std > 0) & (ranges > 0)
    keep[0] = False
    got = np.zeros(x.size, dtype=bool)
    try:
        got[rs_series(x)[0] - 1] = True
    except DegenerateSeriesError:
        pass
    sure = ranges > bound
    assert np.array_equal(got[sure], keep[sure])


def test_rs_series_hand_example():
    result = rs_series([1.0, -1.0, 1.0, -1.0])
    assert type(result) is tuple and len(result) == 2
    lengths, ratios = result
    assert type(lengths) is type(ratios) is np.ndarray
    table = dict(zip(lengths.tolist(), ratios.tolist()))
    # zero-mean prefixes: R_2 = S_2 = 1 and R_4 = S_4 = 1 exactly
    assert table[2] == 1.0
    assert table[4] == 1.0


def test_rs_series_excludes_flat_prefixes():
    # constant head: S_t = 0 until the first change
    lengths, _ = rs_series([5.0, 5.0, 5.0, 6.0])
    assert lengths.min() == 4


def test_rs_series_rejects_constant():
    with pytest.raises(DegenerateSeriesError):
        rs_series([5.0, 5.0, 5.0])


def test_rs_series_rejects_too_short():
    with pytest.raises(ValueError):
        rs_series([1.0])


@pytest.mark.parametrize("series, index", [([1.0, np.inf, 2.0, 3.0], 1),
                                           ([np.nan, 1.0, 2.0], 0),
                                           ([1.0, 2.0, 3.0, -np.inf], 3)])
def test_rs_series_names_non_finite_value(series, index):
    with pytest.raises(ValueError, match=f"index {index} is not finite"):
        rs_series(series)


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=60))
def test_rs_entries_positive_and_finite(values):
    try:
        lengths, ratios = rs_series(np.array(values))
    except DegenerateSeriesError:
        return
    assert lengths.shape == ratios.shape
    assert (ratios > 0).all()
    assert np.isfinite(ratios).all()
    assert lengths[0] >= 2 and (np.diff(lengths) > 0).all()


def test_loglog_exact_power_law():
    t = np.arange(2, 50)
    slope, intercept, r_sq = _loglog_fit(t, 2.0 * t**0.6)
    assert slope == pytest.approx(0.6, rel=1e-12)
    assert intercept == pytest.approx(np.log(2.0), rel=1e-12)
    assert r_sq == pytest.approx(1.0, abs=1e-12)


def test_loglog_two_points_fit_perfectly():
    _, _, r_sq = _loglog_fit([2, 7], [1.0, 3.0])
    assert r_sq == 1.0


def test_loglog_small_perturbation():
    t = np.arange(2, 200)
    noise = 1.0 + 0.01 * (-1.0) ** np.arange(t.size)
    slope, _, _ = _loglog_fit(t, t**0.6 * noise)
    assert abs(slope - 0.6) <= 0.02


def test_estimate_iid_gaussian_band():
    # small-sample R/S bias keeps iid noise near but not exactly at 1/2
    estimates = [
        estimate_hurst(NoiseStream(9, k).generator().standard_normal(1024)).hurst
        for k in range(10)
    ]
    assert 0.40 <= np.mean(estimates) <= 0.65


def test_estimate_antipersistent_alternating():
    x = np.array([1.0, 0.0] * 64)  # partial sums of (1, -1, 1, -1, ...)
    est = estimate_hurst(x, t_min=4)
    assert est.hurst < 0.15
    assert est.amplitude > 0


def test_estimate_ordering_separates_regimes():
    grid = uniform_grid(1.0, 1024)
    means = {}
    for hurst in (0.7, 0.3):
        vals = [
            estimate_hurst(np.diff(sample_fbm_exact(hurst, grid, NoiseStream(12, k)).values)).hurst
            for k in range(8)
        ]
        means[hurst] = float(np.mean(vals))
    assert means[0.7] - means[0.3] >= 0.2


def test_estimate_affine_invariance_bitwise_for_doubling():
    x = NoiseStream(31).generator().standard_normal(512)
    a = estimate_hurst(x)
    b = estimate_hurst(2.0 * x)
    assert (a.hurst, a.amplitude, a.r_squared) == (b.hurst, b.amplitude, b.r_squared)


@pytest.mark.parametrize("k", [-600, 1, 600])
def test_rs_series_bitwise_invariant_under_powers_of_two(k):
    # at 2^600 the squares overflow and at 2^-600 they underflow unless
    # the series is first brought to unit scale
    x = NoiseStream(35).generator().standard_normal(512)
    a = rs_series(x)
    b = rs_series(x * 2.0**k)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_estimate_affine_invariance_general():
    x = NoiseStream(32).generator().standard_normal(512)
    a = estimate_hurst(x)
    b = estimate_hurst(3.7 * x - 2.5)
    assert b.hurst == pytest.approx(a.hurst, rel=1e-9)
    assert b.amplitude == pytest.approx(a.amplitude, rel=1e-9)
    assert b.r_squared == pytest.approx(a.r_squared, rel=1e-9)


def test_estimate_reports_points_used():
    x = NoiseStream(33).generator().standard_normal(256)
    est = estimate_hurst(x, t_min=16)
    assert est.points_used == 256 - 16 + 1


def test_estimate_insufficient_points():
    x = NoiseStream(34).generator().standard_normal(64)
    with pytest.raises(ValueError):
        estimate_hurst(x, t_min=64)
    with pytest.raises(ValueError):
        estimate_hurst(x, t_min=1)


def test_estimate_needs_two_fit_points():
    assert HurstEstimate(0.7, 1.0, 1.0, 2).points_used == 2
    with pytest.raises(ValueError, match="at least two fit points"):
        HurstEstimate(0.7, 1.0, 1.0, points_used=1)
