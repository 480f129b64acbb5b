import dataclasses
import math

import mpmath
import numpy as np
import pytest

from fraclangevin import (LangevinParams, NoiseStream, Path, TimeGrid,
                          gaussian_increments, ou_mean, ou_variance,
                          simulate_ou_em, simulate_ou_exact, uniform_grid)
from fraclangevin.langevin import _ar1, _checked_increments

PARAMS = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=1.0)


def simulate_ou_conditional(params, grid, increments):
    """Exact per-cell conditional mean given the Brownian increments.

    E[int e^(-(b/m)(t_i - s)) dB_s | dB_i] = dB_i (1 - e^(-b dt/m)) / (b dt / m),
    which makes this the natural zero-discretization-error reference for
    solvers driven by the same increments.
    """
    db = _checked_increments(grid, increments)
    rate = params.rate
    alpha = np.exp(-rate * grid.widths)
    gain = params.sigma * (1.0 - alpha) / (params.friction * grid.widths)
    return Path(grid, _ar1(alpha, gain * db, params.v0))


def test_params_validation():
    with pytest.raises(ValueError):
        LangevinParams(mass=0.0, friction=1.0, sigma=1.0, v0=0.0)
    with pytest.raises(ValueError):
        LangevinParams(mass=1.0, friction=-1.0, sigma=1.0, v0=0.0)
    with pytest.raises(ValueError):
        LangevinParams(mass=1.0, friction=1.0, sigma=-0.1, v0=0.0)
    good = dict(mass=1.0, friction=1.0, sigma=1.0, v0=0.0)
    for name, bad in [("mass", math.inf), ("friction", math.inf),
                      ("sigma", math.nan), ("sigma", math.inf),
                      ("v0", math.inf), ("v0", -math.inf), ("v0", math.nan)]:
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LangevinParams(**{**good, name: bad})


def test_mean_at_zero_is_start():
    assert ou_mean(PARAMS, 0.0) == 1.0


def test_mean_half_life():
    p = LangevinParams(mass=1.0, friction=1.0, sigma=0.0, v0=1.0)
    assert ou_mean(p, math.log(2.0)) == pytest.approx(0.5, rel=1e-14)


def test_mean_hand_value():
    p = LangevinParams(mass=2.0, friction=1.0, sigma=0.0, v0=3.0)
    assert ou_mean(p, 2.0) == pytest.approx(3.0 * math.exp(-1.0), rel=1e-14)


def test_mean_rejects_negative_time():
    with pytest.raises(ValueError):
        ou_mean(PARAMS, -0.1)
    with pytest.raises(ValueError):
        ou_variance(PARAMS, -0.1)


def test_params_are_a_fixed_start():
    assert [f.name for f in dataclasses.fields(LangevinParams)] == [
        "mass", "friction", "sigma", "v0"]


def test_variance_at_zero_and_infinity():
    p = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=1.0)
    assert ou_variance(p, 0.0) == 0.0  # the start v0 is not random
    stationary = 0.25 / (2 * 2 * 1)
    assert ou_variance(p, 1e4) == pytest.approx(stationary, rel=1e-12)


def test_variance_hand_value():
    assert ou_variance(PARAMS, 1.0) == pytest.approx(
        0.0625 * (1.0 - math.exp(-4.0)), rel=1e-14)


def mpmath_ou_variance(params, t):
    """sigma^2 (1 - e^(-2bt/m)) / (2bm) at 30 digits, for the float t."""
    with mpmath.workdps(30):
        b, m, sigma = (mpmath.mpf(v) for v in (params.friction, params.mass,
                                               params.sigma))
        return sigma**2 * -mpmath.expm1(-2 * b * mpmath.mpf(t) / m) / (2 * b * m)


# 1 - e^(-x) cancels for small x, to 0.0 below x = 2^-54 (t = 1e-17 here)
@pytest.mark.parametrize("t", [1e-17, 1e-12, 1e-6, 1.0])
def test_variance_matches_mpmath_at_small_times(t):
    ref = mpmath_ou_variance(PARAMS, t)
    assert abs(ou_variance(PARAMS, t) - ref) <= 1e-15 * ref


# one cell from v0 = 0: the value is the cell's noise scale times the
# stream's first normal, so it must carry the variance at the cell width
@pytest.mark.parametrize("width", [1e-12, 1e-17])
def test_exact_one_cell_scale_matches_mpmath(width):
    p = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=0.0)
    got = simulate_ou_exact(p, TimeGrid(np.array([0.0, width])),
                            NoiseStream(4)).values[1]
    z = NoiseStream(4).generator().standard_normal(1)[0]
    ref = mpmath.sqrt(mpmath_ou_variance(p, width)) * mpmath.mpf(z)
    assert abs(got - ref) <= 1e-15 * abs(ref)


def test_exact_noiseless_matches_mean_everywhere():
    p = LangevinParams(mass=1.3, friction=0.7, sigma=0.0, v0=2.0)
    grid = uniform_grid(3.0, 256)
    path = simulate_ou_exact(p, grid, NoiseStream(0))
    expect = [ou_mean(p, t) for t in grid.points]
    assert np.allclose(path.values, expect, rtol=1e-12, atol=0.0)


def test_exact_overdamped_limit():
    p = LangevinParams(mass=1.0, friction=500.0, sigma=0.0, v0=5.0)
    path = simulate_ou_exact(p, uniform_grid(1.0, 10), NoiseStream(0))
    assert path.values[0] == 5.0
    assert (np.abs(path.values[1:]) < 1e-20).all()


def test_exact_monte_carlo_moments():
    grid = uniform_grid(1.0, 4)
    m = 2000
    term = np.array([
        simulate_ou_exact(PARAMS, grid, NoiseStream(1, k)).values[-1]
        for k in range(m)
    ])
    se = term.std() / math.sqrt(m)
    assert abs(term.mean() - math.exp(-2.0)) <= 3 * se
    assert term.var() == pytest.approx(ou_variance(PARAMS, 1.0), rel=0.10)


def test_exact_mean_matches_at_interior_probes():
    grid = uniform_grid(1.0, 8)
    m = 3000
    draws = np.array([
        simulate_ou_exact(PARAMS, grid, NoiseStream(2, k)).values
        for k in range(m)
    ])
    for i in (2, 5, 8):
        t = grid.points[i]
        se = draws[:, i].std() / math.sqrt(m)
        assert abs(draws[:, i].mean() - ou_mean(PARAMS, t)) <= 3 * se


def test_exact_linearity_in_scale():
    grid = uniform_grid(1.0, 32)
    scaled = LangevinParams(mass=1.0, friction=2.0, sigma=1.5, v0=3.0)
    a = simulate_ou_exact(PARAMS, grid, NoiseStream(3))
    b = simulate_ou_exact(scaled, grid, NoiseStream(3))
    assert np.allclose(3.0 * a.values, b.values, rtol=1e-12, atol=1e-14)


def test_em_constant_when_driftless_and_quiet():
    # friction this small underflows the per-step decay to exactly 1
    p = LangevinParams(mass=1.0, friction=1e-300, sigma=0.5, v0=2.5)
    grid = uniform_grid(1.0, 16)
    path = simulate_ou_em(p, grid, np.zeros(16))
    assert np.array_equal(path.values, np.full(17, 2.5))


def test_em_zero_noise_geometric_decay():
    grid = uniform_grid(1.0, 16)
    path = simulate_ou_em(PARAMS, grid, np.zeros(16))
    factor = 1.0 - 2.0 / 16
    expect = [1.0 * factor**i for i in range(17)]
    assert np.allclose(path.values, expect, rtol=1e-12)


def test_em_rejects_wrong_increment_count():
    with pytest.raises(ValueError):
        simulate_ou_em(PARAMS, uniform_grid(1.0, 16), np.zeros(15))
    with pytest.raises(ValueError):
        simulate_ou_conditional(PARAMS, uniform_grid(1.0, 16), np.zeros(4))


def test_em_strong_order_against_conditional_exact():
    # terminal gap vs the conditional-mean exact path halves with the step
    seeds = 200
    gaps = {}
    for n in (64, 128):
        grid = uniform_grid(1.0, n)
        tot = 0.0
        for k in range(seeds):
            db = gaussian_increments(grid, NoiseStream(4, k))
            em = simulate_ou_em(PARAMS, grid, db)
            ex = simulate_ou_conditional(PARAMS, grid, db)
            tot += abs(em.values[-1] - ex.values[-1])
        gaps[n] = tot / seeds
    ratio = gaps[64] / gaps[128]
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3


def test_conditional_exact_is_unbiased_per_cell():
    # gain * E[dB] reproduces the closed-form mean when dB has its own mean
    grid = uniform_grid(1.0, 1)
    rate = PARAMS.rate
    db = np.array([0.4])
    path = simulate_ou_conditional(PARAMS, grid, db)
    expect = math.exp(-rate) * 1.0 + PARAMS.sigma * (1 - math.exp(-rate)) / 2.0 * 0.4
    assert path.values[-1] == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# the shared AR(1) recurrence against the former per-solver scalar loops
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _exact_terms(params, grid, stream):
    rate = params.rate
    alpha = np.exp(-rate * grid.widths)
    det = params.v0 * np.exp(-rate * grid.points)
    std = params.sigma * np.sqrt((1.0 - alpha**2) /
                                 (2.0 * params.friction * params.mass))
    eta = std * stream.generator().standard_normal(grid.n_cells)
    return alpha, det, eta


def _scalar_exact(params, grid, stream):
    alpha, det, eta = _exact_terms(params, grid, stream)
    values = det.copy()
    values[1:] += _scalar_drive(0.0, alpha, eta)[1:]
    return values


def _scalar_drive(x0, alpha, shocks):
    values = np.empty(len(shocks) + 1)
    values[0] = v = x0
    for i in range(len(shocks)):
        v = alpha[i] * v + shocks[i]
        values[i + 1] = v
    return values


def _assert_scan_bound(got, want, scale):
    """|got - want| <= (2n + 2 ceil(log2 n) + 2) eps M_i, n the cell count.

    M_i (``scale``) is the loop run on |alpha|, |shocks| and |x0|, plus the
    closed-form part of an exact path; where it is 0 the two agree exactly.
    """
    n = len(got) - 1
    bound = (2 * n + 2 * math.ceil(math.log2(n)) + 2) * EPS * scale
    assert (np.abs(got - want) <= bound).all()


GRIDS = [uniform_grid(1.0, 512),
         TimeGrid(np.concatenate(([0.0], np.cumsum(
             np.random.default_rng(9).uniform(0.001, 0.01, 300)))))]


@pytest.mark.parametrize("grid", GRIDS)
def test_solvers_match_scalar_loops_within_rounding_bound(grid):
    # measured worst case: 2.5 eps M_i on these grids, 9.8 on uniform_grid(1, 8192)
    p = LangevinParams(mass=1.3, friction=2.0, sigma=0.5, v0=-0.7)
    alpha, det, eta = _exact_terms(p, grid, NoiseStream(5))
    _assert_scan_bound(simulate_ou_exact(p, grid, NoiseStream(5)).values,
                       _scalar_exact(p, grid, NoiseStream(5)),
                       np.abs(det) + _scalar_drive(0.0, alpha, np.abs(eta)))
    db = gaussian_increments(grid, NoiseStream(6))
    alpha = np.exp(-p.rate * grid.widths)
    gain = p.sigma * (1.0 - alpha) / (p.friction * grid.widths)
    _assert_scan_bound(simulate_ou_conditional(p, grid, db).values,
                       _scalar_drive(p.v0, alpha, gain * db),
                       _scalar_drive(abs(p.v0), alpha, np.abs(gain * db)))
    alpha = 1.0 - p.rate * grid.widths
    shocks = (p.sigma / p.mass) * db
    _assert_scan_bound(simulate_ou_em(p, grid, db).values,
                       _scalar_drive(p.v0, alpha, shocks),
                       _scalar_drive(abs(p.v0), np.abs(alpha), np.abs(shocks)))


ALPHAS = {
    "zero": lambda rng, n: np.zeros(n),
    "in_minus_one_zero": lambda rng, n: rng.uniform(-1.0, 0.0, n),
    "below_minus_one": lambda rng, n: rng.uniform(-1.3, -1.0, n),
    "one": lambda rng, n: np.ones(n),
    "mixed_signs": lambda rng, n: rng.uniform(-1.2, 1.2, n),
}


@pytest.mark.parametrize("n", [1, 2, 5, 1000, 1024])
@pytest.mark.parametrize("kind", sorted(ALPHAS))
def test_ar1_edge_cases_within_rounding_bound(kind, n):
    rng = np.random.default_rng(n)
    alpha = ALPHAS[kind](rng, n)
    shocks = rng.standard_normal(n)
    got = _ar1(alpha, shocks, 0.7)
    assert got.shape == (n + 1,) and got[0] == 0.7
    _assert_scan_bound(got, _scalar_drive(0.7, alpha, shocks),
                       _scalar_drive(0.7, np.abs(alpha), np.abs(shocks)))
    if kind == "zero":
        assert np.array_equal(got[1:], shocks)


def test_em_step_with_zero_decay_is_the_shock():
    # rate * dt = 1 makes the Euler-Maruyama factor exactly 0
    db = np.array([0.3, -1.1, 0.25, 2.0])
    path = simulate_ou_em(LangevinParams(1.0, 4.0, 1.0, 1.0), uniform_grid(1.0, 4), db)
    assert np.array_equal(path.values, [1.0, *db])


@pytest.mark.parametrize("grid", GRIDS)
def test_exact_noiseless_is_closed_form_bitwise(grid):
    p = LangevinParams(mass=1.3, friction=0.7, sigma=0.0, v0=-2.0)
    assert np.array_equal(simulate_ou_exact(p, grid, NoiseStream(0)).values,
                          p.v0 * np.exp(-p.rate * grid.points))


def test_em_unstable_run_fails_as_non_finite():
    # rate * dt = 4: the factor -3 overflows the path long before step 1000
    with pytest.raises(ValueError, match="path values must be finite"):
        simulate_ou_em(LangevinParams(1, 4, 1, 1), uniform_grid(1000.0, 1000),
                       np.ones(1000))


def test_ar1_batch_columns_equal_single_runs():
    rng = np.random.default_rng(11)
    alpha = rng.uniform(0.5, 1.0, 257)
    shocks = rng.standard_normal((257, 6))
    batch = _ar1(alpha, shocks, 0.3)
    assert batch.shape == (258, 6)
    for j in range(6):
        assert np.array_equal(batch[:, j], _ar1(alpha, shocks[:, j], 0.3))
