import math

import numpy as np
import pytest
from scipy import stats

from fraclangevin import (DenseSizeError, NoiseStream, Path, StepDistribution,
                          StepFunction, StepKind, donsker_path, gaussian_increments, make_kernel_spec,
                          quadratic_variation, smoothed_fbm,
                          theta_epsilon_path, uniform_grid, weight_matrix)
from fraclangevin import kernels
from fraclangevin.kernels import _kernel_integral

RADEMACHER = StepDistribution(StepKind.RADEMACHER)


def integral_to(step, x):
    """Exact integral of the step function ``step`` over [0, x]."""
    upper = np.minimum(step.breakpoints[1:], x)
    lengths = np.clip(upper - step.breakpoints[:-1], 0.0, None)
    return float(step.levels @ lengths)


def test_gaussian_increments_deterministic():
    grid = uniform_grid(1.0, 64)
    stream = NoiseStream(42, 3)
    assert np.array_equal(gaussian_increments(grid, stream),
                          gaussian_increments(grid, stream))


def test_gaussian_increments_moments():
    grid = uniform_grid(1.0, 100_000)
    db = gaussian_increments(grid, NoiseStream(7))
    n, dt = grid.n_cells, grid.widths.max()
    assert abs(db.mean()) <= 4.0 * np.sqrt(dt) / np.sqrt(n)
    assert db.var() == pytest.approx(dt, rel=0.05)


def test_quadratic_variation_deterministic_ramp():
    n, horizon = 1000, 3.0
    grid = uniform_grid(horizon, n)
    qv = quadratic_variation(Path(grid, grid.points.copy()))
    assert qv == pytest.approx(horizon**2 / n, rel=1e-12)


def test_quadratic_variation_constant():
    grid = uniform_grid(1.0, 16)
    assert quadratic_variation(Path(grid, np.full(17, 2.5))) == 0.0


def test_quadratic_variation_brownian():
    grid = uniform_grid(2.0, 100_000)
    db = gaussian_increments(grid, NoiseStream(11))
    path = Path(grid, np.concatenate(([0.0], np.cumsum(db))))
    assert abs(quadratic_variation(path) - 2.0) <= 0.05


def test_quadratic_variation_concentrates_over_seeds():
    n, seeds = 10_000, 100
    grid = uniform_grid(1.0, n)
    qvs = []
    for k in range(seeds):
        db = gaussian_increments(grid, NoiseStream(61, k))
        qvs.append(quadratic_variation(Path(grid, np.concatenate(([0.0], np.cumsum(db))))))
    assert abs(np.mean(qvs) - 1.0) <= 3.0 * np.sqrt(2.0 / (n * seeds))


def test_donsker_starts_at_zero():
    path = donsker_path(100, 1.0, RADEMACHER, NoiseStream(0))
    assert path.values[0] == 0.0


def test_donsker_takes_whole_step_counts_only():
    want = donsker_path(10, 1.0, RADEMACHER, NoiseStream(0))
    for n in (10.0, np.int64(10)):
        path = donsker_path(n, 1.0, RADEMACHER, NoiseStream(0))
        assert np.array_equal(path.values, want.values)
        assert path.grid == want.grid
    # 10.7 built the path of 10
    with pytest.raises(ValueError, match="n must be a whole number"):
        donsker_path(10.7, 1.0, RADEMACHER, NoiseStream(0))


def test_donsker_refuses_zero_steps_per_unit_time():
    with pytest.raises(ValueError, match="need n >= 1 steps per unit time"):
        donsker_path(0, 1.0, RADEMACHER, NoiseStream(0))


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0])
def test_noise_paths_refuse_nonpositive_or_nonfinite_reals(bad):
    # inf used to reach round / math.ceil: a bare OverflowError
    with pytest.raises(ValueError, match="horizon must be a positive real"):
        donsker_path(10, bad, RADEMACHER, NoiseStream(0))
    with pytest.raises(ValueError, match="horizon must be a positive real"):
        theta_epsilon_path(0.1, bad, RADEMACHER, NoiseStream(0))
    with pytest.raises(ValueError, match="epsilon must be a positive real"):
        theta_epsilon_path(bad, 1.0, RADEMACHER, NoiseStream(0))


def test_noise_paths_refuse_step_counts_before_drawing(monkeypatch):
    # 1e-200 and 1e-170 square to 0; 1e-160 squares to a subnormal that
    # makes horizon / eps^2 infinite; the rest ask for 1e10 and 1e12 draws
    def no_draws(*args):
        raise AssertionError("drew variates")

    monkeypatch.setattr(StepDistribution, "sample", no_draws)
    for eps in (1e-200, 1e-170):
        with pytest.raises(ValueError, match=r"epsilon\*\*2 underflows to 0"):
            theta_epsilon_path(eps, 1.0, RADEMACHER, NoiseStream(1))
    for eps in (1e-160, 1e-5):
        with pytest.raises(ValueError, match=r"horizon / epsilon\*\*2 = .* GiB"):
            theta_epsilon_path(eps, 1.0, RADEMACHER, NoiseStream(1))
    with pytest.raises(ValueError, match=r"n \* horizon = 1e\+12 steps"):
        donsker_path(10**6, 1e6, RADEMACHER, NoiseStream(1))


def test_noise_paths_read_the_live_store_budget(monkeypatch):
    # step draws are refused against kernels.DENSE_BYTES_MAX as it is at
    # the call: 2000 and 10000 steps of 8 bytes each exceed 8000 B
    def no_draws(*args):
        raise AssertionError("drew variates")

    monkeypatch.setattr(kernels, "DENSE_BYTES_MAX", 8000)
    monkeypatch.setattr(StepDistribution, "sample", no_draws)
    with pytest.raises(DenseSizeError, match=r"n \* horizon = 2000 steps"):
        donsker_path(1000, 2.0, RADEMACHER, NoiseStream(1))
    with pytest.raises(DenseSizeError, match=r"horizon / epsilon\*\*2 = 10000 steps"):
        theta_epsilon_path(0.01, 1.0, RADEMACHER, NoiseStream(1))


def test_donsker_single_step_magnitude():
    n = 400
    path = donsker_path(n, 1.0, RADEMACHER, NoiseStream(5))
    assert abs(path.values[1]) == pytest.approx(1.0 / np.sqrt(n), rel=1e-12)
    assert path.grid.points[1] == pytest.approx(1.0 / n, rel=1e-12)


def test_donsker_terminal_close_to_normal():
    n, m = 2000, 500
    samples = np.array([
        donsker_path(n, 1.0, RADEMACHER, NoiseStream(21, k)).values[-1]
        for k in range(m)
    ])
    assert stats.kstest(samples, "norm").statistic <= 0.08


def test_donsker_block_increments_uncorrelated():
    # disjoint block sums are independent: their sample covariance is noise
    n, m = 1000, 800
    a, b = [], []
    for k in range(m):
        vals = donsker_path(n, 1.0, RADEMACHER, NoiseStream(33, k)).values
        a.append(vals[n // 2] - vals[0])
        b.append(vals[n] - vals[n // 2])
    a, b = np.array(a), np.array(b)
    z = np.mean(a * b) / np.sqrt(np.var(a) * np.var(b) / m)
    assert abs(z) <= 4.0


def test_theta_partial_integrals_are_scaled_step_sums():
    eps = 0.1
    theta = theta_epsilon_path(eps, 1.0, RADEMACHER, NoiseStream(2))
    steps = theta.levels * eps  # recover xi_k
    for k in (1, 3, 7):
        assert integral_to(theta, k * eps**2) == pytest.approx(
            eps * steps[:k].sum(), rel=1e-12)


def test_theta_integral_variance():
    ints = [
        integral_to(theta_epsilon_path(0.05, 1.0, RADEMACHER, NoiseStream(6, k)), 1.0)
        for k in range(2000)
    ]
    assert np.var(ints) == pytest.approx(1.0, rel=0.05)


def test_theta_levels_have_noise_amplitude():
    eps = 0.25
    theta = theta_epsilon_path(eps, 1.0, RADEMACHER, NoiseStream(9))
    assert set(np.round(np.abs(theta.levels), 12)) == {1.0 / eps}


def test_step_function_right_open_intervals():
    theta = theta_epsilon_path(0.5, 1.0, RADEMACHER, NoiseStream(1))
    # breakpoints at 0, 0.25, 0.5, ...: value at a breakpoint belongs right
    assert theta.value_at(0.25) == theta.levels[1]
    assert theta.value_at(0.2499999) == theta.levels[0]


@pytest.mark.parametrize("breakpoints, levels, reason", [
    ([0.0, 0.5, 1.0], [1.0], "one level per interval"),
    ([0.0, 0.5, 0.5], [1.0, 2.0], "strictly increasing"),
    ([0.0, 1.0, 0.5], [1.0, 2.0], "strictly increasing"),
    ([0.0, 0.5, 1.0], [1.0, np.nan], "levels must be finite"),
])
def test_step_function_refuses_bad_pieces(breakpoints, levels, reason):
    with pytest.raises(ValueError, match=reason):
        StepFunction(np.array(breakpoints), np.array(levels))


def test_smoothed_fbm_matches_weight_quadrature():
    spec = make_kernel_spec(0.7)
    grid = uniform_grid(1.0, 64)
    stream = NoiseStream(17)
    path = smoothed_fbm(spec, 0.125, grid, stream)
    theta = theta_epsilon_path(0.125, 1.0, StepDistribution(StepKind.GAUSSIAN), stream)
    expected = weight_matrix(spec, grid) @ theta.value_at(grid.midpoints)
    assert path.values[0] == 0.0
    assert np.allclose(path.values[1:], expected, rtol=1e-12, atol=0.0)


def test_smoothed_fbm_standard_is_integrated_noise():
    # eps^2 aligned with the grid cells: midpoint sampling is exact
    spec = make_kernel_spec(0.5)
    grid = uniform_grid(1.0, 16)
    stream = NoiseStream(23)
    path = smoothed_fbm(spec, 0.25, grid, stream, RADEMACHER)
    theta = theta_epsilon_path(0.25, 1.0, RADEMACHER, stream)
    expected = [integral_to(theta, t) for t in grid.points]
    assert np.allclose(path.values, expected, rtol=1e-12, atol=1e-15)


def test_smoothed_fbm_zero_levels_gives_zero_path():
    spec = make_kernel_spec(0.7)
    grid = uniform_grid(1.0, 32)
    w = weight_matrix(spec, grid)
    assert np.array_equal(w @ np.zeros(32), np.zeros(32))


@pytest.mark.slow
def test_smoothed_fbm_variance_approaches_fbm():
    spec = make_kernel_spec(0.7)
    grid = uniform_grid(1.0, 2500)  # cells aligned with eps^2 = 4e-4
    gaussian = StepDistribution(StepKind.GAUSSIAN)
    # the 2000 streams of smoothed_fbm, one kernel integral over all columns
    levels = np.column_stack([
        theta_epsilon_path(0.02, 1.0, gaussian, NoiseStream(7, k)).value_at(
            grid.midpoints)
        for k in range(2000)
    ])
    paths = _kernel_integral(spec, grid, levels)
    for k in (0, 1, 1999):
        one = smoothed_fbm(spec, 0.02, grid, NoiseStream(7, k)).values[1:]
        assert np.abs(paths[:, k] - one).max() <= 1e-13 * np.abs(one).max()
    assert np.var(paths[-1]) == pytest.approx(1.0, rel=0.10)


def test_step_distribution_moments():
    rng = NoiseStream(3).generator()
    for kind in (StepKind.GAUSSIAN, StepKind.RADEMACHER):
        draws = StepDistribution(kind, sigma=2.0).sample(rng, 20_000)
        assert abs(draws.mean()) <= 4 * 2.0 / np.sqrt(draws.size)
        assert draws.var() == pytest.approx(4.0, rel=0.05)
    with pytest.raises(ValueError):
        StepDistribution(StepKind.GAUSSIAN, sigma=0.0)


def test_step_distribution_reads_its_kind_by_value():
    # "gaussian" once fell through to +/-1 steps
    dist = StepDistribution("gaussian")
    assert dist.kind is StepKind.GAUSSIAN
    assert dist == StepDistribution(StepKind.GAUSSIAN)
    draws = dist.sample(NoiseStream(4).generator(), 1000)
    assert np.array_equal(
        draws, NoiseStream(4).generator().standard_normal(1000))
    assert StepDistribution("rademacher").kind is StepKind.RADEMACHER
    with pytest.raises(ValueError, match="StepKind"):
        StepDistribution("normal")


@pytest.mark.parametrize("sigma", [np.inf, -np.inf, np.nan])
def test_step_distribution_refuses_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        StepDistribution(StepKind.RADEMACHER, sigma=sigma)
