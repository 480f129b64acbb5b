import numpy as np
import pytest

from fraclangevin import (DecompositionError, DenseSizeError,
                          NoiseStream, cholesky_factor, covariance_matrix,
                          fbm_covariance, gaussian_increments,
                          make_kernel_spec, sample_fbm_exact,
                          sample_fbm_kernel, uniform_grid)
from fraclangevin import kernels
from fraclangevin.kernels import PANEL_ROWS, _apply


def grid_012():
    return uniform_grid(2.0, 2)  # points 0, 1, 2


def test_covariance_matrix_standard():
    cov = covariance_matrix(0.5, grid_012())
    assert type(cov) is np.ndarray and not cov.flags.writeable
    assert np.allclose(cov, [[1.0, 1.0], [1.0, 2.0]], rtol=1e-14)


def test_covariance_matrix_single_point():
    cov = covariance_matrix(0.3, uniform_grid(1.5, 1))
    assert cov.shape == (1, 1)
    assert cov[0, 0] == pytest.approx(1.5**0.6, rel=1e-14)


def test_covariance_matrix_above_half():
    cov = covariance_matrix(0.7, grid_012())
    expect = [[1.0, 2.0**0.4], [2.0**0.4, 2.0**1.4]]
    assert np.allclose(cov, expect, rtol=1e-14)


def test_covariance_matrix_matches_pointwise_function():
    grid = uniform_grid(1.0, 16)
    cov = covariance_matrix(0.7, grid)
    pts = grid.points[1:]
    for i in range(16):
        for j in range(16):
            # vectorized pow may differ from scalar libm by one ulp
            assert cov[i, j] == pytest.approx(
                fbm_covariance(0.7, pts[j], pts[i]), rel=1e-14)
    assert np.array_equal(cov, cov.T)


def test_cholesky_identity():
    assert np.array_equal(cholesky_factor(np.eye(2)), np.eye(2))


def test_cholesky_hand_factorization():
    cov = np.array([[1.0, 1.0], [1.0, 2.0]])
    assert np.allclose(cholesky_factor(cov), [[1.0, 0.0], [1.0, 1.0]], rtol=1e-15)


def test_cholesky_fbm_pivots_and_reconstruction():
    grid = uniform_grid(1.0, 64)
    cov = covariance_matrix(0.7, grid)
    ell = cholesky_factor(cov)
    assert (np.diag(ell) > 0).all()
    err = np.abs(ell @ ell.T - cov).max()
    assert err <= 1e-10 * np.abs(cov).max()


def test_cholesky_rejects_indefinite():
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DecompositionError):
        cholesky_factor(cov)


def test_exact_sampler_pins_origin():
    path = sample_fbm_exact(0.7, uniform_grid(1.0, 8), NoiseStream(0))
    assert path.values[0] == 0.0


def test_exact_sampler_standard_law():
    # H = 1/2: sample covariance should match min(s, t)
    grid = uniform_grid(1.0, 8)
    m = 5000
    draws = np.array([
        sample_fbm_exact(0.5, grid, NoiseStream(100, k)).values[1:]
        for k in range(m)
    ])
    sample_cov = draws.T @ draws / m
    pts = grid.points[1:]
    target = np.minimum.outer(pts, pts)
    se = np.sqrt((np.outer(pts, pts) + target**2) / m)
    assert (np.abs(sample_cov - target) <= 4 * se).mean() >= 0.95


def test_exact_sampler_variance_above_half():
    grid = uniform_grid(1.0, 16)
    m = 5000
    term = np.array([
        sample_fbm_exact(0.7, grid, NoiseStream(101, k)).values[-1]
        for k in range(m)
    ])
    assert abs(term.var() - 1.0) <= 3 * np.sqrt(2.0 / m)


def test_kernel_sampler_standard_reduces_to_partial_sums():
    grid = uniform_grid(1.0, 128)
    stream = NoiseStream(55)
    path = sample_fbm_kernel(make_kernel_spec(0.5), grid, stream)
    db = gaussian_increments(grid, stream)
    assert np.array_equal(path.values, np.concatenate(([0.0], np.cumsum(db))))


@pytest.mark.parametrize("hurst", [0.7, 0.3])
def test_kernel_sampler_terminal_variance(hurst):
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(1.0, 256)
    m = 600
    term = np.array([
        sample_fbm_kernel(spec, grid, NoiseStream(77, k)).values[-1]
        for k in range(m)
    ])
    assert term.var() == pytest.approx(1.0, abs=0.10)


@pytest.mark.slow
def test_kernel_sampler_covariance_z_scores():
    # coarser than the exact sampler: discretization bias eats some of
    # the z budget, so the pass bar sits at 95% instead of 99%
    m = 5000
    grid = uniform_grid(1.0, 32)
    for hurst in (0.3, 0.7):
        spec = make_kernel_spec(hurst)
        draws = np.array([
            sample_fbm_kernel(spec, grid, NoiseStream(88, k)).values[1:]
            for k in range(m)
        ])
        target = covariance_matrix(hurst, grid)
        sample_cov = draws.T @ draws / m
        z_se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / m)
        frac = (np.abs(sample_cov - target) <= 4 * z_se).mean()
        assert frac >= 0.95, (hurst, frac)


def test_sampler_self_similar_variance_slope():
    # Var B_t = t^(2H): log-log slope of the sample variance close to 2H
    grid = uniform_grid(1.0, 4)
    m = 5000
    draws = np.array([
        sample_fbm_exact(0.7, grid, NoiseStream(102, k)).values[1:]
        for k in range(m)
    ])
    t = grid.points[1:]
    slope = np.polyfit(np.log(t), np.log(draws.var(axis=0)), 1)[0]
    assert abs(slope - 1.4) <= 0.15


def test_increment_stationarity():
    # Var(B_{t+d} - B_t) depends only on d
    grid = uniform_grid(1.0, 8)
    m = 5000
    draws = np.array([
        sample_fbm_exact(0.3, grid, NoiseStream(103, k)).values
        for k in range(m)
    ])
    a = draws[:, 3] - draws[:, 1]
    b = draws[:, 7] - draws[:, 5]
    va, vb = a.var(), b.var()
    joint_se = np.sqrt(2.0 / m) * (va + vb) / 2
    assert abs(va - vb) <= 4 * joint_se


def test_exact_sampler_refuses_oversized_grid():
    # checked before the 3.2 GB covariance matrix is allocated; at n = 8000
    # one matrix is 0.5 GiB, but the factorization holds three
    for n in (20000, 8000):
        with pytest.raises(DenseSizeError, match=f"3 dense {n}x{n}"):
            sample_fbm_exact(0.7, uniform_grid(1.0, n), NoiseStream(1))
    kernels._check_dense(6688, 3)
    with pytest.raises(DenseSizeError):
        kernels._check_dense(6689, 3)


@pytest.mark.parametrize("n", [513, 1537, 2048, 2500])
def test_cholesky_panels_match_dense_product(n):
    hurst = 0.7
    grid = uniform_grid(1.0, n)
    stream = NoiseStream(3)
    path = sample_fbm_exact(hurst, grid, stream)
    panels = kernels._DENSE[("cholesky", hurst, grid)]
    ell = cholesky_factor(covariance_matrix(hurst, grid))
    assert len(panels) == -(-n // PANEL_ROWS)
    for p, panel in enumerate(panels):
        rows = slice(p * PANEL_ROWS, min(n, (p + 1) * PANEL_ROWS))
        assert panel.flags.c_contiguous and not panel.flags.writeable
        assert np.array_equal(panel, ell[rows, :rows.stop])
    z = stream.generator().standard_normal(n)
    bound = 1e-13 * (np.abs(ell) @ np.abs(z))
    assert np.all(np.abs(path.values[1:] - ell @ z) <= bound)
    rng = np.random.default_rng(n)
    for shape in [(n,), (n, 4)]:
        x = rng.standard_normal(shape)
        got = _apply(panels, x)
        assert got.shape == shape
        assert np.all(np.abs(got - ell @ x) <= 1e-13 * (np.abs(ell) @ np.abs(x)))


def test_substreams_drawn_in_any_order_give_identical_paths():
    grid = uniform_grid(1.0, 64)
    spec = make_kernel_spec(0.3)

    def draw(k):
        stream = NoiseStream(17, k)
        return (gaussian_increments(grid, stream),
                sample_fbm_exact(0.7, grid, stream).values,
                sample_fbm_kernel(spec, grid, stream).values)

    in_order = [draw(k) for k in range(8)]
    order = np.random.default_rng(3).permutation(8)
    assert not np.array_equal(order, np.arange(8))
    shuffled = {int(k): draw(int(k)) for k in order}
    for k in range(8):
        for a, b in zip(in_order[k], shuffled[k]):
            assert np.array_equal(a, b)
