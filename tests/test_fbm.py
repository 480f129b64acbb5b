import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from fraclangevin import (DecompositionError, DenseSizeError,
                          NoiseStream, TimeGrid, fbm_covariance,
                          gaussian_increments, make_kernel_spec,
                          sample_fbm_exact, sample_fbm_kernel, uniform_grid)
from fraclangevin import fbm, kernels


def grid_012():
    return uniform_grid(2.0, 2)  # points 0, 1, 2


def grid_013():
    return TimeGrid([0.0, 1.0, 3.0])  # not uniform: the LAPACK route


def moved_grid(horizon, n):
    """uniform_grid(horizon, n) with t_(n//2) moved by 1e-9 T, n >= 2: past
    the uniformity tolerance, so the exact sampler takes the LAPACK route."""
    points = uniform_grid(horizon, n).points.copy()
    points[n // 2] += 1e-9 * horizon
    return TimeGrid(points)


def covariance_matrix(hurst, grid):
    """R(t_i, t_j) over the positive grid points, as the exact sampler
    factorizes it."""
    pts = grid.points[1:]
    return fbm_covariance(hurst, pts[None, :], pts[:, None])


@pytest.fixture
def empty_store(monkeypatch):
    """A fresh dense store, so a patched covariance caches nothing shared."""
    store = OrderedDict()
    monkeypatch.setattr(kernels, "_DENSE", store)
    return store


def test_covariance_matrix_standard():
    cov = covariance_matrix(0.5, grid_012())
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


def test_cholesky_identity(monkeypatch, empty_store):
    # an identity covariance maps the stream's normals through unchanged
    monkeypatch.setattr(fbm, "fbm_covariance", lambda h, s, t: np.eye(2))
    stream = NoiseStream(5)
    path = sample_fbm_exact(0.5, grid_013(), stream)
    assert np.array_equal(path.values[1:], stream.generator().standard_normal(2))


def test_cholesky_hand_factorization():
    # at H = 1/2 the covariance over points 1, 2 is min(s, t) = [[1, 1], [1, 2]]
    ell = fbm._cholesky_factor(0.5, grid_012())
    assert np.allclose(ell, [[1.0, 0.0], [1.0, 1.0]], rtol=1e-15)


def test_cholesky_fbm_pivots_and_reconstruction():
    grid = uniform_grid(1.0, 64)
    cov = covariance_matrix(0.7, grid)
    ell = fbm._cholesky_factor(0.7, grid)
    assert (np.diag(ell) > 0).all()
    err = np.abs(ell @ ell.T - cov).max()
    assert err <= 1e-10 * np.abs(cov).max()


def test_cholesky_rejects_indefinite(monkeypatch, empty_store):
    cov = np.array([[1.0, 2.0], [2.0, 1.0]])
    monkeypatch.setattr(fbm, "fbm_covariance", lambda h, s, t: cov)
    with pytest.raises(DecompositionError, match="not positive definite"):
        sample_fbm_exact(0.5, grid_013(), NoiseStream(1))
    assert not empty_store  # a failed build is not kept


def test_circulant_rejects_negative_eigenvalue(monkeypatch, empty_store):
    # the circulant of first row (1, 0.9, -0.9, 0.5, -0.9, 0.9) has the
    # eigenvalues 1.5, 2.3, 1.5 and -3.1 at frequencies 0..3
    monkeypatch.setattr(fbm, "_fgn_autocovariance",
                        lambda h, n: np.array([1.0, 0.9, -0.9, 0.5]))
    with pytest.raises(DecompositionError,
                       match=r"^circulant embedding is not positive "
                             r"semidefinite: smallest eigenvalue -3\.1, "
                             r"largest 2\.3$"):
        sample_fbm_exact(0.7, uniform_grid(1.0, 3), NoiseStream(1))
    assert not empty_store


def refuse(*args):
    raise AssertionError("the other route was taken")


def test_perturbed_grid_takes_the_lapack_route(monkeypatch, empty_store):
    grid = moved_grid(2.0, 64)
    monkeypatch.setattr(fbm, "_circulant_map", refuse)
    ell = fbm._cholesky_factor(0.7, grid)
    assert np.array_equal(ell, np.linalg.cholesky(covariance_matrix(0.7, grid)))
    sample_fbm_exact(0.7, grid, NoiseStream(1))
    assert not empty_store


def test_arange_grid_takes_the_circulant_route(monkeypatch, empty_store):
    n, step = 100, 0.1
    grid = TimeGrid(np.arange(n + 1) * step)
    stream = NoiseStream(4)
    z = stream.generator().standard_normal((2, 2 * n))
    want = fbm._circulant_map(0.3, uniform_grid(n * step, n), z)
    monkeypatch.setattr(fbm, "fbm_covariance", refuse)
    monkeypatch.setattr(fbm, "_cholesky_factor", refuse)
    got = sample_fbm_exact(0.3, grid, stream).values
    assert got[0] == 0.0
    assert np.abs(got[1:] - want).max() <= 1e-12 * np.abs(want).max()
    assert not empty_store


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


@pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.2, np.nan, np.inf])
@pytest.mark.parametrize("kind", ["uniform", "moved"])
def test_exact_sampler_checks_hurst_first(hurst, kind, empty_store):
    grid = uniform_grid(1.0, 64) if kind == "uniform" else moved_grid(1.0, 64)
    with pytest.raises(ValueError,
                       match=r"^Hurst index must lie in \(0, 1\); got "):
        sample_fbm_exact(hurst, grid, NoiseStream(1))
    assert not empty_store


def test_exact_sampler_refuses_oversized_grid():
    # checked before the 3.2 GB covariance matrix is allocated; at n = 8000
    # one matrix is 0.5 GiB, but the factorization holds three
    for n in (20000, 8000):
        with pytest.raises(DenseSizeError, match=f"3 dense {n}x{n}"):
            sample_fbm_exact(0.7, moved_grid(1.0, n), NoiseStream(1))
    kernels._check_dense(6688, 3)
    with pytest.raises(DenseSizeError):
        kernels._check_dense(6689, 3)


def test_uniform_grid_stores_nothing_and_holds_o_n_bytes(empty_store):
    n = 2**16
    grid = uniform_grid(1.0, n)
    tracemalloc.start()
    try:
        path = sample_fbm_exact(0.7, grid, NoiseStream(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not empty_store
    assert peak < 256 * n  # the Cholesky route would need 3 * 8 n^2 bytes
    assert np.isfinite(path.values).all() and path.values[0] == 0.0


@pytest.mark.parametrize("n", [513, 1537, 2048, 2500])
def test_nonuniform_path_is_the_dense_cholesky_product(n, empty_store):
    hurst = 0.7
    grid = moved_grid(1.0, n)
    stream = NoiseStream(3)
    path = sample_fbm_exact(hurst, grid, stream)
    ell = np.linalg.cholesky(covariance_matrix(hurst, grid))
    z = stream.generator().standard_normal(n)
    bound = 1e-13 * (np.abs(ell) @ np.abs(z))
    assert np.all(np.abs(path.values[1:] - ell @ z) <= bound)
    assert not empty_store


def test_nonuniform_draw_keeps_nothing(empty_store):
    n = 600
    kernels._kernel_operator(make_kernel_spec(0.3), uniform_grid(1.0, n))
    entries, held = list(empty_store.items()), kernels._dense_held()
    sample_fbm_exact(0.7, moved_grid(1.0, 16), NoiseStream(5))  # warm-up
    grid = moved_grid(1.0, n)
    tracemalloc.start()
    try:
        path = sample_fbm_exact(0.7, grid, NoiseStream(6))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    after = list(empty_store.items())
    assert [key for key, _ in after] == [key for key, _ in entries]
    assert all(a is b for (_, a), (_, b) in zip(after, entries))
    assert kernels._dense_held() == held
    assert kept < 16 * n  # the path; a kept factor holds over 4 n^2 bytes
    assert path.values.shape == (n + 1,)


def circulant_operator(hurst, grid):
    """The n x 4n matrix M with the circulant route's path M z.ravel(),
    column by column: the route fed one unit draw at a time."""
    n = grid.n_cells
    out = np.empty((n, 4 * n))
    unit = np.zeros(4 * n)
    for j in range(4 * n):
        unit[j - 1], unit[j] = 0.0, 1.0
        out[:, j] = fbm._circulant_map(hurst, grid, unit.reshape(2, 2 * n))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 64, 513, 2048, 4096])
@pytest.mark.parametrize("hurst", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_circulant_map_reconstructs_covariance(hurst, n):
    # nonnegative eigenvalues of the circulant whose first row is
    # (gamma_0 .. gamma_n, gamma_(n-1) .. gamma_1)
    lam = fbm._circulant_eigenvalues(hurst, n)
    assert lam.shape == (n + 1,) and (lam >= 0).all()
    gamma = fbm._fgn_autocovariance(hurst, n + 1)
    row = np.fft.irfft(lam)
    assert np.abs(row[:n + 1] - gamma).max() <= 1e-13
    assert np.abs(row[n:] - gamma[:0:-1]).max() <= 1e-13
    if n > 513:
        return
    # the route's linear map M has M M^T = R: the law is exactly N(0, R)
    grid = uniform_grid(1.0, n)
    m = circulant_operator(hurst, grid)
    cov = covariance_matrix(hurst, grid)
    assert np.abs(m @ m.T - cov).max() <= 1e-12 * np.abs(cov).max()


@pytest.mark.parametrize("n", [1, 2, 64, 2048])
def test_circulant_at_half_has_unit_eigenvalues(n):
    # at H = 1/2 the increments are white: every eigenvalue is 1, and the
    # map's covariance is R = min(s, t)
    assert np.abs(fbm._circulant_eigenvalues(0.5, n) - 1.0).max() <= 1e-13
    if n > 64:
        return
    grid = uniform_grid(3.0, n)
    m = circulant_operator(0.5, grid)
    pts = grid.points[1:]
    assert np.abs(m @ m.T - np.minimum.outer(pts, pts)).max() <= 1e-13


def test_circulant_eigenvalues_stay_positive_up_to_2_20():
    for n in (2**10, 2**15, 2**20):
        for hurst in np.linspace(0.01, 0.99, 15):
            lam = fbm._circulant_eigenvalues(hurst, n)
            assert lam.min() > 0, (hurst, n, lam.min() / lam.max())


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
