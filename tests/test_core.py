import numpy as np
import pytest

import fraclangevin
from fraclangevin import (DenseSizeError, NoiseStream, Path, StepFunction,
                          TimeGrid, core, fbm, fractional, hurst, kernels,
                          langevin, noise, uniform_grid)


def test_uniform_grid_points():
    grid = uniform_grid(1.0, 4)
    assert np.array_equal(grid.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert grid.horizon == 1.0
    assert grid.n_cells == 4


def test_uniform_grid_minimal():
    grid = uniform_grid(2.0, 1)
    assert np.array_equal(grid.points, [0.0, 2.0])


@pytest.mark.parametrize("horizon,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (np.inf, 4)])
def test_uniform_grid_rejects_degenerate(horizon, n):
    with pytest.raises(ValueError):
        uniform_grid(horizon, n)


def test_uniform_grid_refuses_points_over_the_budget(monkeypatch):
    # 10^12 cells would hold 7450.6 GiB of points: refused before any is made
    def unbuilt(*args, **kwargs):
        raise AssertionError("the points were made")

    monkeypatch.setattr(np, "linspace", unbuilt)
    with pytest.raises(DenseSizeError, match="1000000000001 grid points need 7450.6 GiB"):
        uniform_grid(1.0, 10**12)


@pytest.mark.parametrize("n", [2.9, "4", np.float64(4.5), np.nan])
def test_uniform_grid_refuses_fractional_cell_counts(n):
    # 2.9 built 2 cells and "4" built 4
    with pytest.raises(ValueError, match="n must be a whole number"):
        uniform_grid(1.0, n)


@pytest.mark.parametrize("n", [4.0, np.int64(4), np.float64(4.0)])
def test_uniform_grid_takes_whole_numbers_of_any_type(n):
    assert uniform_grid(1.0, n) == uniform_grid(1.0, 4)


def test_midpoints_do_not_overflow():
    for grid in (uniform_grid(1.0, 1024), uniform_grid(0.8125, 512),
                 TimeGrid(np.array([0.0, 1e-15, 0.5, 1.0 - 1e-15, 1.0]))):
        pts = grid.points
        assert np.array_equal(grid.midpoints, 0.5 * (pts[:-1] + pts[1:]))
    mids = uniform_grid(1e308, 8).midpoints
    assert np.isfinite(mids).all()
    assert mids[-1] == 0.9375e308


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.1, 0.5]))  # must start at zero
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 0.5, 0.5]))  # not strictly increasing
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="grid points must be finite"):
            TimeGrid(np.array([0.0, 0.5, bad]))


def test_grid_refuses_a_midpoint_on_a_grid_point():
    # cells of one ulp after t = 1/2: a midpoint rounds onto an end of its
    # cell, where K(t, m) is infinite below half, so no route gets the grid;
    # cells of 2 or 3 ulps hold their midpoints and are kept
    head, ulp = np.linspace(0.0, 0.5, 1025), np.spacing(0.5)
    message = (r"cell 1024, \[0.5, 0.5000000000000001\], is under two ulps wide: "
               "its midpoint is not inside it")
    with pytest.raises(ValueError, match=message):
        TimeGrid(np.concatenate((head, 0.5 + np.cumsum(np.ones(2048)) * ulp)))
    steps = np.random.default_rng(3).choice([2, 3], size=2048)
    grid = TimeGrid(np.concatenate((head, 0.5 + np.cumsum(steps) * ulp)))
    assert ((grid.points[:-1] < grid.midpoints)
            & (grid.midpoints < grid.points[1:])).all()
    with pytest.raises(ValueError, match=r"cell 0, \[0.0, 5e-324\], is under two"):
        TimeGrid(np.array([0.0, 5e-324]))
    assert TimeGrid(np.array([0.0, 1e-323])).midpoints[0] == 5e-324
    # the first bad cell names the fault: here the one-ulp cell before the
    # decrease, and an equal or decreasing pair otherwise
    with pytest.raises(ValueError, match=r"cell 1, \[0.5, 0.5000000000000001\]"):
        TimeGrid(np.array([0.0, 0.5, 0.5 + ulp, 0.4]))
    for points in ([0.0, 0.5, 0.5], [0.0, 1.0, 0.5], [0.0, 0.5, 0.5, 0.5 + ulp]):
        with pytest.raises(ValueError, match="grid points must be strictly increasing"):
            TimeGrid(np.array(points))


def test_grid_equality_and_hash():
    a = uniform_grid(1.0, 4)
    b = TimeGrid(np.linspace(0.0, 1.0, 5))
    assert a == b and hash(a) == hash(b)
    assert a != uniform_grid(1.0, 5)


def test_grid_hash_is_computed_once_and_equality_stays_exact():
    a = uniform_grid(2.0, 2048)
    b = TimeGrid(np.linspace(0.0, 2.0, 2049))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(a) == a._hash
    pts = b.points.copy()
    pts[1000] = np.nextafter(pts[1000], 2.0)
    c = TimeGrid(pts)
    assert a != c and c != a and not a == c
    assert {a: 1}.get(c) is None
    # -0.0 passes the start check and equals 0.0, so it must hash the same
    z = TimeGrid(np.array([-0.0, 1.0]))
    assert z == uniform_grid(1.0, 1) and hash(z) == hash(uniform_grid(1.0, 1))


def test_path_validation():
    grid = uniform_grid(1.0, 2)
    with pytest.raises(ValueError):
        Path(grid, np.array([0.0, 1.0]))  # wrong length
    with pytest.raises(ValueError):
        Path(grid, np.array([0.0, np.nan, 1.0]))


def test_noise_stream_determinism():
    a = NoiseStream(12345, 7).generator().standard_normal(16)
    b = NoiseStream(12345, 7).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_noise_stream_substreams_differ():
    base = NoiseStream(12345)
    a = base.generator().standard_normal(16)
    b = base.substream(1).generator().standard_normal(16)
    assert not np.array_equal(a, b)
    assert base.substream(1) == NoiseStream(12345, 1)


def test_noise_stream_validation():
    with pytest.raises(ValueError):
        NoiseStream(-1)
    with pytest.raises(ValueError):
        NoiseStream(2**64)
    with pytest.raises(ValueError):
        NoiseStream(0, -1)


@pytest.mark.parametrize("seed,index", [
    (1.5, 0), (0, 2.9), ("1", 0), (np.inf, 0), (np.nan, 0), (None, 0),
    (0, np.float64(0.5))],
    ids=["seed-1.5", "index-2.9", "seed-str", "seed-inf", "seed-nan",
         "seed-none", "index-np-0.5"])
def test_noise_stream_refuses_non_integral_seeds(seed, index):
    # 1.5 drew the variates of seed 1 and 2.9 was stream 2
    with pytest.raises(ValueError, match="whole number"):
        NoiseStream(seed, index)


def test_noise_stream_keeps_whole_numbers_as_ints():
    a = NoiseStream(1.0, np.int64(2))
    assert a == NoiseStream(1, 2) and hash(a) == hash(NoiseStream(1, 2))
    assert type(a.seed) is int and type(a.stream_index) is int
    assert np.array_equal(a.generator().standard_normal(4),
                          NoiseStream(1, 2).generator().standard_normal(4))


def test_grids_and_paths_are_immutable():
    grid = uniform_grid(1.0, 4)
    with pytest.raises(ValueError):
        grid.points[0] = 1.0
    path = Path(grid, np.zeros(5))
    with pytest.raises(ValueError):
        path.values[0] = 1.0
    # every value type holds a read-only copy and leaves its inputs writeable
    small = TimeGrid(np.array([0.0, 0.5, 1.0]))
    cases = [
        (TimeGrid, (np.array([0.0, 0.5, 1.0]),), ("points",)),
        (Path, (small, np.array([0.0, 1.0, 2.0])), ("values",)),
        (StepFunction, (np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0])),
         ("breakpoints", "levels")),
    ]
    for cls, args, names in cases:
        value = cls(*args)
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        for name, given in zip(names, arrays):
            held = getattr(value, name)
            assert given.flags.writeable, (cls.__name__, name)
            assert not held.flags.writeable, (cls.__name__, name)
            assert not np.shares_memory(held, given), (cls.__name__, name)
            before = held.copy()
            given[-1] += 1
            assert np.array_equal(held, before), (cls.__name__, name)


def test_paths_compare_by_identity():
    grid = uniform_grid(1.0, 4)
    a, b = Path(grid, np.arange(5.0)), Path(grid, np.arange(5.0))
    assert a != b and a == a
    assert len({a, b}) == 2


def test_public_api_is_the_module_lists():
    modules = (core, fbm, fractional, hurst, kernels, langevin, noise)
    names = [name for mod in modules for name in mod.__all__]
    assert fraclangevin.__all__ == names
    assert len(set(names)) == len(names) == 42
    assert fraclangevin.make_kernel_spec is fraclangevin.KernelSpec
    for mod in modules:
        for name in mod.__all__:
            assert getattr(fraclangevin, name) is getattr(mod, name)
    for gone in ("kernel_dt", "simulate_ou_conditional", "CovMatrix",
                 "QuadratureRule", "increments", "covariance_matrix",
                 "cholesky_factor", "RSSeries", "Regime", "beta_fn",
                 "loglog_regression", "StepDistribution",
                 "transformed_langevin_residual"):
        assert not any(hasattr(mod, gone) for mod in (fraclangevin, *modules))
    assert not any(hasattr(TimeGrid, gone) for gone in ("index_of", "mesh"))
    assert not hasattr(StepFunction, "integral_to")
    assert "weight_matrix" in fraclangevin.__all__
