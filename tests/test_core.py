import numpy as np
import pytest
from hypothesis import given, strategies as st

import fraclangevin
from fraclangevin import (CovMatrix, NoiseStream, Path, QuadratureRule,
                          RSSeries, StepFunction, TimeGrid, core, fbm,
                          fractional, hurst, increments, kernels, langevin,
                          noise, uniform_grid)


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


def test_uniform_grid_mesh_is_step():
    grid = uniform_grid(3.0, 7)
    assert grid.mesh == pytest.approx(3.0 / 7, rel=1e-15)


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


def test_grid_index_of():
    grid = uniform_grid(1.0, 4)
    assert grid.index_of(0.5) == 2
    assert grid.index_of(0.0) == 0
    with pytest.raises(ValueError):
        grid.index_of(0.3)
    # the nearest point wins, with slack relative to the horizon
    assert uniform_grid(1e-9, 4096).index_of(1e-9) == 4096
    assert uniform_grid(1e-9, 4096).index_of(0.5e-9) == 2048
    assert TimeGrid(np.array([0.0, 1e-15, 1.0])).index_of(1e-15) == 1
    with pytest.raises(ValueError):
        uniform_grid(1e-9, 4).index_of(0.3e-9)


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


def test_increments_examples():
    grid = uniform_grid(1.0, 2)
    assert np.array_equal(increments(Path(grid, [0.0, 1.0, 3.0])), [1.0, 2.0])
    assert np.array_equal(increments(Path(grid, [5.0, 5.0, 5.0])), [0.0, 0.0])
    assert np.array_equal(increments(Path(grid, [0.0, -1.0, -1.0])), [-1.0, 0.0])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=40))
def test_increments_reconstruct_path(values):
    grid = uniform_grid(1.0, len(values) - 1)
    path = Path(grid, np.array(values))
    rebuilt = values[0] + np.concatenate(([0.0], np.cumsum(increments(path))))
    assert np.allclose(rebuilt, path.values, rtol=1e-12, atol=1e-9)


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
        (CovMatrix, (small, np.eye(2)), ("entries",)),
        (StepFunction, (np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0])),
         ("breakpoints", "levels")),
        (QuadratureRule, (np.array([0.25, 0.75]), np.array([0.5, 0.5]), 1.0),
         ("nodes", "weights")),
        (RSSeries, (np.array([2, 3]), np.array([1.0, 2.0])),
         ("lengths", "ratios")),
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
    assert len(set(names)) == len(names) == 53
    for mod in modules:
        for name in mod.__all__:
            assert getattr(fraclangevin, name) is getattr(mod, name)
    for gone in ("kernel_dt", "simulate_ou_conditional"):
        assert not any(hasattr(mod, gone) for mod in (fraclangevin, *modules))
    assert "weight_matrix" in fraclangevin.__all__
