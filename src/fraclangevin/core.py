"""Time grids, sample paths and the deterministic seeding contract.

Everything downstream (noise synthesis, kernel quadrature, samplers)
works on a :class:`TimeGrid` of strictly increasing times starting at 0
and on :class:`Path` values aligned to it.  Randomness always flows
through a :class:`NoiseStream`, which pins the generator algorithm so
that (seed, stream_index) fully determines every variate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "Path", "NoiseStream", "uniform_grid", "increments"]


def _midpoints(values: np.ndarray) -> np.ndarray:
    """Means of consecutive rows, halved first so that no sum overflows."""
    return 0.5 * values[:-1] + 0.5 * values[1:]


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly increasing mesh 0 = t_0 < t_1 < ... < t_n = T."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a time grid needs at least two points")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        if pts[0] != 0.0:
            raise ValueError("a time grid must start at t=0")
        if not (np.diff(pts) > 0.0).all():
            raise ValueError("grid points must be strictly increasing")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_cells(self) -> int:
        return self.points.size - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def mesh(self) -> float:
        """Largest cell width (the usual refinement parameter)."""
        return float(self.widths.max())

    @property
    def midpoints(self) -> np.ndarray:
        return _midpoints(self.points)

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to ``t`` (tiny fp slack allowed)."""
        i = int(np.searchsorted(self.points, t))
        tol = 1e-12 * max(1.0, self.horizon)
        for j in (i - 1, i):
            if 0 <= j < self.points.size and abs(self.points[j] - t) <= tol:
                return j
        raise ValueError(f"t={t!r} is not a grid point")

    def __eq__(self, other):
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash((self.points.size, self.points.tobytes()))


@dataclass(frozen=True, eq=False)
class Path:
    """Real-valued sample path: one value per grid point, all finite."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.points.shape:
            raise ValueError("path values must align with the grid points")
        if not np.isfinite(vals).all():
            raise ValueError("path values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.grid, self.values.tobytes()))


@dataclass(frozen=True)
class NoiseStream:
    """Seeded, indexed source of reproducible random variates.

    The generator is Philox (4x64, 10 rounds), a counter-based algorithm
    whose output is platform independent; independent substreams are
    derived by hashing ``stream_index`` into the seed through numpy's
    ``SeedSequence``.  Identical (seed, stream_index) therefore emit
    identical variates regardless of scheduling or how many other
    streams were consumed.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream_index) < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator state for this (seed, stream_index)."""
        seq = np.random.SeedSequence(entropy=int(self.seed),
                                     spawn_key=(int(self.stream_index),))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> "NoiseStream":
        """Same seed, different independent stream."""
        return NoiseStream(self.seed, index)


def uniform_grid(horizon: float, n: int) -> TimeGrid:
    """Equispaced grid of ``n`` cells on [0, horizon].

    Returns the n+1 points 0, T/n, ..., T.
    """
    if not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be a positive real")
    n = int(n)
    if n < 1:
        raise ValueError("need at least one cell")
    return TimeGrid(np.linspace(0.0, float(horizon), n + 1))


def increments(path: Path) -> np.ndarray:
    """Per-cell differences values[i] - values[i-1] (length = cell count)."""
    return np.diff(path.values)
