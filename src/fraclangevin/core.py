"""Time grids, sample paths and the deterministic seeding contract.

Everything downstream (noise synthesis, kernel quadrature, samplers)
works on a :class:`TimeGrid` of times starting at 0 whose every cell
holds its midpoint strictly inside it, and on :class:`Path` values
aligned to it.  Randomness always flows through a :class:`NoiseStream`,
which pins the generator algorithm so that (seed, stream_index) fully
determines every variate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DenseSizeError", "TimeGrid", "Path", "NoiseStream", "uniform_grid"]

# Bytes one allocation may take, read at each call, so patching it governs
# every check: a uniform grid's points, the kernel store's operators (one
# alone fits up to n = 211840 on a uniform grid), each dense n x n build
# (kernel_matrix and weight_matrix, n <= 11585; the exact sampler's Cholesky
# factor of a non-uniform grid, three at LAPACK's peak, n <= 6688) and the
# 8-byte step draws of noise.donsker_path and noise.theta_epsilon_path.
DENSE_BYTES_MAX = 1 << 30


class DenseSizeError(ValueError):
    """Grid points, kernel factors, dense n x n operators or the step draws
    of ``donsker_path`` and ``theta_epsilon_path`` would exceed
    DENSE_BYTES_MAX.  Kernel factors never reach callers: the product streams
    them."""


def _check_bytes(need: int, what: str) -> int:
    """Raise DenseSizeError before ``what``, ``need`` bytes, is held."""
    if need > DENSE_BYTES_MAX:
        raise DenseSizeError(
            f"{what} need {need / 2**30:.1f} GiB, "
            f"over the {DENSE_BYTES_MAX / 2**30:g} GiB budget")
    return need


def _midpoints(values: np.ndarray) -> np.ndarray:
    """Means of consecutive rows, halved first so that no sum overflows."""
    return 0.5 * values[:-1] + 0.5 * values[1:]


def _whole(value, name: str) -> int:
    """``value`` as an int if it is a whole number (4, 4.0 and np.int64(4)
    alike), else ValueError: 2.9 is not cut to 2, nor "4" parsed to 4."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number; got {value!r}")
    return whole


def _positive_real(value, name: str) -> None:
    """ValueError naming ``name`` unless 0 < value < inf (nan included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive real; got {value!r}")


def _frozen(values) -> np.ndarray:
    """A read-only float copy of ``values``."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Mesh 0 = t_0 < t_1 < ... < t_n = T whose cell midpoints m_j satisfy
    t_j < m_j < t_(j+1): the kernel quadrature evaluates K(t, m_j), which
    is infinite below H = 1/2 once m_j rounds onto t.  A cell under two
    ulps wide fails this, and ValueError names the first such cell."""

    points: np.ndarray
    # computed once, as the dense store hashes its keys on every lookup
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        pts = _frozen(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a time grid needs at least two points")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        if pts[0] != 0.0:
            raise ValueError("a time grid must start at t=0")
        mids = _midpoints(pts)
        bad = (mids <= pts[:-1]) | (mids >= pts[1:])
        if bad.any():
            j = int(bad.argmax())
            a, b = float(pts[j]), float(pts[j + 1])
            if not a < b:
                raise ValueError("grid points must be strictly increasing")
            raise ValueError(f"cell {j}, [{a!r}, {b!r}], is under two ulps "
                             "wide: its midpoint is not inside it")
        object.__setattr__(self, "points", pts)
        # t_0 is 0.0 or -0.0, which compare equal, so it is left out
        object.__setattr__(self, "_hash", hash(pts[1:].tobytes()))

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
    def midpoints(self) -> np.ndarray:
        return _midpoints(self.points)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return (self._hash == other._hash
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, eq=False)
class Path:
    """Real-valued sample path: one value per grid point, all finite.

    Compared by identity: each path carries its own kernel-integral memo."""

    grid: TimeGrid
    values: np.ndarray
    # per-KernelSpec kernel integrals of these values (see fractional._history)
    _histories: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        vals = _frozen(self.values)
        if vals.shape != self.grid.points.shape:
            raise ValueError("path values must align with the grid points")
        if not np.isfinite(vals).all():
            raise ValueError("path values must be finite")
        object.__setattr__(self, "values", vals)


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
        # kept as ints: 1.0 is stream 1, while 1.5 or "1" is refused
        for name in ("seed", "stream_index"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator state for this (seed, stream_index)."""
        seq = np.random.SeedSequence(entropy=self.seed,
                                     spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> "NoiseStream":
        """Same seed, different independent stream."""
        return NoiseStream(self.seed, index)


def uniform_grid(horizon: float, n: int) -> TimeGrid:
    """Equispaced grid of ``n`` cells on [0, horizon].

    Returns the n+1 points 0, T/n, ..., T; DenseSizeError before any is
    made if they exceed DENSE_BYTES_MAX.
    """
    _positive_real(horizon, "horizon")
    n = _whole(n, "n")
    if n < 1:
        raise ValueError("need at least one cell")
    _check_bytes(8 * (n + 1), f"{n + 1} grid points")
    return TimeGrid(np.linspace(0.0, float(horizon), n + 1))
