"""Seeded noise sources: Gaussian increments, rescaled random walks,
quadratic variation, and the piecewise-constant white-noise smoothing.

Both random walks draw i.i.d. centred steps xi_k of unit variance, of
one ``StepKind``.  The smoothing family puts the level xi_k / eps on
each interval [(k-1) eps^2, k eps^2), so its running integral performs a
rescaled random walk whose variance at t = k eps^2 is exactly t.  Note
the 1/eps amplitude: without it the integral's variance would collapse
like eps^2 and no Brownian limit would exist.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseStream, Path, TimeGrid, _frozen, _positive_real, _whole
from .kernels import KernelSpec, _check_bytes, _kernel_integral

__all__ = [
    "StepKind",
    "StepFunction",
    "gaussian_increments",
    "quadratic_variation",
    "donsker_path",
    "theta_epsilon_path",
    "smoothed_fbm",
]


class StepKind(enum.Enum):
    """Law of the i.i.d. centred steps of the random walks, variance 1.

    Gaussian steps are standard normal.  Rademacher steps are +1 or -1
    with probability 1/2 each, so E xi^k is 1 for even k and 0 for odd k:
    bounded steps have every moment, which satisfies the moment
    requirement m > 1/H of the smoothing construction for any Hurst index
    without case analysis.
    """

    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self is StepKind.GAUSSIAN:
            return rng.standard_normal(size)
        return 2.0 * rng.integers(0, 2, size) - 1.0


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Right-open piecewise-constant function on the breakpoints' span."""

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp, lv = _frozen(self.breakpoints), _frozen(self.levels)
        if bp.size != lv.size + 1:
            raise ValueError("need one level per interval between breakpoints")
        if not (np.diff(bp) > 0).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(lv).all():
            raise ValueError("levels must be finite")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def value_at(self, s) -> np.ndarray:
        """Level on the interval containing s (right-open intervals)."""
        idx = np.searchsorted(self.breakpoints, s, side="right") - 1
        return self.levels[np.clip(idx, 0, self.levels.size - 1)]


def gaussian_increments(grid: TimeGrid, stream: NoiseStream) -> np.ndarray:
    """Independent N(0, t_i - t_{i-1}) variates, one per grid cell."""
    rng = stream.generator()
    return rng.standard_normal(grid.n_cells) * np.sqrt(grid.widths)


def quadratic_variation(path: Path) -> float:
    """Sum of squared increments; tends to the horizon T for Bm paths."""
    d = np.diff(path.values)
    return float(d @ d)


def donsker_path(n: int, horizon: float, kind: StepKind | str,
                 stream: NoiseStream) -> Path:
    """Rescaled random-walk polygonal line sampled at its kinks.

    Kinks sit at multiples of 1/n, where the line equals the partial
    sums of the steps divided by sqrt(n); sampling exactly there
    loses nothing because the line is linear in between.  ``n * horizon``
    is rounded to the nearest integer cell count, refused past the draw
    budget (DenseSizeError, before anything is drawn).
    """
    kind = StepKind(kind)
    n = _whole(n, "n")
    if n < 1:
        raise ValueError("need n >= 1 steps per unit time")
    _positive_real(horizon, "horizon")
    count = n * horizon
    _check_bytes(8 * count, f"n * horizon = {count:.6g} steps")
    cells = max(1, round(count))
    steps = kind.sample(stream.generator(), cells)
    values = np.concatenate(([0.0], np.cumsum(steps))) / math.sqrt(n)
    return Path(TimeGrid(np.arange(cells + 1) / n), values)


def theta_epsilon_path(epsilon: float, horizon: float, kind: StepKind | str,
                       stream: NoiseStream) -> StepFunction:
    """White-noise smoothing: level xi_k / eps on [(k-1) eps^2, k eps^2).

    Refused when eps^2 underflows to 0, or with DenseSizeError when
    horizon / eps^2 steps are past the draw budget."""
    kind = StepKind(kind)
    _positive_real(epsilon, "epsilon")
    _positive_real(horizon, "horizon")
    cell = epsilon * epsilon
    if cell == 0.0:
        raise ValueError(f"epsilon**2 underflows to 0 for epsilon = {epsilon!r}")
    count = horizon / cell
    _check_bytes(8 * count, f"horizon / epsilon**2 = {count:.6g} steps")
    count = max(1, math.ceil(count - 1e-12))
    steps = kind.sample(stream.generator(), count)
    return StepFunction(np.arange(count + 1) * cell, steps / epsilon)


def smoothed_fbm(spec: KernelSpec, epsilon: float, grid: TimeGrid,
                 stream: NoiseStream,
                 kind: StepKind | str = StepKind.GAUSSIAN) -> Path:
    """Kernel-smoothed noise int_0^t K(t,s) theta_eps(s) ds on the grid.

    As eps shrinks this converges in law to fractional Brownian motion;
    the integral is evaluated with the midpoint kernel weights, so grids
    aligned with the eps^2 cells sample the step function exactly.
    """
    theta = theta_epsilon_path(epsilon, grid.horizon, kind, stream)
    levels_at_mids = theta.value_at(grid.midpoints)
    return Path(grid, np.concatenate(
        ([0.0], _kernel_integral(spec, grid, levels_at_mids))))
