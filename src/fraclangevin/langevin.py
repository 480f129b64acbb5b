"""The standard Langevin velocity equation m dV = -b V dt + sigma dB.

Its solution is the Ornstein-Uhlenbeck process with decay rate b/m.
The primary solver uses the exact Gaussian transition density, so the
law at the grid points carries no time-discretization error; explicit
Euler-Maruyama is kept as a cross-check and as the path generator whose
driving increments can be shared with the fractional-transform residual
test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseStream, Path, TimeGrid

__all__ = [
    "LangevinParams",
    "ou_mean",
    "ou_variance",
    "simulate_ou_exact",
    "simulate_ou_em",
]


@dataclass(frozen=True)
class LangevinParams:
    """Physical parameters: mass, friction, noise intensity, start.

    ``v0`` is the initial velocity, a fixed number: every solver starts
    there, so V_0 has variance zero.
    """

    mass: float
    friction: float
    sigma: float
    v0: float

    def __post_init__(self):
        for name in ("mass", "friction", "sigma", "v0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite; got {value!r}")
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.friction > 0:
            raise ValueError("friction must be positive")
        if self.sigma < 0:
            raise ValueError("noise intensity must be nonnegative")

    @property
    def rate(self) -> float:
        """Velocity decay rate b/m."""
        return self.friction / self.mass


def ou_mean(params: LangevinParams, t: float) -> float:
    """E V_t = exp(-(b/m) t) E V_0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return math.exp(-params.rate * t) * params.v0


def ou_variance(params: LangevinParams, t: float) -> float:
    """Var V_t = sigma^2 (1 - e^(-2bt/m)) / (2bm) from the fixed start v0."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    stationary = params.sigma**2 / (2.0 * params.friction * params.mass)
    return stationary * -math.expm1(-2.0 * params.rate * t)


def simulate_ou_exact(params: LangevinParams, grid: TimeGrid,
                      stream: NoiseStream) -> Path:
    """Sample the OU law exactly at the grid points.

    Per cell, V_i = e^(-b dt/m) V_{i-1} + eta_i with eta_i centered
    Gaussian of variance sigma^2 (1 - e^(-2b dt/m)) / (2bm); the
    deterministic part is carried in closed form so a sigma = 0 run
    reproduces ou_mean at every grid point.
    """
    rate = params.rate
    alpha = np.exp(-rate * grid.widths)
    values = params.v0 * np.exp(-rate * grid.points)
    std = params.sigma * np.sqrt(-np.expm1(-2.0 * rate * grid.widths) /
                                 (2.0 * params.friction * params.mass))
    eta = std * stream.generator().standard_normal(grid.n_cells)
    values[1:] += _ar1(alpha, eta, 0.0)[1:]
    return Path(grid, values)


def simulate_ou_em(params: LangevinParams, grid: TimeGrid,
                   increments: np.ndarray) -> Path:
    """Explicit Euler-Maruyama step V_i = V_{i-1} (1 - b dt/m) + (sigma/m) dB_i.

    Consumes caller-supplied Brownian increments so the same noise can
    drive other operations.
    """
    return Path(grid, _em_values(params, grid,
                                 _checked_increments(grid, increments)))


def _em_values(params: LangevinParams, grid: TimeGrid, db: np.ndarray) -> np.ndarray:
    """Euler-Maruyama values at the grid points, one column per path of db."""
    return _ar1(1.0 - params.rate * grid.widths, (params.sigma / params.mass) * db,
                params.v0)


def _checked_increments(grid: TimeGrid, increments) -> np.ndarray:
    db = np.asarray(increments, dtype=float)
    if db.shape != (grid.n_cells,):
        raise ValueError("need exactly one Brownian increment per grid cell")
    if not np.isfinite(db).all():
        raise ValueError(f"Brownian increment {np.isfinite(db).argmin()} is not finite")
    return db


def _ar1(alpha: np.ndarray, shocks: np.ndarray, x0) -> np.ndarray:
    """out[0] = x0, out[i+1] = alpha[i] out[i] + shocks[i]; shocks (n,) or (n, S).

    An inclusive log-depth scan of the affine maps x -> alpha[i] x + shocks[i]
    (Hillis & Steele 1986): round k composes each map with the one k cells
    back, so after ceil(log2 n) rounds a[i] = alpha[0] ... alpha[i] and e[i]
    is the output at x0 = 0.  Only products and sums, so alpha = 0, sign
    changes and |alpha| > 1 need no special case.  Against the sequential
    loop, |out[i] - loop[i]| <= (2n + 2 ceil(log2 n) + 2) eps M_i, with M_i
    the same recurrence on |alpha|, |shocks| and |x0|.  Each column of an
    (n, S) run equals its own 1-D run bit for bit.  An unstable recurrence
    overflows quietly to non-finite values.
    """
    a = np.array(alpha, dtype=float).reshape((-1,) + (1,) * (shocks.ndim - 1))
    e = np.array(shocks, dtype=float)
    out = np.empty((len(e) + 1,) + e.shape[1:])
    out[0] = x0
    k = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while k < len(e):
            e[k:] += a[k:] * e[:-k]
            a[k:] *= a[:-k]
            k *= 2
        out[1:] = a * x0 + e
    return out
