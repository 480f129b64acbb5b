"""Fractional velocity transform, its expectation, and the amplitude fit.

An ordinary velocity path V is mapped to

    V^H_t = V_0 + phi(t) * int_0^t K(t,s) V_s ds,    phi(t) = A t^(1/2-H),

which rescales the kernel-weighted history of the velocity into a
long-memory observable.  The same kernel applied to the Langevin
equation itself yields the pathwise identity

    m int_0^t K(t,s) dV_s = -b int_0^t K(t,s) V_s ds + sigma B^H_t

when V and B^H are driven by one Brownian path; its discretized
residual is the falsifiable certificate that the transform, the kernel
quadrature and the samplers all fit together.  Finally the amplitude A
is recovered from measured transform values by averaging the per-time
ratios t^(H-1/2) (V^H_t - V_0) / int_0^t K(t,s) V_s ds.  The transform
and the fit share that kernel integral: it is computed once per
(kernel spec, velocity path) and lives as long as the path does.

Under OU dynamics E V_s = V_0 e^(-(b/m)s), so the transform's
expectation is E V^H_t = V_0 (1 + phi(t) int_0^t K(t,s) e^(-(b/m)s) ds),
with the integral in closed form (Decreusefond & Ustunel's kernel):

    C_H Gamma(H+1/2) Gamma(3/2-H) / (H+1/2) t^(H+1/2)
        2F2(H+1/2, 3/2-H; H+3/2, 1; -(b/m)t),

C_H = c_H below half and c_H / (H-1/2) above.  It is evaluated for
(b/m) t in [0, 1000], where the tests hold it within 1e-12 relative of
30-digit mpmath, and refused past that; at (b/m) t = 1000 one value
costs 26 ms (2-core x86-64 host, Python 3.11).

The t -> 0 boundary of the transform is defined by continuity: below
half both factors vanish, above half the integral vanishes faster than
phi diverges, so V^H(0) = V_0 and phi is never evaluated at 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseStream, Path, TimeGrid, _midpoints, _whole, uniform_grid
from .kernels import (KernelSpec, _cell_correction, _exponential_integral,
                      _kernel_integral, _kernel_product)
from .langevin import LangevinParams, _checked_increments, _em_values
from .noise import gaussian_increments

__all__ = [
    "FractionalConfig",
    "FractionalPath",
    "DegenerateDenominatorError",
    "phi",
    "fractional_velocity",
    "expected_fractional_velocity",
    "normalized_residual_max",
    "residual_refinement_study",
    "ah_ratios",
    "estimate_ah",
]


class DegenerateDenominatorError(ValueError):
    """A kernel integral in the amplitude estimator vanished."""


@dataclass(frozen=True)
class FractionalConfig:
    """Kernel spec plus the normalization amplitude of phi."""

    spec: KernelSpec
    amplitude: float

    def __post_init__(self):
        if self.spec.hurst == 0.5:
            raise ValueError("the fractional transform needs H != 1/2")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite; got {self.amplitude!r}")


@dataclass(frozen=True, eq=False)
class FractionalPath:
    """A velocity path together with its transform on the same grid."""

    base: Path
    transformed: Path

    def __post_init__(self):
        if self.base.grid != self.transformed.grid:
            raise ValueError("base and transformed paths must share a grid")


def phi(config: FractionalConfig, t):
    """Power-law normalization A * t^(1/2 - H) at scalar or array t > 0."""
    if not np.all(np.greater(t, 0)):
        raise ValueError("phi is defined for positive times only")
    return config.amplitude * t ** (0.5 - config.spec.hurst)


def _history(spec: KernelSpec, v: Path) -> np.ndarray:
    """Read-only int_0^(t_i) K(t_i,s) V_s ds at t_1..t_n, once per (spec, path).

    The entry is kept on the path object itself (not keyed by value), so
    a lookup costs no hash and the entry dies with its path.
    """
    if spec not in v._histories:
        out = _kernel_integral(spec, v.grid, _midpoints(v.values))
        out.flags.writeable = False
        v._histories[spec] = out
    return v._histories[spec]


def fractional_velocity(config: FractionalConfig, v: Path) -> FractionalPath:
    """Transform a velocity path: V_0 + phi(t_i) * <weights(t_i), V at nodes>."""
    history = _history(config.spec, v)
    values = np.empty_like(v.values)
    values[0] = v.values[0]
    values[1:] = v.values[0] + phi(config, v.grid.points[1:]) * history
    if not np.isfinite(values).all():
        raise OverflowError("the transform V^H overflows (it grows like t |V|)")
    return FractionalPath(v, Path(v.grid, values))


def expected_fractional_velocity(config: FractionalConfig, params: LangevinParams,
                                 t: float) -> float:
    """E V^H_t = V_0 (1 + phi(t) int_0^t K(t,s) e^(-(b/m)s) ds) in closed
    form (see the module docstring); ValueError unless 0 < t < inf and
    (b/m) t <= 1000."""
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite; got {t!r}")
    integral = _exponential_integral(config.spec, params.rate, t)
    out = params.v0 * (1.0 + phi(config, t) * integral)
    if not math.isfinite(out):
        raise OverflowError(f"E V^H at t={t!r} overflows: t^(H+1/2) or the "
                            "value itself is past the float range")
    return out


def _residual_pass(spec: KernelSpec, params: LangevinParams, grid: TimeGrid,
                   values: np.ndarray, db: np.ndarray):
    """Residuals r(t_i) and kernel-sampled B^H(t_i) of the paths ``values``
    (grid points by rows, one path per column of ``db``), shaped like ``db``.

    r(t_i) = sum_j K(t_i, m_j) (m dV_j + b w_j V_j - sigma dB_j), V_j at the
    midpoints, plus the kernel's last-cell correction.  The kernel sums are
    one :func:`_kernel_product`: a grid's first pass streams them, later
    passes apply the operator the store then keeps.
    """
    n = grid.n_cells
    m, b, sig = params.mass, params.friction, params.sigma
    values = values.reshape(n + 1, -1)
    vmid = _midpoints(values)
    db2 = db.reshape(n, -1)
    cells = m * np.diff(values, axis=0) + b * grid.widths[:, None] * vmid - sig * db2
    out = _kernel_product(spec, grid, np.hstack((cells, db2)))
    res, bh = np.hsplit(out, 2)
    corr = _cell_correction(spec, grid.points[1:], grid.midpoints, grid.widths)
    res += b * corr[:, None] * vmid
    return res.reshape(db.shape), bh.reshape(db.shape)


def normalized_residual_max(spec: KernelSpec, params: LangevinParams,
                            v: Path, brownian_increments) -> float:
    """max_t |r(t)| / (sigma * max_t |B^H_t|) for one driven path."""
    if not params.sigma > 0:
        raise ValueError("sigma must be positive: the residual is normalized by it")
    db = _checked_increments(v.grid, brownian_increments)
    res, bh = _residual_pass(spec, params, v.grid, v.values, db)
    return float(np.max(np.abs(res)) / (params.sigma * np.max(np.abs(bh))))


def residual_refinement_study(spec: KernelSpec, params: LangevinParams,
                              horizon: float, cell_counts, n_seeds: int,
                              stream: NoiseStream) -> dict[int, np.ndarray]:
    """Normalized residual maxima per seed at several grid resolutions.

    One Brownian path per seed is generated at the finest resolution and
    block-summed onto the coarser grids, so each seed's residuals are
    compared on the same underlying noise.  Every cell count must divide
    the largest one.
    """
    counts = sorted(_whole(c, "each cell count") for c in cell_counts)
    if not (counts and counts[0] >= 1):
        raise ValueError("cell_counts must be one or more positive counts")
    n_seeds = _whole(n_seeds, "n_seeds")
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    if not params.sigma > 0:
        raise ValueError("sigma must be positive: the residual is normalized by it")
    n_max = counts[-1]
    if any(n_max % c for c in counts):
        raise ValueError("cell counts must divide the largest count")
    fine = uniform_grid(horizon, n_max)
    db_fine = np.column_stack([
        gaussian_increments(fine, stream.substream(k)) for k in range(n_seeds)
    ])
    out = {}
    for count in counts:
        grid = uniform_grid(horizon, count)
        db = db_fine.reshape(count, n_max // count, -1).sum(axis=1)
        res, bh = _residual_pass(spec, params, grid,
                                 _em_values(params, grid, db), db)
        out[count] = (np.abs(res).max(axis=0)
                      / (params.sigma * np.abs(bh).max(axis=0)))
    return out


def ah_ratios(spec: KernelSpec, observed: Path, v: Path) -> np.ndarray:
    """Per-time amplitude ratios t_i^(H-1/2) (V^H_i - V_0) / int_0^(t_i) K V.

    One ratio per positive grid time.  The denominators are the path's
    kernel integral that the forward transform shares (computed once per
    (spec, path)), so each ratio of a noiseless transform is the
    amplitude to floating-point accuracy.
    Raises :class:`DegenerateDenominatorError` where a denominator is at
    most 1e-12 max|V|, so rescaling V and V^H together leaves the ratios
    unchanged and V == 0 always raises.
    """
    if observed.grid != v.grid:
        raise ValueError("observed and velocity paths must share a grid")
    denominators = _history(spec, v)
    times = v.grid.points[1:]
    bad = np.abs(denominators) <= 1e-12 * float(np.max(np.abs(v.values)))
    if bad.any():
        t_bad = float(times[int(np.argmax(bad))])
        raise DegenerateDenominatorError(
            f"kernel integral of the velocity vanishes at t={t_bad!r}")
    ratios = times ** (spec.hurst - 0.5) * (observed.values[1:] - v.values[0])
    ratios /= denominators
    return ratios


def estimate_ah(spec: KernelSpec, observed: Path, v: Path) -> float:
    """Recover the amplitude: the mean of :func:`ah_ratios` over the grid."""
    return float(ah_ratios(spec, observed, v).mean())
