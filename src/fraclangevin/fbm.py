"""Fractional Brownian motion synthesis, two independent ways.

The exact route factorizes the covariance matrix R(t_i, t_j) and maps
i.i.d. normals through the Cholesky factor: the finite-dimensional law
is exact, which makes it the reference oracle (at O(n^3) desk scale).
The kernel route discretizes B^H_t = int_0^t K(t,s) dB_s with midpoint
kernel values against raw Brownian increments; it is consistent as the
mesh shrinks and reduces to plain Bm partial sums at H = 1/2.

Both routes map normals through a lower-triangular operator kept in the
dense store of ``kernels`` as row panels: the Cholesky factor is cut into
panels after its dense factorization, the kernel operator is built as
panels, and ``kernels._apply`` forms every product with them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NoiseStream, Path, TimeGrid, _frozen
from .kernels import (KernelSpec, Regime, _apply, _check_dense, _dense_cached,
                      _kernel_operator, _panels, fbm_covariance)
from .noise import gaussian_increments

__all__ = [
    "CovMatrix",
    "DecompositionError",
    "covariance_matrix",
    "cholesky_factor",
    "sample_fbm_exact",
    "sample_fbm_kernel",
]


class DecompositionError(RuntimeError):
    """Covariance matrix was not numerically positive definite."""


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """fBm covariance on the positive grid points (t = 0 is excluded:
    B^H_0 is pinned to zero and would make the matrix singular)."""

    grid: TimeGrid
    entries: np.ndarray

    def __post_init__(self):
        m = _frozen(self.entries)
        k = self.grid.points.size - 1
        if m.shape != (k, k):
            raise ValueError("entries must be square over the positive grid points")
        object.__setattr__(self, "entries", m)


def covariance_matrix(hurst: float, grid: TimeGrid) -> CovMatrix:
    """Matrix M[i][j] = R(t_i, t_j) over the positive grid points."""
    pts = grid.points[1:]
    return CovMatrix(grid, fbm_covariance(hurst, pts[None, :], pts[:, None]))


def cholesky_factor(cov: CovMatrix) -> np.ndarray:
    """Lower-triangular L with L L^T = entries.

    Raises :class:`DecompositionError` when a pivot fails, i.e. the
    matrix is not numerically positive definite.
    """
    try:
        return np.linalg.cholesky(cov.entries)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance is not positive definite: {exc}") from exc


def sample_fbm_exact(hurst: float, grid: TimeGrid, stream: NoiseStream) -> Path:
    """Draw one fBm path with the exact finite-dimensional law N(0, R)."""
    hurst = float(hurst)
    n = grid.n_cells
    # three matrices at once: cholesky's input, its LAPACK copy and its output
    panels = _dense_cached(
        ("cholesky", hurst, grid), _check_dense(n, 3),
        lambda: _panels(n, [(0, n, cholesky_factor(covariance_matrix(hurst, grid)))]))
    z = stream.generator().standard_normal(n)
    return Path(grid, np.concatenate(([0.0], _apply(panels, z))))


def sample_fbm_kernel(spec: KernelSpec, grid: TimeGrid, stream: NoiseStream) -> Path:
    """Volterra-kernel synthesis from Brownian increments.

    B^H(t_i) ~= sum_{j < i} K(t_i, m_j) dB_j with the increments drawn
    from the stream; the standard regime returns the plain partial sums
    of the same increments (K == 1).
    """
    db = gaussian_increments(grid, stream)
    if spec.regime is Regime.STANDARD:
        return Path(grid, np.concatenate(([0.0], np.cumsum(db))))
    panels = _kernel_operator(spec, grid)[:-1]
    return Path(grid, np.concatenate(([0.0], _apply(panels, db))))
