"""Fractional Brownian motion synthesis, two independent ways.

The exact route maps i.i.d. normals through the Cholesky factor of the
covariance matrix R(t_i, t_j) of the positive grid points, which only
the sampler's cache holds: the finite-dimensional law is exact, which
makes it the reference oracle.  On a uniform grid the increments are
stationary fractional Gaussian noise, so their covariance T is Toeplitz
and R = S T S^T with S the lower-triangular partial-sum matrix: the
Schur algorithm factors T = L_T L_T^T in O(n^2) from its first column,
and the prefix sums of L_T's columns are R's factor (lower triangular
with a positive diagonal, so the unique one).  Any other grid has no such
structure; there R is formed and factored densely by LAPACK in O(n^3).
The kernel route discretizes B^H_t = int_0^t K(t,s) dB_s with midpoint
kernel values against raw Brownian increments; it is consistent as the
mesh shrinks and reduces to plain Bm partial sums at H = 1/2.

Both routes map normals through a lower-triangular operator kept in the
dense store of ``kernels`` as row panels: the Cholesky factor is cut into
panels once built, the kernel operator is built as panels, and
``kernels._apply`` forms every product with them.
"""
from __future__ import annotations

import math

import numpy as np

from .core import NoiseStream, Path, TimeGrid
from .kernels import (KernelSpec, Regime, _apply, _check_dense, _dense_cached,
                      _kernel_operator, _panels, fbm_covariance)
from .noise import gaussian_increments

__all__ = [
    "DecompositionError",
    "sample_fbm_exact",
    "sample_fbm_kernel",
]


class DecompositionError(RuntimeError):
    """Covariance matrix was not numerically positive definite."""


def _fgn_autocovariance(hurst: float, n: int) -> np.ndarray:
    """gamma(k) = ((k+1)^2H + (k-1)^2H - 2 k^2H) / 2, k < n: the covariance
    of unit-step fBm increments k steps apart, gamma(0) = 1.

    Written as k^2H [expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))] / 2, so
    that the three powers of about k^2H do not cancel at large lags; lag 1,
    where log1p(-1) is -inf, is 2^(2H-1) - 1.
    """
    two_h = 2.0 * hurst
    gamma = np.ones(n)
    gamma[1:2] = math.expm1((two_h - 1.0) * math.log(2.0))
    k = np.arange(2.0, n)
    gamma[2:] = 0.5 * k**two_h * (np.expm1(two_h * np.log1p(1.0 / k))
                                  + np.expm1(two_h * np.log1p(-1.0 / k)))
    return gamma


def _schur_rows(gamma: np.ndarray, scale: float) -> np.ndarray:
    """scale * U, U upper triangular with U^T U the symmetric Toeplitz matrix
    of first column ``gamma`` (gamma[0] = 1), by the Schur algorithm.

    Row k of U is the generator u after k steps; each step shifts u one
    place and turns the pair (u, v) by the hyperbolic rotation that zeroes
    v's leading entry, in the mixed form whose stability for positive
    definite Toeplitz matrices Bojanczyk, Brent, de Hoog and Sweet proved
    (SIAM J. Matrix Anal. Appl. 16, 1995).  A rotation needs |rho| < 1;
    else the matrix is not positive definite and DecompositionError names
    the step.
    """
    n = gamma.size
    u = np.zeros((n, n))
    u[0] = gamma
    u[0] *= scale
    v = u[0].copy()  # v[k + 1:] is the live part of the second generator
    for k in range(n - 1):
        prev, row, rest = u[k, k:-1], u[k + 1, k + 1:], v[k + 1:]
        rho = rest[0] / prev[0]
        if not abs(rho) < 1.0:
            raise DecompositionError(
                f"covariance is not positive definite: Schur step {k + 1} "
                f"of {n - 1} has |rho| = {abs(rho):.6g}")
        c = math.sqrt((1.0 - rho) * (1.0 + rho))
        np.multiply(rest, -rho, out=row)
        row += prev
        row /= c
        rest *= c
        rest -= rho * row
    return u


def _is_uniform(grid: TimeGrid) -> bool:
    """Every t_i within 1e-12 T of i T / n: the stationary increments apply."""
    n, horizon = grid.n_cells, grid.horizon
    gap = np.abs(grid.points - np.arange(n + 1) * (horizon / n))
    return bool(gap.max() <= 1e-12 * horizon)


def _cholesky_panels(hurst: float, grid: TimeGrid) -> tuple:
    """Row panels of the Cholesky factor of R(t_i, t_j) over the positive
    grid points (t = 0 is left out: B^H_0 = 0 would make R singular).

    Uniform grids take the O(n^2) Schur route on the increments' Toeplitz
    covariance, every other grid LAPACK on R itself.
    """
    n, pts = grid.n_cells, grid.points[1:]
    if _is_uniform(grid):
        # (T/n)^H U = L_T^T; prefix sums along its rows give R's factor L^T
        upper = _schur_rows(_fgn_autocovariance(hurst, n),
                            (grid.horizon / n) ** hurst)
        np.cumsum(upper, axis=1, out=upper)
        return _panels(n, [(0, n, upper.T)])
    try:
        ell = np.linalg.cholesky(fbm_covariance(hurst, pts[None, :], pts[:, None]))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance is not positive definite: {exc}") from exc
    return _panels(n, [(0, n, ell)])


def sample_fbm_exact(hurst: float, grid: TimeGrid, stream: NoiseStream) -> Path:
    """Draw one fBm path with the exact finite-dimensional law N(0, R)."""
    hurst = float(hurst)
    n = grid.n_cells
    # three matrices at once on the LAPACK route (cholesky's input, its copy
    # and its output), reserved on both routes; the Schur route holds about
    # 1.6, its factor and the panels
    panels = _dense_cached(("cholesky", hurst, grid), _check_dense(n, 3),
                           lambda: _cholesky_panels(hurst, grid))
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
