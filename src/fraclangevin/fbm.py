"""Fractional Brownian motion synthesis, two independent ways.

The exact route draws the positive grid points from the exact law
N(0, R), R(t_i, t_j) the fBm covariance, which makes it the reference
oracle.  On a uniform grid of step h the increments are stationary
fractional Gaussian noise, h^2H gamma(i - j), and their Toeplitz
covariance embeds in the 2n x 2n circulant of first row (gamma_0 ..
gamma_n, gamma_(n-1) .. gamma_1), which one FFT diagonalizes: with its
eigenvalues lambda >= 0 and standard normal z_1, z_2 in R^2n, the real
part of FFT(sqrt(lambda / 2n) (z_1 + i z_2)) has that circulant as its
covariance, so its first n entries are exact fGn (Davies & Harte,
Biometrika 74, 1987; Wood & Chan, JCGS 3, 1994): O(n log n) time, O(n)
memory, nothing stored.  Any other grid forms R and factors it densely
by LAPACK in O(n^3) on each call, and keeps nothing either.  The kernel
route discretizes B^H_t = int_0^t K(t,s) dB_s with midpoint kernel
values against raw Brownian increments; it is consistent as the mesh
shrinks and reduces to plain Bm partial sums at H = 1/2.  Its product is
the one kernel product, ``kernels._kernel_product``.
"""
from __future__ import annotations

import math

import numpy as np

from .core import NoiseStream, Path, TimeGrid
from .kernels import (KernelSpec, _check_dense, _check_hurst, _kernel_product,
                      fbm_covariance)
from .noise import gaussian_increments

__all__ = [
    "DecompositionError",
    "sample_fbm_exact",
    "sample_fbm_kernel",
]


class DecompositionError(RuntimeError):
    """A covariance was not numerically positive (semi)definite: LAPACK's
    Cholesky factorization failed, or the circulant embedding of the fGn
    covariance has an eigenvalue below -EIG_TOL times its largest."""


# Circulant eigenvalues at or above -EIG_TOL times the largest are taken as
# rounding of a nonnegative one and clipped to 0; lower ones are refused.
EIG_TOL = 1e-12


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


def _is_uniform(grid: TimeGrid) -> bool:
    """Every t_i within 1e-12 T of i T / n: the stationary increments apply."""
    n, horizon = grid.n_cells, grid.horizon
    gap = np.abs(grid.points - np.arange(n + 1) * (horizon / n))
    return bool(gap.max() <= 1e-12 * horizon)


def _circulant_eigenvalues(hurst: float, n: int) -> np.ndarray:
    """Eigenvalues of the 2n x 2n circulant with first row (gamma_0 ..
    gamma_n, gamma_(n-1) .. gamma_1) at frequencies 0..n, from one rfft;
    frequency 2n - k has the same one as k.  DecompositionError names the
    smallest if it is negative beyond EIG_TOL."""
    gamma = _fgn_autocovariance(hurst, n + 1)
    lam = np.fft.rfft(np.concatenate((gamma, gamma[-2:0:-1]))).real
    low, high = lam.min(), lam.max()
    if not low >= -EIG_TOL * high:
        raise DecompositionError(
            f"circulant embedding is not positive semidefinite: smallest "
            f"eigenvalue {low:.6g}, largest {high:.6g}")
    return lam


def _circulant_map(hurst: float, grid: TimeGrid, z: np.ndarray) -> np.ndarray:
    """fBm at the positive points of the uniform ``grid`` from the (2, 2n)
    standard normals ``z``: the prefix sums of the first n entries of
    (T/n)^H Re FFT(sqrt(lambda / 2n) (z[0] + i z[1]))."""
    n = grid.n_cells
    lam = np.maximum(_circulant_eigenvalues(hurst, n), 0.0)
    root = np.sqrt(np.concatenate((lam, lam[-2:0:-1])) / (2 * n))
    root *= (grid.horizon / n) ** hurst
    w = z[0] + 1j * z[1]
    w *= root
    return np.cumsum(np.fft.fft(w, out=w).real[:n])


def _cholesky_factor(hurst: float, grid: TimeGrid) -> np.ndarray:
    """The Cholesky factor of R(t_i, t_j) over the positive grid points
    (t = 0 is left out: B^H_0 = 0 would make R singular).  Checked first
    against DENSE_BYTES_MAX for three matrices at once: cholesky's input,
    its copy and its output."""
    n, pts = grid.n_cells, grid.points[1:]
    _check_dense(n, 3)
    try:
        return np.linalg.cholesky(fbm_covariance(hurst, pts[None, :], pts[:, None]))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"covariance is not positive definite: {exc}") from exc


def sample_fbm_exact(hurst: float, grid: TimeGrid, stream: NoiseStream) -> Path:
    """Draw one fBm path with the exact finite-dimensional law N(0, R).

    A uniform grid takes the circulant route; any other grid maps n
    normals through R's Cholesky factor, factorized on each call.  Neither
    stores anything.
    """
    hurst = _check_hurst(float(hurst))
    n = grid.n_cells
    rng = stream.generator()
    if _is_uniform(grid):
        values = _circulant_map(hurst, grid, rng.standard_normal((2, 2 * n)))
    else:
        values = _cholesky_factor(hurst, grid) @ rng.standard_normal(n)
    return Path(grid, np.concatenate(([0.0], values)))


def sample_fbm_kernel(spec: KernelSpec, grid: TimeGrid, stream: NoiseStream) -> Path:
    """Volterra-kernel synthesis from Brownian increments.

    B^H(t_i) ~= sum_{j < i} K(t_i, m_j) dB_j with the increments drawn
    from the stream; the standard regime returns the plain partial sums
    of the same increments (K == 1).
    """
    db = gaussian_increments(grid, stream)
    return Path(grid, np.concatenate(([0.0], _kernel_product(spec, grid, db))))
