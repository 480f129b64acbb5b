"""Square-integrable Volterra kernels for both Hurst regimes.

The kernel K(t, s) turns Brownian increments into fractional Brownian
motion, B^H_t = int_0^t K(t,s) dB_s.  Its form changes at H = 1/2:

* H > 1/2:  K(t,s) = c_H s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du
* H < 1/2:  K(t,s) = c_H [ (t/s)^(H-1/2) (t-s)^(H-1/2)
                           - (H-1/2) s^(1/2-H) int_s^t u^(H-3/2) (u-s)^(H-1/2) du ]
* H = 1/2:  K == 1 (plain Brownian motion).

Both regimes meet in one closed form (Decreusefond & Ustunel, Potential
Analysis 10, 1999, after a Pfaff transformation), with C_H = c_H below
half, c_H / (H-1/2) above, a = H-1/2, p = 1-2a and y = s/t:

    K(t,s) = C_H t^a ((t-s)/s)^a F((t-s)/t),   F(x) = 2F1(1, -a; a+1; x),
           = C_H t^a [y^-a Q(y) + y^a D(y)]    for y < 1/2,

Q(y) = 1/2 - a sum_(k>=2) (1-a)_k y^k / (k! (k-2a)) and D(y) = g - 4^a/2
- a (1-a) 2^-p expm1(p log 2y) / p come from the binomial series of the
integral in K(t,s) = (2y)^a K(t,t/2) + a C_H s^a int_y^(1/2) (1-v)^(a-1)
v^(-2a-1) dv; g makes both forms meet at y = 1/2.  Once per H, 60 Taylor
terms of F and of Q are economized to degree 20 on [0, 1/2], checking the
dropped tail (<= 2.8e-16 for H in [0.001, 1 - 1e-8]).  Values are within
2.2e-15 relative of 40-digit references for s/t in [1e-14, 1 - 1e-14],
at t = 1 and at t = 1e200 alike (t (t-s) / s overflows: it is not formed).

Quadrature weights for integrals int_0^t K(t,s) f(s) ds use midpoint
nodes, never endpoints: K blows up at s = 0 in both regimes, and for
H < 1/2 also at s = t, where the leading (t-s)^(H-1/2) factor of the
final cell is integrated analytically instead.  So the weights are
K(t, m_j) times the cell width plus a last-cell correction (zero unless
H < 1/2), applied as K @ (widths f) + correction f from one cached
kernel matrix: no weight matrix is kept.  Only this module builds the
operator: rows come from ``_kernel_blocks`` and the correction from
``_cell_correction``, which the residual pass streams uncached.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial
from numpy.polynomial.chebyshev import cheb2poly
from numpy.polynomial.polynomial import polyval

from .core import TimeGrid, uniform_grid

__all__ = [
    "DenseSizeError",
    "Regime",
    "KernelSpec",
    "QuadratureRule",
    "beta_fn",
    "make_kernel_spec",
    "kernel_value",
    "kernel_dt",
    "fbm_covariance",
    "kernel_weights",
    "verify_covariance_identity",
    "kernel_matrix",
    "weight_matrix",
]

# |H - 1/2| below this is treated as standard Bm, though c_H and K stay within
# 2.2e-15 of 40-digit references down to |H - 1/2| = 1e-13 on both sides.
HALF_GUARD = 1e-6

# Bytes of dense n x n float64 matrices one build may hold at once: one
# kernel matrix (n <= 11585) or the three of a Cholesky factor (n <= 6688).
DENSE_BYTES_MAX = 1 << 30


class DenseSizeError(ValueError):
    """Dense n x n operators would exceed DENSE_BYTES_MAX."""


def _check_dense(n: int, count: int = 1) -> None:
    """Raise DenseSizeError before ``count`` n x n float64 matrices are held."""
    need = 8 * n * n * count
    if need > DENSE_BYTES_MAX:
        raise DenseSizeError(
            f"{count} dense {n}x{n} matrix(es) need {need / 2**30:.1f} GiB, "
            f"over the {DENSE_BYTES_MAX / 2**30:g} GiB budget")


class Regime(enum.Enum):
    ABOVE_HALF = "above_half"
    BELOW_HALF = "below_half"
    STANDARD = "standard"


def beta_fn(a: float, b: float) -> float:
    """Euler Beta via log-Gamma, exp(lnG(a) + lnG(b) - lnG(a+b)).

    The log-Gamma route avoids the overflow/cancellation a direct
    Gamma quotient hits for small arguments; ``math.lgamma`` is the
    C library's Lanczos-type implementation.
    """
    if not (a > 0 and b > 0):
        raise ValueError("beta_fn requires positive arguments")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class KernelSpec:
    """Hurst index with its regime tag and normalizing constant.

    ``c_h`` is None exactly for the STANDARD regime (it is never used
    there and the defining formulas are singular at H = 1/2).
    """

    hurst: float
    regime: Regime
    c_h: float | None

    def __post_init__(self):
        if self.regime is Regime.STANDARD:
            if self.c_h is not None:
                raise ValueError("standard regime carries no c_h")
        elif not (self.c_h is not None and self.c_h > 0):
            raise ValueError("c_h must be positive outside the standard regime")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Midpoint nodes in (0, t) and weights for int_0^t K(t,s) f(s) ds."""

    nodes: np.ndarray
    weights: np.ndarray
    target_time: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must have equal length")
        if nodes.size and not ((nodes > 0) & (nodes < self.target_time)).all():
            raise ValueError("nodes must lie strictly inside (0, t)")
        if nodes.size > 1 and not (np.diff(nodes) > 0).all():
            raise ValueError("nodes must be strictly increasing")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        for arr in (nodes, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def apply(self, values_at_nodes: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values_at_nodes, dtype=float))


def make_kernel_spec(hurst: float) -> KernelSpec:
    """Classify H and compute the regime's normalizing constant."""
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1); got {hurst!r}")
    if abs(hurst - 0.5) < HALF_GUARD:
        return KernelSpec(0.5, Regime.STANDARD, None)
    if hurst > 0.5:
        c = math.sqrt(hurst * (2 * hurst - 1) / beta_fn(2 - 2 * hurst, hurst - 0.5))
        return KernelSpec(hurst, Regime.ABOVE_HALF, c)
    c = math.sqrt(2 * hurst / ((1 - 2 * hurst) * beta_fn(1 - 2 * hurst, hurst + 0.5)))
    return KernelSpec(hurst, Regime.BELOW_HALF, c)


# ---------------------------------------------------------------------------
# the Gauss hypergeometric series, economized once per H
# ---------------------------------------------------------------------------

_SERIES_TERMS = 60      # Taylor terms: at arguments <= 1/2 the last is < 2^-60
_SERIES_DEGREE = 20     # Chebyshev degree kept on [0, 1/2]
SERIES_TOL = 1e-11      # largest dropped Chebyshev tail accepted
_BLOCK_ELEMS = 1 << 14  # entries per row block: 128 KiB temporaries


@dataclass(frozen=True, eq=False)
class _Series:
    """Degree-20 F and 2^a Q in u = 4z - 1, and 2^-a D = d0 + d1 expm1(p log 2y);
    ``deviation``, the larger dropped Chebyshev tail, bounds both moves."""

    near: np.ndarray
    far: np.ndarray
    d0: float
    d1: float
    deviation: float


@lru_cache(maxsize=64)
def _series(hurst: float) -> _Series:
    """Economize the Taylor series of F and 2^a Q; check the dropped tails."""
    a = hurst - 0.5
    n = np.arange(_SERIES_TERMS - 1)
    f = np.cumprod(np.concatenate(([1.0], (n - a) / (n + a + 1))))
    binom = np.cumprod(np.concatenate(([1.0], (n + 1 - a) / (n + 1))))
    pk = binom / (np.arange(_SERIES_TERMS) - 2 * a)  # P(y) = sum pk y^k
    pk[:2] = 0.0
    g = 2**a * polyval(0.5, f) + a * 4**a * polyval(0.5, pk)
    q = -a * 2**a * pk
    q[0] = 2**a / 2
    kept, tail = [], 0.0
    for taylor in (f, q):
        cheb = Polynomial(taylor).convert(kind=Chebyshev, domain=[0.0, 0.5]).coef
        kept.append(cheb2poly(cheb[:_SERIES_DEGREE + 1])[::-1])
        tail = max(tail, float(np.abs(cheb[_SERIES_DEGREE + 1:]).sum()))
    if not tail <= SERIES_TOL:
        raise ArithmeticError(
            f"kernel series at H={hurst!r} deviates {tail:.2e} from its "
            f"{_SERIES_TERMS}-term sum (tolerance {SERIES_TOL:g})")
    return _Series(*kept, 2**-a * (g - 4**a / 2),
                   -a * (1 - a) * 2**(a - 1) / (1 - 2 * a), tail)


def _horner(coef: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The economized polynomial at z in [0, 1/2]; z is overwritten."""
    z *= 4.0
    z -= 1.0
    f = coef[0] * z + coef[1]
    for c in coef[2:]:
        f *= z
        f += c
    return f


def _kernel_values(spec: KernelSpec, t, s: np.ndarray) -> np.ndarray:
    """K(t, s) for a scalar or column ``t`` against nodes ``s``; finite filler
    where s > t.  The one evaluator: a value, a row and a block of rows run
    the same elementwise operations, so they agree bit for bit."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if spec.regime is Regime.STANDARD:
        return np.ones(np.broadcast_shapes(t.shape, s.shape))
    a = spec.hurst - 0.5
    series = _series(spec.hurst)
    y = s / t
    out = np.empty_like(y)
    near = y >= 0.5
    if near.any():
        d = (np.abs(t - s) / s)[near]  # (t - s) / s: t (t - s) / s overflows
        x = np.minimum(y[near] * d, 0.5)  # (t - s) / t; filler past s = 3t/2
        out[near] = _horner(series.near, x) * np.power(d, a, out=d)
    if not near.all():
        y = y[~near]
        lg = np.log(2 * y)
        r = np.exp(a * lg)  # (2y)^a
        e = np.expm1((1 - 2 * a) * lg)
        out[~near] = _horner(series.far, y) / r + r * (series.d0 + series.d1 * e)
    c_h = spec.c_h / a if spec.regime is Regime.ABOVE_HALF else spec.c_h
    # t^a without the rounding of H - 1/2, which costs |log t| ulps
    out *= c_h * (np.power(t, spec.hurst) / np.sqrt(t))
    return out


def kernel_value(spec: KernelSpec, t: float, s: float) -> float:
    """K(t, s) for a single point, 0 < s < t."""
    if not (0.0 < s < t):
        raise ValueError("kernel_value requires 0 < s < t")
    return float(_kernel_values(spec, float(t), np.array([s]))[0])


def _kernel_blocks(spec: KernelSpec, grid: TimeGrid):
    """(i0, i1, K[i0:i1, :i1]) blocks of the kernel matrix, zero right of the
    diagonal, with (i1 - i0) * i1 <= _BLOCK_ELEMS entries (or one row): the
    cached operator stores them, the residual pass streams them."""
    n = grid.n_cells
    times = grid.points[1:, None]
    mids = grid.midpoints
    i0 = 0
    while i0 < n:
        rows = max(1, (math.isqrt(i0 * i0 + 4 * _BLOCK_ELEMS) - i0) // 2)
        i1 = min(n, i0 + rows)
        k = _kernel_values(spec, times[i0:i1], mids[:i1])
        k *= np.tri(i1 - i0, i1, i0)
        yield i0, i1, k
        i0 = i1


def kernel_dt(spec: KernelSpec, t: float, s: float) -> float:
    """Closed-form time derivative of the kernel, 0 < s < t.

    c_H (t/s)^(H-1/2) (t-s)^(H-3/2), carrying an extra (H-1/2) factor
    below half; identically 0 in the standard regime.
    """
    if not (0.0 < s < t):
        raise ValueError("kernel_dt requires 0 < s < t (it diverges at s = t)")
    if spec.regime is Regime.STANDARD:
        return 0.0
    h = spec.hurst
    val = spec.c_h * (t / s) ** (h - 0.5) * (t - s) ** (h - 1.5)
    if spec.regime is Regime.BELOW_HALF:
        val *= h - 0.5
    return float(val)


def fbm_covariance(hurst: float, s, t):
    """R(t, s) = (t^2H + s^2H - |t-s|^2H) / 2 for broadcasting s and t."""
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1); got {hurst!r}")
    if np.any(np.less(s, 0)) or np.any(np.less(t, 0)):
        raise ValueError("covariance arguments must be nonnegative")
    two_h = 2.0 * hurst
    return 0.5 * (t**two_h + s**two_h - abs(t - s) ** two_h)


# ---------------------------------------------------------------------------
# product quadrature on a grid
# ---------------------------------------------------------------------------


def _singular_cell(spec: KernelSpec, t, m: np.ndarray, delta: np.ndarray,
                   k: np.ndarray):
    """Split K(t, m) = a (t-m)^(H-1/2) + r below half and weight the cell.

    a = c_H (t/m)^(H-1/2); the last cell [t-delta, t] integrates the
    leading factor exactly, weight = a delta^(H+1/2)/(H+1/2) + r delta.
    Returns (a, r, weight).  Pass arrays (length-1 slices for one row):
    numpy's power then rounds like the full weight_matrix diagonal.
    """
    h = spec.hurst
    a = spec.c_h * (t / m) ** (h - 0.5)
    r = k - a * (t - m) ** (h - 0.5)
    return a, r, a * delta ** (h + 0.5) / (h + 0.5) + r * delta


def _cell_correction(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Singular-cell weight minus K(t, m) delta per positive grid point t,
    m and delta its last cell's midpoint and width; zero unless H < 1/2."""
    if spec.regime is not Regime.BELOW_HALF:
        return np.zeros(grid.n_cells)
    t, m, delta = grid.points[1:], grid.midpoints, grid.widths
    k = _kernel_values(spec, t, m)
    return _singular_cell(spec, t, m, delta, k)[2] - k * delta


def kernel_weights(spec: KernelSpec, t: float, grid: TimeGrid) -> QuadratureRule:
    """Quadrature rule for int_0^t K(t,s) f(s) ds on the grid's cells.

    ``t`` must be a positive grid point; nodes are the midpoints of the
    grid cells inside [0, t].  The standard regime degenerates to the
    plain midpoint rule (K == 1).  The weights are the matching row of
    :func:`weight_matrix`, bit for bit.
    """
    i = grid.index_of(t)
    if i == 0:
        raise ValueError("t must be a positive grid point")
    t = float(t)
    mids = grid.midpoints[:i]
    weights = _kernel_values(spec, t, mids) * grid.widths[:i]
    weights[-1] += _cell_correction(spec, grid)[i - 1]
    return QuadratureRule(mids, weights, t)


def kernel_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular matrix M[i, j] = K(t_{i+1}, m_j) for j <= i.

    Row i discretizes integrals up to the positive grid point t_{i+1}
    against cell midpoints; the strict upper triangle is zero.  The
    returned array is cached and read-only, so it is shared between
    callers.  Raises :class:`DenseSizeError` beyond DENSE_BYTES_MAX.
    """
    return _kernel_operator(spec, grid)[0]


@lru_cache(maxsize=4)
def _kernel_operator(spec: KernelSpec, grid: TimeGrid):
    """The read-only kernel matrix and its last-cell correction."""
    n = grid.n_cells
    _check_dense(n)
    out = np.zeros((n, n))
    for i0, i1, block in _kernel_blocks(spec, grid):
        out[i0:i1, :i1] = block
    corr = _cell_correction(spec, grid)
    for arr in (out, corr):
        arr.flags.writeable = False
    return out, corr


def weight_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Stacked kernel_weights rows: W[i, j] weights f(m_j) for t_{i+1}.

    Built on demand from the cached kernel matrix and not cached; the
    library applies it through :func:`_kernel_integral` instead.
    """
    kmat, corr = _kernel_operator(spec, grid)
    out = kmat * grid.widths
    out[np.diag_indices(grid.n_cells)] += corr
    return out


def _kernel_integral(spec: KernelSpec, grid: TimeGrid, f: np.ndarray):
    """weight_matrix(spec, grid) @ f without forming it; f is (n,) or (n, S)."""
    kmat, corr = _kernel_operator(spec, grid)
    col = (-1,) + (1,) * (f.ndim - 1)
    return kmat @ (grid.widths.reshape(col) * f) + corr.reshape(col) * f


def verify_covariance_identity(spec: KernelSpec, s: float, t: float, n: int) -> float:
    """Relative residual of int_0^(s^t) K(t,u) K(s,u) du against R(t,s).

    Applies the kernel_weights rule of n uniform cells on [0, min(s,t)]
    to K(max(s,t), .), with the squared singular cell exact at s = t;
    the residual shrinks as n grows, which is the numerical witness that
    the kernels really reproduce the fBm covariance.
    """
    if spec.regime is Regime.STANDARD:
        raise ValueError("identity check applies to the fractional regimes only")
    if not (s > 0 and t > 0):
        raise ValueError("s and t must be positive")
    n = int(n)
    if n < 16:
        raise ValueError("need at least 16 quadrature cells")
    lo, hi = (s, t) if s <= t else (t, s)
    grid = uniform_grid(lo, n)
    rule = kernel_weights(spec, lo, grid)
    k_hi = _kernel_values(spec, hi, rule.nodes)
    terms = k_hi * rule.weights
    if hi == lo and spec.regime is Regime.BELOW_HALF:
        # int (a x^(H-1/2) + r)^2 over the last cell; its cross term
        # 2 a r delta^(H+1/2)/(H+1/2) equals 2 r (w - r delta)
        h = spec.hurst
        delta = grid.widths[-1:]
        a, r, w = _singular_cell(spec, lo, rule.nodes[-1:], delta, k_hi[-1:])
        terms[-1:] = (a * a * delta ** (2 * h) / (2 * h)
                      + 2 * r * w - r * r * delta)
    quad = float(terms.sum())
    target = fbm_covariance(spec.hurst, s, t)
    return abs(quad - target) / target
