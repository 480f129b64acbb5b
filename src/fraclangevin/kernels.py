"""Square-integrable Volterra kernels for both Hurst regimes.

The kernel K(t, s) turns Brownian increments into fractional Brownian
motion, B^H_t = int_0^t K(t,s) dB_s.  Its form changes at H = 1/2:

* H > 1/2:  K(t,s) = c_H s^(1/2-H) int_s^t (u-s)^(H-3/2) u^(H-1/2) du
* H < 1/2:  K(t,s) = c_H [ (t/s)^(H-1/2) (t-s)^(H-1/2)
                           - (H-1/2) s^(1/2-H) int_s^t u^(H-3/2) (u-s)^(H-1/2) du ]
* H = 1/2:  K == 1 (plain Brownian motion).

Both regimes meet in one closed form (Decreusefond & Ustunel, Potential
Analysis 10, 1999, after a Pfaff transformation), with C_H = c_H below
half and c_H / (H-1/2) above:

    K(t,s) = C_H (t (t-s) / s)^(H-1/2) 2F1(1, 1/2-H; H+1/2; (t-s)/t)
           = (2s/t)^(H-1/2) K(t, t/2)
             + (H-1/2) C_H s^(H-1/2) int_(s/t)^(1/2) (1-v)^(H-3/2) v^(-2H) dv.

``kernel_value`` sums 60 terms of the series for s/t >= 1/2, and of the
binomial series of (1-v)^(H-3/2) below, whose two logarithmic terms (at
H = 1/2 and H = 1) go through expm1: within 5e-15 relative of 40-digit
references for H in [0.001, 1 - 1e-8] and s/t in [1e-14, 1 - 1e-14].

Both regimes are homogeneous, K(t,s) = t^(H-1/2) K(1, s/t), so

    K(t,s) = (t (t-s) / s)^(H-1/2) f(q),    q = s / (t-s),

with f smooth on (0, inf) apart from a power-law term at q -> 0.  f is
fitted once per H by polynomial interpolation at Chebyshev points on the
dyadic panels [2^(e-1), 2^e) of q, graded geometrically toward s -> 0
and toward s -> t, from series values.  Every grid row (the kernel
matrix, kernel_weights, the residual certificate, the covariance
identity) is one power plus a short Horner recurrence per entry, cheaper
than the series and within 1e-11 relative of it: the fit is checked
against the series between the nodes when it is built.  Ratios outside
the fitted panels fall back to the series.

Quadrature weights for integrals int_0^t K(t,s) f(s) ds use midpoint
nodes, never endpoints: K blows up at s = 0 in both regimes, and for
H < 1/2 also at s = t, where the leading (t-s)^(H-1/2) factor of the
final cell is integrated analytically instead.  So the weights are
K(t, m_j) times the cell width plus a last-cell correction (zero unless
H < 1/2), applied as K @ (widths f) + correction f from one cached
kernel matrix: no weight matrix is kept.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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

# |H - 1/2| below this is treated as standard Bm: the c_H formulas are
# numerically explosive in that band (both divide by a vanishing factor).
HALF_GUARD = 1e-6

# Largest dense n x n float64 operator built (n <= 11585).
DENSE_BYTES_MAX = 1 << 30


class DenseSizeError(ValueError):
    """A dense n x n operator would exceed DENSE_BYTES_MAX."""


def _check_dense(n: int) -> None:
    """Raise DenseSizeError before an n x n float64 matrix is allocated."""
    need = 8 * n * n
    if need > DENSE_BYTES_MAX:
        raise DenseSizeError(
            f"a dense {n}x{n} matrix needs {need / 2**30:.1f} GiB, over the "
            f"{DENSE_BYTES_MAX / 2**30:g} GiB budget")


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
# the Gauss hypergeometric series for pointwise values
# ---------------------------------------------------------------------------

# arguments stay <= 1/2: the last term is below 2^-60 of the largest
_SERIES_TERMS = 60


@lru_cache(maxsize=64)
def _series(hurst: float):
    """Coefficients of both series of K, with a = H-1/2.

    ``near``: (-a)_n / (a+1)_n, the Taylor coefficients of 2F1(1, -a; a+1; x);
    ``far``: (1-a)_k / (k! (k-2a)), zero for k < 2;
    ``g`` = 2^a 2F1(1, -a; a+1; 1/2) + a 4^a sum_k far_k 2^-k.
    """
    a = hurst - 0.5
    n = np.arange(_SERIES_TERMS - 1)
    near = np.cumprod(np.concatenate(([1.0], (n - a) / (n + a + 1))))
    binom = np.cumprod(np.concatenate(([1.0], (n + 1 - a) / (n + 1))))
    far = binom / (np.arange(_SERIES_TERMS) - 2 * a)
    far[:2] = 0.0
    g = 2**a * polyval(0.5, near) + a * 4**a * polyval(0.5, far)
    return near, far, g


def _kernel_values(spec: KernelSpec, t, s: np.ndarray) -> np.ndarray:
    """Vectorized K(t, s); ``t`` may be a scalar or an array matching s.

    The module docstring's two forms; below s/t = 1/2, with y = s/t,
    l = log(2y), m = expm1(-2a l) and p = 1-2a, the integral's terms in
    v^-2a and v^(1-2a) are m 4^a / 2a and (1-a) 2^-p expm1(p l) / -p.
    """
    s = np.asarray(s, dtype=float)
    if spec.regime is Regime.STANDARD:
        return np.ones_like(s)
    a = spec.hurst - 0.5
    c_h = spec.c_h / a if spec.regime is Regime.ABOVE_HALF else spec.c_h
    near, far, g = _series(spec.hurst)
    t = np.broadcast_to(t, s.shape)
    out = np.empty_like(s)
    direct = (t - s) / t <= 0.5
    if direct.any():
        sd, td = s[direct], t[direct]
        out[direct] = (td * (td - sd) / sd) ** a * polyval((td - sd) / td, near)
    if not direct.all():
        sc = s[~direct]
        y = sc / t[~direct]
        lg = np.log(2 * y)
        m = np.expm1(-2 * a * lg)
        p = 1 - 2 * a
        out[~direct] = sc**a * (g + 4**a * (m / 2 - a * (1 + m) * polyval(y, far))
                             - a * (1 - a) * 2**-p * np.expm1(p * lg) / p)
    return c_h * out


def kernel_value(spec: KernelSpec, t: float, s: float) -> float:
    """K(t, s) for a single point, 0 < s < t."""
    if not (0.0 < s < t):
        raise ValueError("kernel_value requires 0 < s < t")
    return float(_kernel_values(spec, float(t), np.array([s]))[0])


# ---------------------------------------------------------------------------
# the kernel profile: K(t,s) = (t (t-s) / s)^(H-1/2) f(s / (t-s))
# ---------------------------------------------------------------------------

_PROFILE_NODES = 17          # interpolation points per panel (degree 16)
_PROFILE_EXPONENTS = (-40, 41)  # panels [2^(e-1), 2^e) of q = s/(t-s)
PROFILE_TOL = 1e-11          # relative deviation from the series
_BLOCK_ELEMS = 1 << 14       # entries per row block: 128 KiB temporaries


@dataclass(frozen=True, eq=False)
class _Profile:
    """Panel coefficients of f and their checked deviation.

    ``table[k, e % panels]`` is the coefficient of y^(nodes-1-k) on the
    panel of exponent e, in the local variable y = 4 q 2^-e - 3.
    ``deviation`` is the largest relative difference from the
    series at points between the nodes and on the panel edges.
    """

    table: np.ndarray
    deviation: float


def _panel_samples(spec: KernelSpec, ys: np.ndarray):
    """t, s and series K(t, s) at local points ys (rows) of each panel.

    t = s + 1, so q = s up to rounding.
    """
    lo, hi = _PROFILE_EXPONENTS
    expo = np.arange(hi - lo + 1)
    expo[expo > hi] -= expo.size
    s = np.ldexp((ys[:, None] + 3.0) / 4.0, expo)
    t = s + 1.0
    return t, s, _kernel_values(spec, t, s)


def _profile_values(spec: KernelSpec, table: np.ndarray, t, s: np.ndarray):
    """K(t, s) from the fitted panels; the series outside them.

    ``t`` is a scalar or an array broadcasting against ``s``.  Where
    s > t the entry is finite filler, for callers to zero.
    """
    gap = t - s
    np.abs(gap, out=gap)
    q = s / gap
    y, expo = np.frexp(q)
    expo = expo.astype(np.intp)  # take() would convert it on every call
    y *= 4.0
    y -= 3.0
    f = np.take(table[0], expo, mode="wrap")
    term = np.empty_like(f)
    for row in table[1:]:
        f *= y
        f += np.take(row, expo, mode="wrap", out=term)
    np.divide(t, q, out=q)  # t (t-s) / s
    np.power(q, spec.hurst - 0.5, out=q)
    q *= f
    lo, hi = _PROFILE_EXPONENTS
    if expo.min() < lo or expo.max() > hi:
        far = ((expo < lo) | (expo > hi)) & (s < t)
        q[far] = _kernel_values(spec, np.broadcast_to(t, q.shape)[far],
                                np.broadcast_to(s, q.shape)[far])
    return q


@lru_cache(maxsize=64)
def _profile(spec: KernelSpec) -> _Profile:
    """Fit f on every panel from series values; check between nodes."""
    n = _PROFILE_NODES
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    t, s, k = _panel_samples(spec, nodes)
    table = np.linalg.solve(np.vander(nodes),
                            k / (t / (s / (t - s))) ** (spec.hurst - 0.5))
    table.flags.writeable = False
    t, s, k = _panel_samples(spec, np.cos(np.pi * np.arange(1, n + 1) / n))
    fitted = _profile_values(spec, table, t, s)
    deviation = float(np.max(np.abs(fitted / k - 1)))
    if not deviation <= PROFILE_TOL:
        raise ArithmeticError(
            f"kernel profile at H={spec.hurst!r} deviates {deviation:.2e} "
            f"from the series (tolerance {PROFILE_TOL:g})")
    return _Profile(table, deviation)


def _kernel_grid(spec: KernelSpec, t, s: np.ndarray) -> np.ndarray:
    """K(t, s) for a scalar or column ``t`` against nodes ``s``.

    Filler where s > t.  The one row builder: a single row and a block of
    rows run the same elementwise operations, so they agree bit for bit.
    """
    if spec.regime is Regime.STANDARD:
        return np.ones(np.broadcast_shapes(np.shape(t), s.shape))
    return _profile_values(spec, _profile(spec).table, t, s)


def _row_blocks(n: int):
    """(i0, i1) row ranges with (i1 - i0) * i1 <= _BLOCK_ELEMS (or one row)."""
    i0 = 0
    while i0 < n:
        rows = max(1, (math.isqrt(i0 * i0 + 4 * _BLOCK_ELEMS) - i0) // 2)
        yield i0, min(n, i0 + rows)
        i0 += rows


def _kernel_rows(spec: KernelSpec, times: np.ndarray, mids: np.ndarray):
    """Rows K(times[r], mids[j]) of a lower-triangular block.

    The last row pairs with the last node; entries right of each row's
    diagonal, j > r + mids.size - times.size, are zero.
    """
    k = _kernel_grid(spec, times[:, None], mids)
    k *= np.tri(times.size, mids.size, mids.size - times.size)
    return k


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


def _cell_correction(spec: KernelSpec, t, m: np.ndarray, delta: np.ndarray,
                     k: np.ndarray) -> np.ndarray:
    """Singular-cell weight minus K(t, m) delta; zero unless H < 1/2."""
    if spec.regime is not Regime.BELOW_HALF:
        return np.zeros_like(k)
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
    widths = grid.widths[:i]
    kvals = _kernel_grid(spec, t, mids)
    weights = kvals * widths
    weights[-1:] += _cell_correction(spec, t, mids[-1:], widths[-1:],
                                     kvals[-1:])
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
    times = grid.points[1:]
    mids = grid.midpoints
    out = np.zeros((n, n))
    for i0, i1 in _row_blocks(n):
        out[i0:i1, :i1] = _kernel_rows(spec, times[i0:i1], mids[:i1])
    corr = _cell_correction(spec, times, mids, grid.widths, out.diagonal())
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
    k_hi = _kernel_grid(spec, hi, rule.nodes)
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
