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
H < 1/2), applied as K @ (widths f) + correction f from one kernel
operator: no weight matrix is kept.  Only this module builds the operator:
rows come from ``_kernel_blocks`` and the correction from
``_cell_correction``, which the residual pass streams uncached.
``kernel_weights`` returns the weights for t = T, the grid's horizon, as
one plain vector over the midpoints: the last row of the operator.

One store, ``_DENSE``, keeps kernel operators only, within
DENSE_BYTES_MAX, least recently used first out.  An operator is
lower-triangular and kept as C-contiguous row panels of its lower
triangle, PANEL_ROWS rows each, never as a dense n x n array.
``_apply`` is the one product with a lower-triangular operator given as
row blocks, the stored panels and the streamed ``_kernel_blocks`` alike.
``kernel_matrix`` and ``weight_matrix`` build a new dense array from the
panels when called.
"""
from __future__ import annotations

import enum
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebmulx
from numpy.polynomial.polynomial import polyval

from .core import TimeGrid, _whole, uniform_grid

__all__ = [
    "DenseSizeError",
    "Regime",
    "KernelSpec",
    "beta_fn",
    "make_kernel_spec",
    "kernel_value",
    "fbm_covariance",
    "kernel_weights",
    "verify_covariance_identity",
    "kernel_matrix",
    "weight_matrix",
]

# Bytes the store keeps: the row panels of kernel operators (one alone
# fits up to n = 16131).  Each dense build is checked against it on its
# own: kernel_matrix and weight_matrix, which return a new dense n x n
# array (n <= 11585), and the exact sampler's Cholesky factor of a
# non-uniform grid, three dense n x n float64 matrices at LAPACK's peak
# (n <= 6688).
DENSE_BYTES_MAX = 1 << 30

# Rows per panel of a stored lower-triangular operator L: panel p is the
# C-contiguous L[512p : 512(p+1), : 512(p+1)], the last one shorter.  At
# n = 2048 four panels hold 5/8 of the dense bytes.  One mat-vec, two
# operators used in turn (2-core Xeon, OpenBLAS): n = 2048 took 0.59 ms
# in 512-row panels, 0.88 ms in 256-row ones and 0.78 ms dense; n = 4096
# took 4.7 ms against 6.3 ms dense; n = 1024, 0.22 against 0.21 ms.
PANEL_ROWS = 512

# The dense store: key -> read-only arrays, least recently used first.
_DENSE: OrderedDict = OrderedDict()


class DenseSizeError(ValueError):
    """Dense n x n operators would exceed DENSE_BYTES_MAX."""


def _check_bytes(need: int, what: str) -> int:
    """Raise DenseSizeError before ``what``, ``need`` bytes, is held."""
    if need > DENSE_BYTES_MAX:
        raise DenseSizeError(
            f"{what} need {need / 2**30:.1f} GiB, "
            f"over the {DENSE_BYTES_MAX / 2**30:g} GiB budget")
    return need


def _check_dense(n: int, count: int) -> int:
    """The bytes of ``count`` dense n x n float64 matrices, checked before
    they are held."""
    return _check_bytes(8 * n * n * count, f"{count} dense {n}x{n} matrix(es)")


def _check_panels(n: int) -> int:
    """The bytes of the row panels of an n x n lower triangle, checked
    before they are held."""
    full, rest = divmod(n, PANEL_ROWS)
    entries = PANEL_ROWS * PANEL_ROWS * full * (full + 1) // 2 + rest * n
    return _check_bytes(8 * entries, f"row panels of a {n}x{n} lower triangle")


def _panels(n: int, blocks) -> tuple:
    """The row panels of an n x n lower triangle L from its row blocks
    L[i0:i1, :i1] in order, none crossing a panel, zeros right of the
    diagonal; no n x n array is allocated."""
    out = [np.zeros((min(n, p0 + PANEL_ROWS) - p0, min(n, p0 + PANEL_ROWS)))
           for p0 in range(0, n, PANEL_ROWS)]
    i0 = 0
    for block in blocks:
        p, q = divmod(i0, PANEL_ROWS)
        out[p][q:q + len(block), :block.shape[1]] = block
        i0 += len(block)
    return tuple(out)


def _assemble(panels) -> np.ndarray:
    """A new dense n x n array holding the lower triangle of ``panels``."""
    n = panels[-1].shape[1]
    out = np.zeros((n, n))
    i0 = 0
    for panel in panels:
        out[i0:i0 + panel.shape[0], :panel.shape[1]] = panel
        i0 += panel.shape[0]
    return out


def _apply(blocks, x: np.ndarray) -> np.ndarray:
    """L @ x for the lower triangle L given as its row blocks L[i0:i1, :i1]
    in order, the stored panels or streamed ones; x is (n,) or (n, S).

    The one product with a lower-triangular operator: each block multiplies
    only the leading entries of x that its columns reach.
    """
    out = np.empty_like(x)
    i0 = 0
    for block in blocks:
        i1 = i0 + len(block)
        out[i0:i1] = block @ x[:block.shape[1]]
        i0 = i1
    return out


def _dense_held() -> int:
    """Bytes of the 2-D arrays in the store (not the kernel's n-vectors)."""
    return sum(a.nbytes for arrays in _DENSE.values() for a in arrays
               if a.ndim == 2)


class Regime(enum.Enum):
    ABOVE_HALF = "above_half"
    BELOW_HALF = "below_half"
    STANDARD = "standard"


def _check_hurst(hurst: float) -> float:
    """``hurst`` itself, or ValueError unless 0 < H < 1 (nan included)."""
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1); got {hurst!r}")
    return hurst


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
    """Hurst index H with the regime tag and normalizing constant it fixes.

    Built from H alone: ``regime`` and ``c_h`` are derived, never passed.
    H is kept as given.  Only H = 1/2 exactly is the STANDARD regime (plain
    Brownian motion), where ``c_h`` is None; every other H, however near
    1/2, keeps its ABOVE_HALF or BELOW_HALF regime and constant.
    Equality, hash and repr cover all three fields.
    """

    hurst: float
    regime: Regime = field(init=False)
    c_h: float | None = field(init=False)

    def __post_init__(self):
        h = _check_hurst(self.hurst)
        if h == 0.5:
            regime, c = Regime.STANDARD, None
        elif h > 0.5:
            regime = Regime.ABOVE_HALF
            c = math.sqrt(h * (2 * h - 1) / beta_fn(2 - 2 * h, h - 0.5))
        else:
            regime = Regime.BELOW_HALF
            c = math.sqrt(2 * h / ((1 - 2 * h) * beta_fn(1 - 2 * h, h + 0.5)))
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "c_h", c)


def make_kernel_spec(hurst: float) -> KernelSpec:
    """``KernelSpec(hurst)`` under a second name, kept only while the
    benchmark's workloads call it; the library uses :class:`KernelSpec`."""
    return KernelSpec(hurst)


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


@lru_cache(maxsize=1)
def _to_chebyshev() -> np.ndarray:
    """C with C @ c the Chebyshev coefficients, in u = 4x - 1, of the Taylor
    polynomial sum_k c_k x^k on x in [0, 1/2]: column k is x^k = ((u + 1)/4)^k,
    each column from the last by one more factor, so all entries are positive."""
    out = np.zeros((_SERIES_TERMS, _SERIES_TERMS))
    out[0, 0] = 1.0
    for k in range(1, _SERIES_TERMS):
        prev = out[:k, k - 1]  # degree k - 1, its leading entry nonzero
        out[:k + 1, k] = chebmulx(prev) / 4.0
        out[:k, k] += prev / 4.0
    return out


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
        cheb = _to_chebyshev() @ taylor
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
    # t^a without the rounding of H - 1/2, which costs |log t| ulps
    out *= _unified_constant(spec) * (np.power(t, spec.hurst) / np.sqrt(t))
    return out


def _unified_constant(spec: KernelSpec) -> float:
    """C_H of the closed form: c_H below half, c_H / (H-1/2) above."""
    if spec.regime is Regime.ABOVE_HALF:
        return spec.c_h / (spec.hurst - 0.5)
    return spec.c_h


def _exponential_integral(spec: KernelSpec, rate: float, t: float) -> float:
    """int_0^t K(t,s) e^(-rate s) ds in closed form, for H != 1/2, t > 0 and
    0 <= rate t <= 1000; ValueError past that.

    With a = H + 1/2 it is C_H Gamma(a) Gamma(2-a) / a t^a 2F2(a, 2-a;
    a+1, 1; -rate t).  That series alternates and its largest term is about
    e^(rate t), so it is summed in decimal with 30 digits plus one per ln 10
    of rate t: u_(k+1) = u_k (2-a+k) x / (k+1)^2, term a u_k / (a+k),
    x = -rate t.  Past k = 2 rate t each term is below half the last; the
    sum stops there once a term is below 2^-64 of it.
    """
    rate, t = float(rate), float(t)
    x = rate * t
    if not 0.0 <= x <= 1e3:
        raise ValueError(
            f"(b/m) t = {x!r} is outside [0, 1000], where the closed form "
            "of int_0^t K(t,s) e^(-(b/m)s) ds is summed")
    with localcontext() as ctx:
        ctx.prec = 30 + int(x / math.log(10))
        a = Decimal(spec.hurst) + Decimal("0.5")
        z = -Decimal(rate) * Decimal(t)
        tiny = Decimal(2) ** -64
        u, total, k = Decimal(1), Decimal(0), 0
        while True:
            term = a * u / (a + k)
            total += term
            if k > 2 * x and abs(term) < tiny * abs(total):
                break
            u *= (2 - a + k) * z / ((k + 1) * (k + 1))
            k += 1
    h = spec.hurst
    return (_unified_constant(spec) * math.gamma(h + 0.5) * math.gamma(1.5 - h)
            / (h + 0.5) * (t ** h * math.sqrt(t)) * float(total))


def kernel_value(spec: KernelSpec, t: float, s: float) -> float:
    """K(t, s) for a single point, 0 < s < t."""
    if not (0.0 < s < t):
        raise ValueError("kernel_value requires 0 < s < t")
    return float(_kernel_values(spec, float(t), np.array([s]))[0])


def _kernel_blocks(spec: KernelSpec, grid: TimeGrid):
    """Row blocks K[i0:i1, :i1] of the kernel matrix in order, zero right of
    the diagonal, with (i1 - i0) * i1 <= _BLOCK_ELEMS entries (or one row)
    and none crossing a PANEL_ROWS boundary: the stored operator places
    them in its panels, the residual pass streams them through _apply."""
    n = grid.n_cells
    times = grid.points[1:, None]
    mids = grid.midpoints
    i0 = 0
    while i0 < n:
        rows = max(1, (math.isqrt(i0 * i0 + 4 * _BLOCK_ELEMS) - i0) // 2)
        i1 = min(n, i0 + rows, (i0 // PANEL_ROWS + 1) * PANEL_ROWS)
        k = _kernel_values(spec, times[i0:i1], mids[:i1])
        k *= np.tri(i1 - i0, i1, i0)
        yield k
        i0 = i1


def fbm_covariance(hurst: float, s, t):
    """R(t, s) = (t^2H + s^2H - |t-s|^2H) / 2 for broadcasting s and t."""
    _check_hurst(hurst)
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


def _cell_correction(spec: KernelSpec, t: np.ndarray, m: np.ndarray,
                     delta: np.ndarray) -> np.ndarray:
    """Singular-cell weight minus K(t, m) delta per grid point t, m and delta
    its last cell's midpoint and width; zero unless H < 1/2.  Elementwise:
    a slice of the points gives that slice of the corrections, bit for bit."""
    if spec.regime is not Regime.BELOW_HALF:
        return np.zeros(t.shape)
    k = _kernel_values(spec, t, m)
    return _singular_cell(spec, t, m, delta, k)[2] - k * delta


def kernel_weights(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Weights of int_0^T K(T,s) f(s) ds at the grid's midpoints, T = horizon.

    The standard regime degenerates to the plain midpoint rule (K == 1).
    The weights are the last row of :func:`weight_matrix`, bit for bit;
    for an earlier grid point t_k pass the prefix grid of points t_0..t_k.
    """
    weights = _kernel_values(spec, grid.horizon, grid.midpoints) * grid.widths
    weights[-1] += _cell_correction(spec, grid.points[-1:], grid.midpoints[-1:],
                                    grid.widths[-1:])[0]
    return weights


def kernel_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Lower-triangular matrix M[i, j] = K(t_{i+1}, m_j) for j <= i.

    Row i discretizes integrals up to the positive grid point t_{i+1}
    against cell midpoints; the strict upper triangle is zero.  Each call
    returns a new array built from the row panels of the stored operator,
    which the library applies without forming M.  Raises
    :class:`DenseSizeError` when M alone exceeds DENSE_BYTES_MAX.
    """
    _check_dense(grid.n_cells, 1)
    return _assemble(_kernel_operator(spec, grid)[:-1])


def _kernel_operator(spec: KernelSpec, grid: TimeGrid) -> tuple:
    """The read-only row panels of the kernel matrix, then its last-cell
    correction, filled from :func:`_kernel_blocks` and kept in the store.

    A hit becomes the most recently used entry.  On a miss, least recently
    used entries go until the new panels fit beside the rest.
    """
    key = (spec, grid)
    if key in _DENSE:
        _DENSE.move_to_end(key)
        return _DENSE[key]
    n = grid.n_cells
    need = _check_panels(n)
    while _DENSE and _dense_held() + need > DENSE_BYTES_MAX:
        _DENSE.popitem(last=False)
    arrays = (*_panels(n, _kernel_blocks(spec, grid)),
              _cell_correction(spec, grid.points[1:], grid.midpoints, grid.widths))
    for arr in arrays:
        arr.flags.writeable = False
    _DENSE[key] = arrays
    return arrays


def weight_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Stacked kernel_weights rows: W[i, j] weights f(m_j) for t_{i+1}.

    Each call returns a new array built from the kernel matrix's row
    panels; the library applies W through :func:`_kernel_integral`
    instead.  Raises :class:`DenseSizeError` like :func:`kernel_matrix`.
    """
    _check_dense(grid.n_cells, 1)
    *panels, corr = _kernel_operator(spec, grid)
    out = _assemble(panels)
    out *= grid.widths
    out[np.diag_indices(grid.n_cells)] += corr
    return out


def _kernel_integral(spec: KernelSpec, grid: TimeGrid, f: np.ndarray):
    """weight_matrix(spec, grid) @ f without forming it; f is (n,) or (n, S)."""
    *panels, corr = _kernel_operator(spec, grid)
    col = (-1,) + (1,) * (f.ndim - 1)
    return _apply(panels, grid.widths.reshape(col) * f) + corr.reshape(col) * f


def verify_covariance_identity(spec: KernelSpec, s: float, t: float, n: int) -> float:
    """Relative residual of int_0^(s^t) K(t,u) K(s,u) du against R(t,s).

    Applies the kernel_weights of n uniform cells on [0, min(s,t)] to
    K(max(s,t), .) at their midpoints, with the squared singular cell
    exact at s = t; the residual shrinks as n grows, which is the numerical
    witness that the kernels really reproduce the fBm covariance.
    """
    if spec.regime is Regime.STANDARD:
        raise ValueError("identity check applies to the fractional regimes only")
    if not (s > 0 and t > 0):
        raise ValueError("s and t must be positive")
    n = _whole(n, "n")
    if n < 16:
        raise ValueError("need at least 16 quadrature cells")
    lo, hi = (s, t) if s <= t else (t, s)
    grid = uniform_grid(lo, n)
    nodes = grid.midpoints
    k_hi = _kernel_values(spec, hi, nodes)
    terms = k_hi * kernel_weights(spec, grid)
    if hi == lo and spec.regime is Regime.BELOW_HALF:
        # int (a x^(H-1/2) + r)^2 over the last cell; its cross term
        # 2 a r delta^(H+1/2)/(H+1/2) equals 2 r (w - r delta)
        h = spec.hurst
        delta = grid.widths[-1:]
        a, r, w = _singular_cell(spec, lo, nodes[-1:], delta, k_hi[-1:])
        terms[-1:] = (a * a * delta ** (2 * h) / (2 * h)
                      + 2 * r * w - r * r * delta)
    quad = float(terms.sum())
    target = fbm_covariance(spec.hurst, s, t)
    return abs(quad - target) / target
