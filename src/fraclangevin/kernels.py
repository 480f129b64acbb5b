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
dropped tail (<= 2.9e-16 for every H in (0, 1)).  Values are within
2.2e-15 relative of 60-digit references for s/t in [1e-300, 1 - 1e-14],
at t = 1 and at t = 1e200 alike (t (t-s) / s overflows: it is not formed).
The powers (2y)^a and t^a are formed as x^H / sqrt(x): H - 1/2 is exact
only for H in [1/4, 1], and its rounding would cost |log x| ulps.

Quadrature weights for integrals int_0^t K(t,s) f(s) ds use midpoint
nodes, never endpoints: K blows up at s = 0 in both regimes, and for
H < 1/2 also at s = t.  There the last cell integrates the leading
factor a (t-s)^(H-1/2), a = c_H (t/m)^(H-1/2), exactly (product
integration, de Hoog & Weiss, Math. Comp. 27, 1973): the weights are
K(t, m_j) times the cell width plus a last-cell correction a
delta^(H+1/2) (1/(H+1/2) - 2^(1/2-H)), zero from H = 1/2 up, in closed
form with no kernel value.  They are applied as K @ (widths f) +
correction f: no weight matrix is kept.  ``kernel_weights`` returns the
weights for t = T, the grid's horizon: the last row of ``weight_matrix``.

No kernel operator is held as an n x n array.  ``_layout`` splits row t
at a column block boundary below s = t/2.  In the near half the 32 to 64
columns next to the diagonal are evaluated, and each column block further
out, at least its width from t and from 0, is interpolated in s at 20
Chebyshev nodes (in the style of Hackbusch's H-matrices, Computing 62,
1999): O(n log n) kernel values, 137 n at n = 1024 and 254 n at 16384.
Its moments are the barycentric Lagrange weights of its mids at the nodes
as rounded (Berrut & Trefethen, SIAM Review 46, 2004), which a block whose
rounded nodes repeat does not have: it is evaluated instead.
The far half is the closed form's short sum of powers s^alpha t^beta, so
each of its 23 terms is one prefix sum over the columns (``_far_terms``).
None of the layout depends on H, and it costs about 1 ms at n = 2048: each
stream and each operator build evaluates it once, and an operator holds
its own index arrays, 19 KiB, and Lagrange weights, 1.56 MiB at n = 2048.
``_apply`` adds one part's share of K @ x.  ``_kernel_product`` is the one
product: a grid's first streams, evaluating each part (tile values,
Lagrange weights, far factors), applying and dropping it, and the one
store, ``_DENSE``, keeps the grid's points alone; once the store has seen
the grid or holds the (H, grid) operator, it applies that operator, built
and kept on first use.  The store holds at most core.DENSE_BYTES_MAX
bytes, an operator 4.7 MiB at n = 2048 against 32 MiB dense; one over it
streams.  ``kernel_matrix`` and ``weight_matrix`` build dense arrays from
``_row_blocks``.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import cheb2poly, chebmulx
from numpy.polynomial.polynomial import polyval

from . import core
from .core import DenseSizeError, TimeGrid, _check_bytes, _whole, uniform_grid

__all__ = ["KernelSpec", "make_kernel_spec", "kernel_value", "fbm_covariance",
           "kernel_weights", "verify_covariance_identity", "kernel_matrix",
           "weight_matrix"]

# The store, read-only, least recently used first, within core.DENSE_BYTES_MAX:
# a grid its products have seen -> its points, (spec, grid) -> (the
# operator's parts, correction).
_DENSE: OrderedDict = OrderedDict()


def _check_dense(n: int, count: int) -> int:
    """The bytes of ``count`` dense n x n float64 matrices, checked before
    they are held."""
    return _check_bytes(8 * n * n * count, f"{count} dense {n}x{n} matrix(es)")


def _arrays(*fields) -> list:
    """Every array in ``fields``, tuples and lists opened: a store entry's."""
    out = []
    for f in fields:
        if isinstance(f, np.ndarray):
            out.append(f)
        elif isinstance(f, (tuple, list)):
            out += _arrays(*f)
    return out


def _dense_held() -> int:
    """Bytes of the arrays in the store, none a view of another."""
    return sum(a.nbytes for a in _arrays(*_DENSE.values()))


def _make_room(need: int) -> None:
    """Drop least recently used entries until ``need`` bytes fit beside the
    store."""
    while _DENSE and _dense_held() + need > core.DENSE_BYTES_MAX:
        _DENSE.popitem(last=False)


def _frozen(entry: tuple) -> tuple:
    """``entry`` with every array in it read-only."""
    for a in _arrays(entry):
        a.flags.writeable = False
    return entry


def _check_hurst(hurst: float) -> float:
    """``hurst`` itself, or ValueError unless 0 < H < 1 (nan included)."""
    if not (0.0 < hurst < 1.0):
        raise ValueError(f"Hurst index must lie in (0, 1); got {hurst!r}")
    return hurst


def _beta(a: float, b: float) -> float:
    """Euler Beta of a, b > 0 via log-Gamma, which neither overflows nor
    cancels at small arguments as a Gamma quotient does."""
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


@dataclass(frozen=True)
class KernelSpec:
    """Hurst index H with the normalizing constant c_H it fixes.

    Built from H alone: ``c_h`` is derived, never passed.  H is kept as
    given, and the side of 1/2 it lies on picks the kernel's form.  Only
    H = 1/2 exactly is plain Brownian motion, where ``c_h`` is None; every
    other H, however near 1/2, keeps its fractional kernel and constant.
    Equality, hash and repr cover both fields.
    """

    hurst: float
    c_h: float | None = field(init=False)

    def __post_init__(self):
        h = _check_hurst(self.hurst)
        if h == 0.5:
            c = None
        elif h > 0.5:
            c = math.sqrt(h * (2 * h - 1) / _beta(2 - 2 * h, h - 0.5))
        else:
            c = math.sqrt(2 * h / ((1 - 2 * h) * _beta(1 - 2 * h, h + 0.5)))
        object.__setattr__(self, "c_h", c)


make_kernel_spec = KernelSpec  # a second name while the benchmark calls it


# ---------------------------------------------------------------------------
# the Gauss hypergeometric series, economized once per H
# ---------------------------------------------------------------------------

_SERIES_TERMS = 60      # Taylor terms: at arguments <= 1/2 the last is < 2^-60
_SERIES_DEGREE = 20     # Chebyshev degree kept on [0, 1/2]
SERIES_TOL = 5e-16      # largest dropped Chebyshev tail accepted


@dataclass(frozen=True, eq=False)
class _Series:
    """Degree-20 F and 2^a Q in u = 4z - 1, and 2^-a D = d0 + d1 expm1(p log 2y);
    ``deviation``, the larger dropped Chebyshev tail, bounds both moves.
    ``monomials`` is 2^-a pi_k with P(y) = 2^a Q(y) = sum_k pi_k y^k: the
    change of variable from u = 4y - 1 is made in integers over one power of
    two, so pi_k is P's own coefficient, rounded once."""

    near: np.ndarray
    far: np.ndarray
    monomials: np.ndarray
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
    ratios = [float(v).as_integer_ratio() for v in kept[1][::-1]]
    den = max(d for _, d in ratios)
    c = [num * (den // d) for num, d in ratios]
    pi = [4**k * sum((-1) ** (m - k) * math.comb(m, k) * c[m]
                     for m in range(k, len(c))) / den
          for k in range(len(c))]
    return _Series(*kept, 2**-a * np.array(pi), 2**-a * (g - 4**a / 2),
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
    if spec.hurst == 0.5:
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
        y2 = 2 * y
        lg = np.log(y2)
        r = np.power(y2, spec.hurst) / np.sqrt(y2)  # (2y)^a
        e = np.expm1((1 - 2 * a) * lg)
        out[~near] = _horner(series.far, y) / r + r * (series.d0 + series.d1 * e)
    out *= _unified_constant(spec) * (np.power(t, spec.hurst) / np.sqrt(t))
    return out


def _unified_constant(spec: KernelSpec) -> float:
    """C_H of the closed form: c_H below half, c_H / (H-1/2) above."""
    if spec.hurst > 0.5:
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


# Entries per row block: 64 KiB temporaries.  With 128 KiB ones glibc
# mapped or trimmed memory again for every block: 1709 page faults per
# residual pass at n = 1024 against none, 13 ms against 11 ms per pass
# (2-core x86-64).
_BLOCK_ELEMS = 1 << 13


def _row_blocks(spec: KernelSpec, grid: TimeGrid):
    """Row blocks (i0, K[i0:i1, :i1]) of the kernel matrix in order, zero
    right of the diagonal, each at most _BLOCK_ELEMS entries (or one row):
    the dense builder of :func:`kernel_matrix`."""
    times, mids = grid.points[1:, None], grid.midpoints
    tri = np.tri(math.isqrt(_BLOCK_ELEMS))  # a block has at most this many rows
    i0 = 0
    while i0 < grid.n_cells:
        i1 = min(grid.n_cells,
                 i0 + max(1, (math.isqrt(i0 * i0 + 4 * _BLOCK_ELEMS) - i0) // 2))
        k = _kernel_values(spec, times[i0:i1], mids[:i1])
        k[:, i0:] *= tri[:i1 - i0, :i1 - i0]  # the corner right of the diagonal
        yield i0, k
        i0 = i1


# Largest over smallest t of the rows that share one set of far sums
_BAND_RATIO = 256.0


def _far_terms(spec: KernelSpec, s: np.ndarray, t: np.ndarray):
    """The 23 pairs (column factor of s, row factor of t) whose products sum
    to K(t, s) / (C_H tau^a) for s < t/2, s and t in units of tau.

    There K = C_H t^a [P(y) (2y)^-a + (2y)^a (d0 + d1 expm1(p log 2y))],
    y = s/t: P(y) (2y)^-a = sum_k 2^-a pi_k s^(k-a) t^(2a-k), the d0 term
    is 2^a d0 s^a, and the expm1 term is, below half, d1 2^(1-a) s^(1-a)
    t^(2a-1) - d1 2^a s^a and, above half, 2^a d1 p s^a (A + B + pAB) with
    A = expm1(p log 2s)/p and B = expm1(-p log t)/p.  The two powers lose
    eps/p as H -> 1, the A, B form e^(p |log t|) eps as H -> 0.
    """
    a = spec.hurst - 0.5
    p = 1 - 2 * a
    series = _series(spec.hurst)
    for k, c in enumerate(series.monomials):
        yield np.power(s, k - a), c * np.power(t, 2 * a - k)
    sa = np.power(s, a)
    if a < 0:
        yield np.power(s, 1 - a), series.d1 * 2**(1 - a) * np.power(t, 2 * a - 1)
        yield sa, np.full(t.shape, 2**a * (series.d0 - series.d1))
    else:
        dp = 2**a * series.d1 * p
        b = np.expm1(-p * np.log(t)) / p
        yield sa, 2**a * series.d0 + dp * b
        yield sa * (np.expm1(p * np.log(2 * s)) / p), dp * (1 + p * b)


# Rows per direct tile: row i evaluates its own _BAND-index column block
# and the one before it, at most 2 _BAND kernel values.
_BAND = 32

# Chebyshev nodes per interpolated column block.  A block at least its
# width from t and from 0 (the kernel's two singularities in s) is
# interpolated within about (3 + sqrt 8)^-20 = 5e-16 of its values.
_NODES = 20

# Rows per interpolated tile: a power of two, so a tile lies in one row
# block at every level, with _NODES columns in _BLOCK_ELEMS entries
_TILE = 1 << ((_BLOCK_ELEMS // _NODES).bit_length() - 1)


def _layout(times: np.ndarray, mids: np.ndarray):
    """The parts of the kernel matrix K, as indices only, in the order they
    are applied to x (n, S): row i adds columns split[i] <= j <= i in tiles
    and j < split[i] in far sums, every j <= i once.

    * ("tiles", ti, c0, keep, nodes): tile q, rows R ti[q] + [0, R), adds
      K(t_r, s_c) keep[q] @ z[c0[q] + [0, C)] over the columns of z, keep
      (Q, R, C); s and z are the mids and x, where keep is all true and
      the tile keeps columns j <= i, or the level's nodes and moments.
      Row i, in tile I of 32 rows, first takes columns 32 (I - 1) to i.
    * ("moments", b, nodes, half): column blocks J of width b, the nodes
      of each in s as a column and its half width.  At level b = 32, 64,
      ..., row block I = i // b takes column block I - 2, and I - 3 when I
      is odd, until a block ends at or below far[i], the count of mids
      below t_i / 2.  A block at least its width from t_i and from 0 whose
      _NODES Chebyshev nodes strictly decrease once rounded is interpolated
      there: the row adds K(t_i, nodes) @ moments, formed at levels with
      such a block.  Any other (row, block) pair is a one-row tile of mids,
      so every grid runs one path; on uniform grids every pair interpolates.
    * ("far", rows, ends, stops, tau): rows with split above 0 in a band of
      t spanning at most _BAND_RATIO, tau its largest t, grouped by split:
      rows[stops[g - 1]:stops[g]] split at ends[g], ends increasing.
    """
    n = len(times)
    size = -(-n // _TILE) * _TILE
    far = np.concatenate((np.minimum(np.searchsorted(mids, times / 2), np.arange(n)),
                          np.full(size - n, size)))
    split = _BAND * np.maximum(np.arange(size) // _BAND - 1, 0)
    ti = np.arange(-(-n // _BAND))
    yield "tiles", ti, _BAND * (ti - 1), np.broadcast_to(
        True, (len(ti), _BAND, 2 * _BAND)), None

    roots = np.cos(np.pi * np.arange(1, 2 * _NODES, 2) / (2 * _NODES))
    b = _BAND
    while 2 * b < n:
        s = mids[:n // b * b].reshape(-1, b)
        lo, hi = s[:, 0], s[:, -1]
        mid, half = (hi + lo)[:, None, None] / 2, (hi - lo)[:, None, None] / 2
        nodes = mid + half * roots[:, None]
        distinct = (np.diff(nodes, axis=1) < 0).all(axis=(1, 2))
        r = min(b, _TILE)
        starts = np.arange(0, n, r)
        block = starts // b
        level = []
        for off in (2, 3):
            pick = (block >= off) & ((off == 2) | (block % 2 == 1))
            i0, j = starts[pick], block[pick] - off
            i = i0[:, None] + np.arange(r)
            used = b * (j[:, None] + 1) > far[i]
            if not used.any():
                continue
            split[i[used]] = b * np.broadcast_to(j[:, None], i.shape)[used]
            width = (hi - lo)[j, None]
            fit = ((times.take(i, mode="clip") - hi[j, None] >= width)
                   & (lo[j, None] >= width) & distinct[j, None])
            keep = used & fit
            q = keep.any(axis=1)
            if q.any():
                level.append(("tiles", i0[q] // r, _NODES * j[q], np.broadcast_to(
                    keep[q, :, None], (q.sum(), r, _NODES)), nodes))
            rr, cc = np.nonzero(used & ~fit)
            if len(rr):
                level.append(("tiles", i[rr, cc], b * j[rr], np.broadcast_to(
                    True, (len(rr), 1, b)), None))
        if any(item[4] is nodes for item in level):
            yield "moments", b, nodes, half
        yield from level
        b *= 2

    hi = n
    while hi > 0:
        tau = times[hi - 1]
        lo = int(np.searchsorted(times, tau / _BAND_RATIO, "right"))
        rows = lo + np.flatnonzero(split[lo:hi])
        rows = rows[np.argsort(split[rows], kind="stable")]
        if len(rows):
            ends, counts = np.unique(split[rows], return_counts=True)
            yield "far", rows, ends, np.cumsum(counts), tau
        hi = lo


def _factor_bytes(items, n: int) -> int:
    """Bytes of the stored parts of an operator on :func:`_layout`'s
    ``items``, every array float64 or int64: tile indices and values, each
    level's Lagrange weights, far indices and factors, and n corrections."""
    count = n
    for kind, *item in items:
        if kind == "tiles":
            count += 2 * len(item[0]) + item[2].size
        elif kind == "moments":
            count += item[1].size * item[0]
        else:  # rows, ends, stops and _SERIES_DEGREE + 3 terms of _far_terms
            rows, ends = len(item[0]), len(item[1])
            count += rows + 2 * ends + (rows + item[1][-1]) * (_SERIES_DEGREE + 3)
    return 8 * count


def _lagrange(mids: np.ndarray, b: int, nodes: np.ndarray, half: np.ndarray):
    """L[J, q, j] = (w_q / (u_j - v_q)) / sum_k w_k / (u_j - v_k), w_q = 1 /
    prod_(k != q) (v_q - v_k): the Lagrange basis of block J's nodes v at
    its mids u, each difference in s over the half width; a mid on a node
    takes that node's unit column."""
    gap = (nodes - nodes.transpose(0, 2, 1)) / half
    gap[gap == 0.0] = 1.0  # the diagonal, and repeated nodes no tile reads
    d = mids[:len(nodes) * b].reshape(-1, 1, b) - nodes
    d /= half
    hit = d == 0.0  # a mid on node q: column j is e_q
    d += hit
    np.divide(1.0 / gap.prod(axis=2, keepdims=True), d, out=d)  # w_q / (u_j - v_q)
    d /= d.sum(axis=1, keepdims=True)
    np.copyto(d, hit, where=hit.any(axis=1, keepdims=True))
    return d


def _evaluated(spec: KernelSpec, times: np.ndarray, mids: np.ndarray, item: tuple):
    """The parts of one :func:`_layout` item with their numbers, tiles and
    far factors in chunks of at most _BLOCK_ELEMS numbers (or one tile or
    term): ("tiles", ti, c0, K(t, s) keep, whether on the moments); ("far",
    rows, ends, stops, sf, tf), the factors of :func:`_far_terms` with
    C_H tau^a in tf; ("moments", L), the :func:`_lagrange` weights.
    """
    kind, *item = item
    if kind == "tiles":
        ti, c0, keep, nodes = item
        points = mids if nodes is None else nodes.ravel()
        _, rows, cols = keep.shape
        per = max(1, _BLOCK_ELEMS // (rows * cols))
        r, c = np.arange(rows), np.arange(cols)
        for q in range(0, len(ti), per):
            i, cq = rows * ti[q:q + per, None] + r, c0[q:q + per, None] + c
            k = _kernel_values(spec, times.take(i, mode="clip")[:, :, None],
                               points.take(cq, mode="clip")[:, None, :])
            k *= keep[q:q + per] if nodes is not None else cq[:, None, :] <= i[:, :, None]
            k.transpose(0, 2, 1)[(cq < 0) | (cq >= len(points))] = 0.0
            yield kind, ti[q:q + per], c0[q:q + per], k, nodes is not None
    elif kind == "moments":
        yield kind, _lagrange(mids, *item)
    else:
        rows, ends, stops, tau = item
        scale = _unified_constant(spec) * (tau**spec.hurst / math.sqrt(tau))
        terms = _far_terms(spec, mids[:ends[-1]] / tau, times[rows] / tau)
        per = max(1, _BLOCK_ELEMS // (len(rows) + ends[-1]))
        while chunk := list(itertools.islice(terms, per)):
            sf, tf = zip(*chunk)
            yield kind, rows, ends, stops, np.array(sf), scale * np.array(tf)


def _kept(item: tuple, parts: list) -> tuple:
    """One item's stored part: the fields that differ between its chunks
    joined, a tile's row and column indices the item's own."""
    part = tuple(f[0] if all(g is f[0] for g in f) else np.concatenate(f)
                 for f in zip(*parts))
    return part[:1] + tuple(item[1:3]) + part[3:] if item[0] == "tiles" else part


def _apply(part: tuple, x: np.ndarray, out: np.ndarray, moments: np.ndarray) -> None:
    """Add one part's share of K @ x to out, x (n, S); a moments part
    fills ``moments`` for the tiles of its level.  The one product with
    kernel factors, stored and streamed alike; each gather holds at most
    _BLOCK_ELEMS entries of x or of the moments (or one tile's)."""
    kind, *args = part
    cols = x.shape[1]
    if kind == "tiles":
        ti, c0, values, on_moments = args
        src = moments if on_moments else x
        _, rows, width = values.shape
        per = max(1, _BLOCK_ELEMS // (width * cols))
        for q in range(0, len(ti), per):
            v = src.take(c0[q:q + per, None] + np.arange(width), axis=0, mode="clip")
            out.reshape(-1, rows, cols)[ti[q:q + per]] += values[q:q + per] @ v
    elif kind == "moments":
        (lagrange,) = args
        blocks, _, b = lagrange.shape
        z = lagrange @ x[:blocks * b].reshape(blocks, b, cols)
        moments[:_NODES * blocks] = z.reshape(-1, cols)
    else:
        rows, ends, stops, sf, tf = args
        acc, sums = np.zeros((len(sf), cols)), np.empty((len(rows), cols))
        e0 = r = 0
        for e, r1 in zip(ends.tolist(), stops.tolist()):
            acc += sf[:, e0:e] @ x[e0:e]
            np.matmul(tf[:, r:r1].T, acc, out=sums[r:r1])
            e0, r = e, r1
        out[rows] += sums


def _product(parts, x: np.ndarray) -> np.ndarray:
    """K @ x from ``parts`` in order, x (n,) or (n, S)."""
    x2 = x.reshape(len(x), -1)
    out = np.zeros((-(-len(x) // _TILE) * _TILE, x2.shape[1]))
    moments = np.empty((_NODES * (len(x) // _BAND), x2.shape[1]))
    for part in parts:
        _apply(part, x2, out, moments)
        del part  # a streamed part goes before the next is evaluated
    return out[:len(x)].reshape(x.shape)


def _streamed_product(spec: KernelSpec, grid: TimeGrid, x: np.ndarray) -> np.ndarray:
    """kernel_matrix(spec, grid) @ x, streamed: each item of the grid's
    :func:`_layout`, formed as it is reached, is evaluated, applied and
    dropped, O(n log n) kernel values in all.  The store keeps the grid's
    points as its most recently used entry, unless they alone exceed
    DENSE_BYTES_MAX.  K == 1 at H = 1/2: the product is the cumulative sum,
    and nothing is kept."""
    if spec.hurst == 0.5:
        return np.cumsum(x, axis=0)
    if grid in _DENSE:
        _DENSE.move_to_end(grid)
    elif grid.points.nbytes <= core.DENSE_BYTES_MAX:
        _make_room(grid.points.nbytes)
        _DENSE[grid] = grid.points  # read-only already
    times, mids = grid.points[1:], grid.midpoints
    return _product(itertools.chain.from_iterable(
        _evaluated(spec, times, mids, item) for item in _layout(times, mids)), x)


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


def _singular_factor(spec: KernelSpec, t, m: np.ndarray) -> np.ndarray:
    """a = c_H (t/m)^(H-1/2), formed as q^H / sqrt(q), of the split K(t, s) =
    a (t-s)^(H-1/2) + r below half on the last cell, midpoint m."""
    q = t / m
    return spec.c_h * (np.power(q, spec.hurst) / np.sqrt(q))


def _cell_correction(spec: KernelSpec, t: np.ndarray, m: np.ndarray,
                     delta: np.ndarray) -> np.ndarray:
    """Singular-cell weight minus K(t, m) delta per grid point t, m and delta
    its last cell's midpoint and width, zero unless H < 1/2: r and K(t, m)
    cancel at t - m = delta/2, leaving a delta^(H+1/2) c(H).  c(H) =
    1/(H+1/2) - 2^(1/2-H) is formed as (x 2^x - expm1(x log 2)) / (1 - x),
    x = 1/2 - H, two terms about 0.31 x apart: no eps/x loss as H -> 1/2.
    Elementwise: a slice of the points gives that slice, bit for bit."""
    if spec.hurst >= 0.5:
        return np.zeros(t.shape)
    x = 0.5 - spec.hurst
    c = (x * 2**x - math.expm1(x * math.log(2))) / (1 - x)
    a = _singular_factor(spec, t, m)
    return a * (np.power(delta, spec.hurst) * np.sqrt(delta)) * c


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
    builds a new array from :func:`_row_blocks`, never from the store.
    Raises :class:`DenseSizeError` when M alone exceeds DENSE_BYTES_MAX.
    """
    n = grid.n_cells
    _check_dense(n, 1)
    out = np.zeros((n, n))
    for i0, k in _row_blocks(spec, grid):
        out[i0:i0 + len(k), :k.shape[1]] = k
    return out


def _kernel_operator(spec: KernelSpec, grid: TimeGrid) -> tuple:
    """The store's entry for (spec, grid): the read-only parts of the kernel
    matrix, one per :func:`_layout` item, evaluated once per build, and its
    last-cell correction.  A hit becomes the most recently used entry.  A
    miss checks the parts' bytes, then makes the grid's entry, if held, the
    most recently used, and least recently used entries go until the parts
    fit."""
    key = (spec, grid)
    if key in _DENSE:
        _DENSE.move_to_end(key)
        return _DENSE[key]
    times, mids, n = grid.points[1:], grid.midpoints, grid.n_cells
    items = list(_layout(times, mids))
    need = _check_bytes(_factor_bytes(items, n), f"kernel factors of {n} cells")
    if grid in _DENSE:
        _DENSE.move_to_end(grid)
    _make_room(need)
    items.reverse()  # popped in order: each item goes once its part is kept
    parts = []
    while items:
        item = items.pop()
        parts.append(_kept(item, list(_evaluated(spec, times, mids, item))))
    _DENSE[key] = entry = _frozen((tuple(parts), _cell_correction(
        spec, times, mids, grid.widths)))
    return entry


def _kernel_product(spec: KernelSpec, grid: TimeGrid, x: np.ndarray) -> np.ndarray:
    """kernel_matrix(spec, grid) @ x, x (n,) or (n, S): the stored (spec, grid)
    operator's, built on first use, when the store holds it or has seen the
    grid, else (or when :func:`_kernel_operator` refuses it) streamed."""
    if spec.hurst != 0.5 and ((spec, grid) in _DENSE or grid in _DENSE):
        with contextlib.suppress(DenseSizeError):  # over the budget alone: stream
            return _product(_kernel_operator(spec, grid)[0], x)
    return _streamed_product(spec, grid, x)


def weight_matrix(spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """Stacked kernel_weights rows: W[i, j] weights f(m_j) for t_{i+1}.

    Each call returns a new array built from :func:`kernel_matrix`; the
    library applies W through :func:`_kernel_integral` instead.  Raises
    :class:`DenseSizeError` like :func:`kernel_matrix`.
    """
    out = kernel_matrix(spec, grid)
    out *= grid.widths
    out[np.diag_indices(grid.n_cells)] += _cell_correction(
        spec, grid.points[1:], grid.midpoints, grid.widths)
    return out


def _kernel_integral(spec: KernelSpec, grid: TimeGrid, f: np.ndarray):
    """weight_matrix(spec, grid) @ f without forming it; f is (n,) or (n, S)."""
    col = (-1,) + (1,) * (f.ndim - 1)
    out = _kernel_product(spec, grid, grid.widths.reshape(col) * f)
    if spec.hurst != 0.5:
        held = _DENSE.get((spec, grid))  # held exactly when the product applied it
        corr = held[1] if held else _cell_correction(
            spec, grid.points[1:], grid.midpoints, grid.widths)
        out += corr.reshape(col) * f
    return out


def verify_covariance_identity(spec: KernelSpec, s: float, t: float, n: int) -> float:
    """Relative residual of int_0^(s^t) K(t,u) K(s,u) du against R(t,s).

    Applies the kernel_weights of n uniform cells on [0, min(s,t)] to
    K(max(s,t), .) at their midpoints, with the squared singular cell
    exact at s = t; the residual shrinks as n grows, which is the numerical
    witness that the kernels really reproduce the fBm covariance.
    """
    if spec.hurst == 0.5:
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
    if hi == lo and spec.hurst < 0.5:
        # int_0^delta (a x^(H-1/2) + r)^2 dx, the last cell's split squared
        h = spec.hurst
        delta, m = grid.widths[-1:], nodes[-1:]
        a = _singular_factor(spec, lo, m)
        r = k_hi[-1:] - a * (lo - m) ** (h - 0.5)
        terms[-1:] = (a * a * delta ** (2 * h) / (2 * h)
                      + 2 * a * r * delta ** (h + 0.5) / (h + 0.5) + r * r * delta)
    quad = float(terms.sum())
    target = fbm_covariance(spec.hurst, s, t)
    return abs(quad - target) / target
