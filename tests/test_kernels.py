import dataclasses
import math
import tracemalloc
from collections import OrderedDict
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate, special

from fraclangevin import (DenseSizeError, KernelSpec, NoiseStream, TimeGrid,
                          fbm_covariance, kernel_matrix,
                          kernel_value, kernel_weights, make_kernel_spec,
                          sample_fbm_exact, uniform_grid,
                          verify_covariance_identity, weight_matrix)
from fraclangevin import kernels
from fraclangevin.kernels import (SERIES_TOL, _beta, _cell_correction,
                                  _kernel_integral, _kernel_operator,
                                  _kernel_product, _kernel_values,
                                  _row_blocks, _series, _singular_cell,
                                  _stored_product)

# High-precision reference values (mpmath, 30 digits).  Kernel points come
# from the exact closed form of the inner integral,
#   int_0^d w^b (w+s)^g dw = s^g d^(b+1)/(b+1) * 2F1(-g, b+1; b+2; -d/s),
# cross-checked against an independent 400-node Gauss-Jacobi rule
# (agreement <= 1.2e-10 over the table).
BETA_HALF_QUARTER = 5.24411510858423962      # beta(1/2, 1/4)
C_ABOVE_075 = 0.267411158757997581           # normalizing constant, H = 3/4
C_BELOW_025 = 0.645998003740751968           # normalizing constant, H = 1/4
KERNEL_DT_075 = 0.534822317515995162         # dK/dt at H=3/4, t=1, s=1/2
# int_0^1 K_H(1,s) ds, via Fubini: c_H * beta(3/2-H, H -/+ 1/2) / (H + 1/2)
KERNEL_MASS = {0.7: 0.972582966122813, 0.3: 0.9758034468368645}

KERNEL_GOLDEN = [
    (0.05, 1.0, 0.5, 0.42490274150742886),
    (0.05, 1.0, 0.01, 1.6789567560081762),
    (0.05, 1.0, 0.99, 1.9031358655787505),
    (0.05, 1.0, 0.0001, 13.218140323161569),
    (0.05, 1.0, 0.9999, 15.061831908833978),
    (0.05, 2.0, 0.6, 0.32829855317615957),
    (0.05, 0.25, 0.15, 0.81627982817705279),
    (0.25, 1.0, 0.5, 0.82032262376475282),
    (0.25, 1.0, 0.01, 1.3263651823835308),
    (0.25, 1.0, 0.99, 2.0445399752867716),
    (0.25, 1.0, 0.0001, 3.9022822453104052),
    (0.25, 1.0, 0.9999, 6.4600338745163516),
    (0.25, 2.0, 0.6, 0.67251926039174418),
    (0.25, 0.25, 0.15, 1.2038119126025373),
    (0.3, 1.0, 0.5, 0.87301411433866804),
    (0.3, 1.0, 0.01, 1.1777492116859151),
    (0.3, 1.0, 0.99, 1.8353117680618568),
    (0.3, 1.0, 0.0001, 2.6498437966382427),
    (0.3, 1.0, 0.9999, 4.6077968486215178),
    (0.3, 2.0, 0.6, 0.73696713595301889),
    (0.3, 0.25, 0.15, 1.1907064221450729),
    (0.45, 1.0, 0.5, 0.9803515675198272),
    (0.45, 1.0, 0.01, 0.9751875212204745),
    (0.45, 1.0, 0.99, 1.189615387525288),
    (0.45, 1.0, 0.0001, 1.0528798746596145),
    (0.45, 1.0, 0.9999, 1.4975977295891441),
    (0.45, 2.0, 0.6, 0.93307669971412612),
    (0.45, 0.25, 0.15, 1.0618305568856419),
    (0.49, 1.0, 0.5, 0.9967550850775888),
    (0.49, 1.0, 0.01, 0.99110093804171506),
    (0.49, 1.0, 0.99, 1.0364361539218166),
    (0.49, 1.0, 0.0001, 0.99416717054847959),
    (0.49, 1.0, 0.9999, 1.0852807914479269),
    (0.49, 2.0, 0.6, 0.98662367518410117),
    (0.49, 0.25, 0.15, 1.0129022318766307),
    (0.51, 1.0, 0.5, 1.0028897926744386),
    (0.51, 1.0, 0.01, 1.0109065719086176),
    (0.51, 1.0, 0.99, 0.96433637545653795),
    (0.51, 1.0, 0.0001, 1.0142207051832949),
    (0.51, 1.0, 0.9999, 0.92093317938906238),
    (0.51, 2.0, 0.6, 1.0133486744521613),
    (0.51, 0.25, 0.15, 0.98685435119206731),
    (0.55, 1.0, 0.5, 1.0107434117225492),
    (0.55, 1.0, 0.01, 1.0750059476563274),
    (0.55, 1.0, 0.99, 0.82956267511557947),
    (0.55, 1.0, 0.0001, 1.1598640567399294),
    (0.55, 1.0, 0.9999, 0.65892940372703933),
    (0.55, 2.0, 0.6, 1.0661658366834953),
    (0.55, 0.25, 0.15, 0.93205155182053521),
    (0.7, 1.0, 0.5, 0.97714049739361679),
    (0.7, 1.0, 0.01, 1.6191536283041703),
    (0.7, 1.0, 0.99, 0.43480307185776932),
    (0.7, 1.0, 0.0001, 3.5458547189842188),
    (0.7, 1.0, 0.9999, 0.17304066274586145),
    (0.7, 2.0, 0.6, 1.2332835802956348),
    (0.7, 0.25, 0.15, 0.70242342084471491),
    (0.75, 1.0, 0.5, 0.93759196369805723),
    (0.75, 1.0, 0.01, 1.9002636567241492),
    (0.75, 1.0, 0.99, 0.33842180933438959),
    (0.75, 1.0, 0.0001, 5.4179387916142746),
    (0.75, 1.0, 0.9999, 0.10696499836785727),
    (0.75, 2.0, 0.6, 1.2626927233020312),
    (0.75, 0.25, 0.15, 0.61933194342653269),
    (0.95, 1.0, 0.5, 0.49611002158102161),
    (0.95, 1.0, 0.01, 2.4769652101367052),
    (0.95, 1.0, 0.99, 0.076106402411869837),
    (0.95, 1.0, 0.0001, 19.060470387172496),
    (0.95, 1.0, 0.9999, 0.0095678873051086058),
    (0.95, 2.0, 0.6, 0.88081520688892051),
    (0.95, 0.25, 0.15, 0.23237626492616815),
]


def beta_integral_oracle(a, b):
    """Independent Beta oracle: integrate x^(a-1)(1-x)^(b-1) after the
    substitutions x = u^(1/a) (left half) and 1-x = u^(1/b) (right half),
    which remove both endpoint singularities."""
    left, _ = integrate.quad(lambda u: (1 - u ** (1 / a)) ** (b - 1) / a,
                             0.0, 0.5**a, epsabs=1e-13, epsrel=1e-13)
    right, _ = integrate.quad(lambda u: (1 - u ** (1 / b)) ** (a - 1) / b,
                              0.0, 0.5**b, epsabs=1e-13, epsrel=1e-13)
    return left + right


def quad_kernel_oracle(hurst, t, s):
    """scipy adaptive quadrature of the raw inner integral using the
    algebraic-endpoint weight, fully independent of the package's
    hypergeometric series."""
    d = t - s
    if hurst > 0.5:
        inner, _ = integrate.quad(lambda w: (w + s) ** (hurst - 0.5), 0.0, d,
                                  weight="alg", wvar=(hurst - 1.5, 0.0))
        c = math.sqrt(hurst * (2 * hurst - 1) / beta_integral_oracle(2 - 2 * hurst, hurst - 0.5))
        return c * s ** (0.5 - hurst) * inner
    inner, _ = integrate.quad(lambda w: (w + s) ** (hurst - 1.5), 0.0, d,
                              weight="alg", wvar=(hurst - 0.5, 0.0))
    c = math.sqrt(2 * hurst / ((1 - 2 * hurst) * beta_integral_oracle(1 - 2 * hurst, hurst + 0.5)))
    first = (t / s) ** (hurst - 0.5) * d ** (hurst - 0.5)
    return c * (first - (hurst - 0.5) * s ** (0.5 - hurst) * inner)


# ---------------------------------------------------------------------------
# beta function
# ---------------------------------------------------------------------------


def test_beta_trivial():
    assert _beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_beta_symmetry():
    assert _beta(0.5, 0.25) == pytest.approx(_beta(0.25, 0.5), rel=1e-14)


def test_beta_against_integral_oracle():
    for a, b in [(0.5, 0.25), (0.9, 1.7), (0.05, 0.4), (2.0, 3.0)]:
        assert _beta(a, b) == pytest.approx(beta_integral_oracle(a, b), rel=1e-10)
    assert _beta(0.5, 0.25) == pytest.approx(BETA_HALF_QUARTER, rel=1e-12)


# ---------------------------------------------------------------------------
# kernel spec
# ---------------------------------------------------------------------------


def test_spec_regimes_and_constants():
    above = make_kernel_spec(0.75)
    assert above.c_h == pytest.approx(C_ABOVE_075, rel=1e-12)
    below = make_kernel_spec(0.25)
    assert below.c_h == pytest.approx(C_BELOW_025, rel=1e-12)
    std = make_kernel_spec(0.5)
    assert std.c_h is None


def test_spec_keeps_hurst_near_half():
    # only H = 1/2 itself is plain Brownian motion
    steps = (1e-5, 1e-6, 1e-7, 1e-13)
    above = [0.5 + d for d in steps] + [np.nextafter(0.5, 1)]
    below = [0.5 - d for d in steps] + [np.nextafter(0.5, 0)]
    for h in above + below:
        spec = make_kernel_spec(h)
        assert spec.hurst == h and spec.c_h > 0
    assert make_kernel_spec(0.5).c_h is None


# (H, stored H, c_h); H near 1/2 is stored as given
SPEC_FIELDS = [
    (1e-3, 1e-3, 0.03166659342762825),
    (0.1, 0.1, 0.3576857734223353),
    (0.3, 0.3, 0.7302829340799232),
    (0.5 - 2e-6, 0.5 - 2e-6, 0.9999979999914198),
    (0.5 + 2e-6, 0.5 + 2e-6, 2.00000399992933e-06),
    (0.5 - 5e-7, 0.5 - 5e-7, 0.999999499999464),
    (0.5 + 5e-7, 0.5 + 5e-7, 5.000002499585987e-07),
    (0.5, 0.5, None),
    (0.7, 0.7, 0.21836182617678243),
    (0.9, 0.9, 0.32448825925734104),
    (1 - 1e-8, 1 - 1e-8, 0.00014142135251077716),
]


@pytest.mark.parametrize("hurst, stored, c_h", SPEC_FIELDS)
def test_spec_is_built_from_hurst_alone(hurst, stored, c_h):
    spec = KernelSpec(hurst)
    assert (spec.hurst, spec.c_h) == (stored, c_h)
    assert make_kernel_spec(hurst) == spec
    assert hash(make_kernel_spec(hurst)) == hash(spec)
    assert repr(spec) == f"KernelSpec(hurst={stored!r}, c_h={c_h!r})"


def test_spec_takes_only_the_hurst_index():
    assert [f.name for f in dataclasses.fields(KernelSpec) if f.init] == ["hurst"]
    with pytest.raises(TypeError):
        KernelSpec(0.3, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        KernelSpec(0.3).c_h = 1.0


@pytest.mark.parametrize("hurst", [0.0, 1.0, -0.2, 1.7])
def test_spec_rejects_out_of_range(hurst):
    with pytest.raises(ValueError):
        make_kernel_spec(hurst)
    with pytest.raises(ValueError, match="Hurst index"):
        KernelSpec(hurst)


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------


def test_kernel_standard_is_one():
    spec = make_kernel_spec(0.5)
    for t, s in [(1.0, 0.5), (2.0, 1.9), (0.1, 0.005)]:
        assert kernel_value(spec, t, s) == 1.0


def test_kernel_vanishes_as_s_approaches_t_above_half():
    spec = make_kernel_spec(0.75)
    vals = [kernel_value(spec, 1.0, 1.0 - eps) for eps in (1e-2, 1e-4, 1e-8)]
    assert vals[0] > vals[1] > vals[2] > 0
    assert vals[2] < 0.02


def test_kernel_golden_table():
    for hurst, t, s, ref in KERNEL_GOLDEN:
        spec = make_kernel_spec(hurst)
        assert kernel_value(spec, t, s) == pytest.approx(ref, rel=1e-6), (hurst, t, s)


def mpmath_kernel(hurst, t, s):
    """Decreusefond-Ustunel at 40 digits, in their untransformed form:
    C_H (t-s)^(H-1/2) 2F1(H-1/2, 1/2-H; H+1/2; 1-t/s), at the exact floats."""
    with mpmath.workdps(40):
        h, t, s = mpmath.mpf(hurst), mpmath.mpf(t), mpmath.mpf(s)
        c = mpmath.sqrt(2 * h * mpmath.gamma(1.5 - h) * mpmath.gamma(h + 0.5)
                        / mpmath.gamma(2 - 2 * h)) / mpmath.gamma(h + 0.5)
        return float(c * (t - s) ** (h - 0.5)
                     * mpmath.hyp2f1(h - 0.5, 0.5 - h, h + 0.5, 1 - t / s))


@pytest.mark.parametrize("hurst", [0.01, 0.1, 0.3, 0.45, 0.499998, 0.500002,
                                   0.5 - 1e-7, 0.5 + 1e-7, 0.5 - 1e-13, 0.5 + 1e-13,
                                   np.nextafter(0.5, 0), np.nextafter(0.5, 1),
                                   0.51, 0.7, 0.99, 1 - 1e-6, 1 - 1e-8])
def test_kernel_value_matches_mpmath(hurst):
    # s/t on log sweeps toward both ends: 1e-14 ... 1/2 ... 1 - 1e-14
    near_zero = np.logspace(-14, np.log10(0.5), 15)
    ratios = np.concatenate((near_zero, 1.0 - near_zero[-2::-1]))
    spec = make_kernel_spec(hurst)
    assert spec.hurst == hurst  # the kernel of H itself, even next to 1/2
    for t in (1.0, 0.3, 1e200):
        for s in ratios * t:
            ref = mpmath_kernel(hurst, t, s)
            assert abs(kernel_value(spec, t, s) / ref - 1) <= 1e-13, (t, s)


@pytest.mark.parametrize("hurst", [0.001, 0.01, 0.1, 0.2, 0.3, 0.45, 0.499998,
                                   0.500002, 0.55, 0.7, 0.9, 0.99, 1 - 1e-6,
                                   1 - 1e-8])
def test_far_kernel_value_matches_mpmath_down_to_1e_300(hurst):
    # the far branch, s < t/2, down to the s/t of graded grids: an
    # exponent rounded from H - 1/2 costs |log 2y| ulps there
    spec = make_kernel_spec(hurst)
    for t in (1.0, 0.3, 1e200):
        for s in np.logspace(-300, np.log10(0.49), 16) * t:
            ref = mpmath_kernel(hurst, t, s)
            assert abs(kernel_value(spec, t, s) / ref - 1) <= 5e-15, (t, s)


def test_kernel_against_runtime_quadrature_oracle():
    for hurst, t, s in [(0.7, 1.0, 0.5), (0.75, 1.0, 0.5), (0.3, 1.0, 0.25),
                        (0.25, 2.0, 1.3), (0.9, 0.5, 0.04)]:
        spec = make_kernel_spec(hurst)
        assert kernel_value(spec, t, s) == pytest.approx(
            quad_kernel_oracle(hurst, t, s), rel=1e-6)


def prefix_grid(grid, k):
    """The grid's points t_0..t_k: its kernel weights are for t = t_k."""
    return TimeGrid(grid.points[:k + 1])


def hypergeometric_kernel(hurst, t, s):
    """Closed form above half (Decreusefond-Ustunel):
    c_H (t-s)^(H-1/2) / (H-1/2) * 2F1(1/2-H, H-1/2; H+1/2; -(t-s)/s)."""
    c = make_kernel_spec(hurst).c_h
    d = t - s
    return (c * d ** (hurst - 0.5) / (hurst - 0.5)
            * special.hyp2f1(0.5 - hurst, hurst - 0.5, hurst + 0.5, -d / s))


@pytest.mark.parametrize("hurst", [0.500002, 0.501, 0.51, 0.52, 0.53, 0.55,
                                   0.6, 0.7, 0.75, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("t", [1.0, 0.375])
def test_kernel_rows_match_hypergeometric_closed_form(hurst, t):
    # s/t >= 1/(2 * 8192) on these rows
    grid = prefix_grid(uniform_grid(1.0, 8192), round(8192 * t))
    kvals = kernel_weights(make_kernel_spec(hurst), grid) / grid.widths
    ref = hypergeometric_kernel(hurst, t, grid.midpoints)
    assert np.max(np.abs(kvals / ref - 1)) <= 1e-8


def series60_kernel(spec, t, s):
    """K(t, s) for a row s < t from the 60-term 2F1 sums themselves, as
    the library evaluated it before economizing: in x = (t-s)/t for
    s/t >= 1/2, below as the rescaled value at s/t = 1/2 plus the
    binomial series of the integral to s/t."""
    a = spec.hurst - 0.5
    c_h = spec.c_h / a if a > 0 else spec.c_h
    k = np.arange(59)
    near = np.cumprod(np.concatenate(([1.0], (k - a) / (k + a + 1))))
    binom = np.cumprod(np.concatenate(([1.0], (k + 1 - a) / (k + 1))))
    far = binom / (np.arange(60) - 2 * a)
    far[:2] = 0.0
    g = (2**a * np.polynomial.polynomial.polyval(0.5, near)
         + a * 4**a * np.polynomial.polynomial.polyval(0.5, far))
    x, y = (t - s) / t, s / t
    lg = np.log(2 * y)
    m, p = np.expm1(-2 * a * lg), 1 - 2 * a
    direct = (t * (t - s) / s) ** a * np.polynomial.polynomial.polyval(x, near)
    connected = s**a * (g + 4**a * (m / 2 - a * (1 + m)
                                    * np.polynomial.polynomial.polyval(y, far))
                        - a * (1 - a) * 2**-p * np.expm1(p * lg) / p)
    return c_h * np.where(x <= 0.5, direct, connected)


def series_kernel_matrix(spec, grid):
    """The row-by-row construction from the 60-term series alone."""
    n = grid.n_cells
    out = np.zeros((n, n))
    for i in range(n):
        out[i, : i + 1] = series60_kernel(spec, float(grid.points[i + 1]),
                                          grid.midpoints[: i + 1])
    return out


def max_rel_dev(a, b):
    return float(np.max(np.abs(a / b - 1)))


@pytest.mark.parametrize("hurst", [0.01, 0.05, 0.1, 0.3, 0.45, 0.49, 0.499998,
                                   0.500002, 0.51, 0.7, 0.95, 0.99, 1 - 1e-6,
                                   1 - 1e-8])
def test_kernel_matrix_matches_60_term_series(hurst):
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(1.0, 1024)
    kmat = kernel_matrix(spec, grid)
    ref = series_kernel_matrix(spec, grid)
    lower = np.tril_indices(grid.n_cells)
    assert max_rel_dev(kmat[lower], ref[lower]) <= 1e-11
    assert not np.triu(kmat, 1).any()


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_kernel_matrix_at_cells_near_both_ends(hurst):
    # cells 1e-15 wide at both ends: s/t and (t-s)/t fall below 2^-41
    inner = np.linspace(0.0, 1.0, 65)[1:-1]
    grid = TimeGrid(np.concatenate(([0.0, 1e-15], inner, [1.0 - 1e-15, 1.0])))
    spec = make_kernel_spec(hurst)
    kmat = kernel_matrix(spec, grid)
    ref = series_kernel_matrix(spec, grid)
    lower = np.tril_indices(grid.n_cells)
    assert max_rel_dev(kmat[lower], ref[lower]) <= 1e-11
    assert not np.triu(kmat, 1).any()


@pytest.mark.parametrize("hurst", [0.001, 0.01, 0.1, 0.3, 0.45, 0.499998,
                                   0.500002, 0.51, 0.7, 0.99, 1 - 1e-6, 1 - 1e-8])
def test_economized_series_matches_60_term_sums(hurst):
    # degree 20 in place of 60 terms moves no value by more than 1e-14
    near_zero = np.logspace(-14, np.log10(0.5), 40)
    ratios = np.concatenate((near_zero, 1.0 - near_zero[-2::-1]))
    spec = make_kernel_spec(hurst)
    for t in (1.0, 0.3):
        ref = series60_kernel(spec, t, ratios * t)
        assert max_rel_dev(_kernel_values(spec, t, ratios * t), ref) <= 1e-14


# kernel_matrix(make_kernel_spec(H), uniform_grid(1.0, 1024))[i, j] as the
# 82-panel Chebyshev profile gave it, before the economized series replaced
# it: the entries that moved most, then the corner and the last diagonal one
PROFILE_KERNEL_MATRIX = [
    (0.001, 952, 0, 1.418627300090175),
    (0.001, 662, 0, 1.4187927348108844),
    (0.001, 1023, 0, 1.418601069266978),
    (0.001, 1023, 1023, 1.4225266540812562),
    (0.3, 1015, 0, 1.9672713823667287),
    (0.3, 507, 0, 1.9927640527350896),
    (0.3, 1023, 0, 1.9670215296019278),
    (0.3, 1023, 1023, 3.3555811709531436),
    (0.7, 737, 664, 0.6470020362446723),
    (0.7, 727, 649, 0.6557873041504819),
    (0.7, 1023, 0, 2.647201087027726),
    (0.7, 1023, 1023, 0.237622632445613),
    (0.99999999, 421, 375, 6.149465558351131e-05),
    (0.99999999, 584, 520, 7.242633902273662e-05),
    (0.99999999, 1023, 0, 0.006412515951175131),
    (0.99999999, 1023, 1023, 6.250509274359579e-06),
]


def test_kernel_matrix_moved_from_profile_within_bound():
    grid = uniform_grid(1.0, 1024)
    for hurst, i, j, old in PROFILE_KERNEL_MATRIX:
        new = kernel_matrix(make_kernel_spec(hurst), grid)[i, j]
        assert abs(new / old - 1) <= 2.5e-13, (hurst, i, j)
        if hurst >= 0.3:
            assert abs(new / old - 1) <= 2e-14, (hurst, i, j)


@pytest.mark.parametrize("hurst", [0.05, 0.3, 0.45, 0.499, 0.5, 0.501, 0.7, 0.9])
def test_cell_correction_of_a_slice_is_the_slice_of_all(hurst):
    # kernel_weights corrects only the last point; the operator, all of them
    spec = KernelSpec(hurst)
    rng = np.random.default_rng(12)
    random = TimeGrid(np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, 300)))))
    for grid in (uniform_grid(1.0, 1024), uniform_grid(2.7, 17), random):
        t, m, delta = grid.points[1:], grid.midpoints, grid.widths
        full = _cell_correction(spec, t, m, delta)
        assert full.any() == (hurst < 0.5)
        for part in (slice(-1, None), slice(0, 1), slice(5, 9), slice(None)):
            got = _cell_correction(spec, t[part], m[part], delta[part])
            assert np.array_equal(got.view(np.int64), full[part].view(np.int64))


@pytest.mark.parametrize("hurst", [0.01, 0.3, 0.7, 0.99, 1 - 1e-6, 1 - 1e-8])
def test_series_records_its_deviation(hurst):
    # the economized series records its dropped Chebyshev tail
    series = _series(make_kernel_spec(hurst).hurst)
    assert 0.0 < series.deviation <= SERIES_TOL


def test_series_over_tolerance_raises(monkeypatch):
    monkeypatch.setattr(kernels, "SERIES_TOL", 1e-18)
    with pytest.raises(ArithmeticError, match="deviates"):
        _series.__wrapped__(make_kernel_spec(0.3).hurst)


@given(st.floats(min_value=0.01, max_value=0.99).filter(
           lambda h: abs(h - 0.5) > 1e-5),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.01, max_value=100.0),
       st.integers(min_value=1, max_value=300))
def test_kernel_rows_homogeneous(hurst, t, c, n):
    spec = make_kernel_spec(hurst)
    mids = uniform_grid(t, n).midpoints
    scaled = _kernel_values(spec, c * t, c * mids)
    row = _kernel_values(spec, t, mids)
    assert max_rel_dev(scaled, c ** (hurst - 0.5) * row) <= 1e-12


def test_dense_operators_refuse_oversized_grids():
    grid = uniform_grid(1.0, 20000)  # 3.2 GB per dense matrix
    spec = make_kernel_spec(0.3)
    for build in (kernel_matrix, weight_matrix):
        with pytest.raises(DenseSizeError, match="20000x20000"):
            build(spec, grid)


def factor_bytes(spec, grid):
    """The bytes the store checks before it builds (spec, grid)."""
    items = list(kernels._layout(grid.points[1:], grid.midpoints))
    return kernels._factor_bytes(items, grid.n_cells)


def test_dense_store_is_bounded_by_bytes(monkeypatch):
    # a fresh store with room for three n = 64 kernel operators' factors;
    # the exact sampler's Cholesky build on a non-uniform grid holds three
    # dense matrices at once, within the same budget, and keeps nothing
    n = 64
    grid = uniform_grid(1.0, n)
    budget = 3 * factor_bytes(make_kernel_spec(0.3), grid)
    assert 3 * 8 * n * n <= budget < 3 * 8 * 65 * 65
    monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
    monkeypatch.setattr(kernels, "DENSE_BYTES_MAX", budget)

    def moved(m):
        # one point moved by 1e-9 T: a grid the exact sampler factorizes
        points = uniform_grid(1.0, m).points.copy()
        points[m // 2] += 1e-9
        return TimeGrid(points)

    def kmat(h):
        # the stored entry, whose factors kernel_matrix never reads
        out = kernels._kernel_operator(make_kernel_spec(h), grid)
        assert kernels._dense_held() <= budget
        return out

    def kept():
        return [spec.hurst for spec, _ in kernels._DENSE]

    k3, k7 = kmat(0.3), kmat(0.7)
    assert kmat(0.3) is k3  # a hit, now the most recently used
    k4 = kmat(0.4)
    assert kept() == [0.7, 0.3, 0.4]
    kmat(0.6)  # no room: the least recently used, H = 0.7, goes
    assert kept() == [0.3, 0.4, 0.6]
    sample_fbm_exact(0.7, moved(n), NoiseStream(1))  # factorized per call
    assert kept() == [0.3, 0.4, 0.6]
    again = kmat(0.7)  # evicted, rebuilt bit for bit
    assert again is not k7
    for a, b in zip(kernels._arrays(*again), kernels._arrays(*k7), strict=True):
        assert np.array_equal(a, b) and not a.flags.writeable
    assert kept() == [0.4, 0.6, 0.7]
    assert all(a is b for a, b in zip(kernels._arrays(*kmat(0.4)), kernels._arrays(*k4)))
    assert kept() == [0.6, 0.7, 0.4]
    kmat(0.3)
    assert kept() == [0.7, 0.4, 0.3]

    # one build over the budget is refused and evicts nothing
    with pytest.raises(DenseSizeError, match="kernel factors of 112 cells"):
        kernels._kernel_operator(make_kernel_spec(0.3), uniform_grid(1.0, 112))
    with pytest.raises(DenseSizeError, match="1 dense 112x112"):
        kernel_matrix(make_kernel_spec(0.3), uniform_grid(1.0, 112))
    with pytest.raises(DenseSizeError, match="3 dense 65x65"):
        sample_fbm_exact(0.7, moved(65), NoiseStream(1))
    assert kept() == [0.7, 0.4, 0.3]


def blocks_kernel_matrix(spec, grid):
    """The dense kernel matrix from one _kernel_values call over the whole
    grid, its strict upper triangle zeroed: no row blocks, no factors."""
    values = _kernel_values(spec, grid.points[1:, None], grid.midpoints)
    return values * np.tri(grid.n_cells)


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1537, 2048, 2500])
@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_stored_product_matches_dense_product(hurst, n, monkeypatch):
    # the stored product against the one-call dense matrix, which
    # kernel_matrix reproduces bit for bit
    monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(1.0, n)
    ref = blocks_kernel_matrix(spec, grid)
    assert np.array_equal(kernel_matrix(spec, grid), ref)
    rng = np.random.default_rng(n)
    for shape in [(n,), (n, 4)]:
        x = rng.standard_normal(shape)
        got = _stored_product(spec, grid, x)
        assert got.shape == shape
        assert np.all(np.abs(got - ref @ x) <= 1e-13 * (np.abs(ref) @ np.abs(x)))
    assert all(not a.flags.writeable for a in kernels._arrays(*_kernel_operator(spec, grid)))


@pytest.mark.parametrize("hurst", [0.01, 0.3, 0.7, 0.99])
def test_factor_bytes_are_checked_before_the_build(hurst, monkeypatch):
    # the bytes counted from the layout alone are the bytes then held, on
    # grids with evaluated pairs and several bands of far sums
    spec = make_kernel_spec(hurst)
    rng = np.random.default_rng(7)
    uneven = np.cumsum(rng.uniform(0.01, 1.0, 700))
    grids = [uniform_grid(1.0, n) for n in (1, 33, 64, 65, 1000, 2048)]
    grids += [TimeGrid(np.concatenate(([0.0], points))) for points in
              (uneven / uneven[-1], np.geomspace(1e-200, 1.0, 400))]
    for grid in grids:
        monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
        need = factor_bytes(spec, grid)
        _kernel_operator(spec, grid)
        assert kernels._dense_held() == need


def test_kernel_operator_holds_factors_not_a_dense_matrix(monkeypatch):
    # one n = 2048 operator and its build hold at most 8 MiB, a quarter of
    # the dense matrix
    monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
    n = 2048
    grid = uniform_grid(1.0, n)
    spec = make_kernel_spec(0.3)
    _series(spec.hurst)
    tracemalloc.start()
    try:
        _kernel_operator(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernels._dense_held() <= 8 * 2**20
    assert peak < 8 * 2**20


def test_store_budget_caps_kernel_factors_and_cholesky_builds():
    # budget arithmetic only: nothing of these sizes is allocated
    spec = make_kernel_spec(0.3)
    assert factor_bytes(spec, uniform_grid(1.0, 211840)) <= kernels.DENSE_BYTES_MAX
    with pytest.raises(DenseSizeError, match="kernel factors of 211841 cells"):
        _kernel_operator(spec, uniform_grid(1.0, 211841))
    assert kernels._check_dense(6688, 3) <= kernels.DENSE_BYTES_MAX
    with pytest.raises(DenseSizeError, match="3 dense 6689x6689"):
        kernels._check_dense(6689, 3)
    # a dense kernel_matrix or weight_matrix result is still refused
    kernels._check_dense(11585, 1)
    for build in (kernel_matrix, weight_matrix):
        with pytest.raises(DenseSizeError, match="1 dense 11586x11586"):
            build(make_kernel_spec(0.3), uniform_grid(1.0, 11586))


def test_kernel_rejects_bad_domain():
    spec = make_kernel_spec(0.7)
    for t, s in [(1.0, 0.0), (1.0, -0.5), (1.0, 1.0), (1.0, 2.0)]:
        with pytest.raises(ValueError):
            kernel_value(spec, t, s)


def test_kernel_nonnegative_above_half():
    for hurst in (0.55, 0.7, 0.95):
        spec = make_kernel_spec(hurst)
        for frac in (1e-5, 0.1, 0.5, 0.9, 0.9999):
            assert kernel_value(spec, 1.0, frac) >= 0.0


# ---------------------------------------------------------------------------
# kernel time derivative
# ---------------------------------------------------------------------------


def kernel_dt(spec, t, s):
    """Closed-form time derivative of the kernel, 0 < s < t.

    c_H (t/s)^(H-1/2) (t-s)^(H-3/2), carrying an extra (H-1/2) factor
    below half; identically 0 in the standard regime.
    """
    if not (0.0 < s < t):
        raise ValueError("kernel_dt requires 0 < s < t (it diverges at s = t)")
    if spec.hurst == 0.5:
        return 0.0
    h = spec.hurst
    val = spec.c_h * (t / s) ** (h - 0.5) * (t - s) ** (h - 1.5)
    if h < 0.5:
        val *= h - 0.5
    return float(val)


def test_kernel_dt_signs():
    assert kernel_dt(make_kernel_spec(0.75), 1.0, 0.3) > 0
    assert kernel_dt(make_kernel_spec(0.25), 1.0, 0.3) < 0
    assert kernel_dt(make_kernel_spec(0.5), 1.0, 0.3) == 0.0


def test_kernel_dt_hand_value():
    spec = make_kernel_spec(0.75)
    assert kernel_dt(spec, 1.0, 0.5) == pytest.approx(KERNEL_DT_075, rel=1e-12)


def test_kernel_dt_matches_finite_difference():
    h = 1e-5
    for hurst in (0.7, 0.3):
        spec = make_kernel_spec(hurst)
        for t, s in [(1.0, 0.4), (2.0, 0.5), (1.0, 0.05)]:
            fd = (kernel_value(spec, t + h, s) - kernel_value(spec, t - h, s)) / (2 * h)
            assert kernel_dt(spec, t, s) == pytest.approx(fd, rel=1e-3)


def test_kernel_dt_rejects_bad_domain():
    spec = make_kernel_spec(0.7)
    with pytest.raises(ValueError):
        kernel_dt(spec, 1.0, 1.0)
    with pytest.raises(ValueError):
        kernel_dt(spec, 1.0, 0.0)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def test_covariance_standard_is_minimum():
    assert fbm_covariance(0.5, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)


def test_covariance_collapses():
    assert fbm_covariance(0.3, 2.0, 2.0) == pytest.approx(2.0**0.6, rel=1e-14)
    assert fbm_covariance(0.8, 0.0, 3.0) == 0.0


def test_covariance_hand_value():
    assert fbm_covariance(0.7, 1.0, 2.0) == pytest.approx(2.0**0.4, rel=1e-14)


def test_covariance_rejects_negative():
    with pytest.raises(ValueError):
        fbm_covariance(0.7, -1.0, 2.0)
    with pytest.raises(ValueError):
        fbm_covariance(1.2, 1.0, 2.0)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.0, max_value=100.0),
       st.floats(min_value=0.0, max_value=100.0))
def test_covariance_symmetry(hurst, s, t):
    assert fbm_covariance(hurst, s, t) == fbm_covariance(hurst, t, s)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=10.0),
       st.floats(min_value=0.01, max_value=8.0))
@example(hurst=0.25, s=0.05, t=0.05000000000000001, a=3.0)
def test_covariance_self_similarity(hurst, s, t, a):
    # a*s and a*t round, and for 2H < 1 R has infinite slope on the
    # diagonal: here a*s == a*t, while s and t are one ulp apart, which
    # moves R(s, t) by ulp^(2H) ~ 1e-9.  So the right side scales back
    # the points actually passed, exactly (40-digit decimals).
    x, y = a * s, a * t
    left = fbm_covariance(hurst, x, y)
    with localcontext() as ctx:
        ctx.prec = 40
        two_h, da = 2 * Decimal(hurst), Decimal(a)
        xs, ys = Decimal(x) / da, Decimal(y) / da
        cov = (xs**two_h + ys**two_h - abs(ys - xs) ** two_h) / 2
        right = float(da**two_h * cov)
    assert left == pytest.approx(right, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature weights
# ---------------------------------------------------------------------------


def test_weights_standard_midpoint():
    grid = uniform_grid(1.0, 4)
    weights = kernel_weights(make_kernel_spec(0.5), grid)
    assert np.array_equal(weights, np.full(4, 0.25))
    assert np.array_equal(grid.midpoints, [0.125, 0.375, 0.625, 0.875])


@pytest.mark.parametrize("hurst", [0.7, 0.3])
def test_weights_sum_matches_kernel_mass(hurst):
    spec = make_kernel_spec(hurst)
    weights = kernel_weights(spec, uniform_grid(1.0, 4096))
    assert weights.sum() == pytest.approx(KERNEL_MASS[hurst], rel=1e-3)


def test_weights_interior_time():
    spec = make_kernel_spec(0.7)
    grid = prefix_grid(uniform_grid(1.0, 8), 4)
    weights = kernel_weights(spec, grid)
    assert weights.size == 4
    assert grid.horizon == 0.5
    # self-similar scaling t^(H+1/2) of the kernel mass
    assert weights.sum() == pytest.approx(
        KERNEL_MASS[0.7] * 0.5 ** 1.2, rel=2e-2)


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.45, 0.7, 0.9])
def test_weights_rows_equal_weight_matrix_bitwise(hurst):
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(1.0, 1024)
    wmat = weight_matrix(spec, grid)
    assert np.array_equal(kernel_weights(spec, grid), wmat[-1])
    for i in range(grid.n_cells):
        weights = kernel_weights(spec, prefix_grid(grid, i + 1))
        assert np.array_equal(weights, wmat[i, : i + 1]), i


def _scalar_singular_cell(spec, t, m, delta, k):
    # the singular-cell weight as formerly written with Python floats
    h = spec.hurst
    a = spec.c_h * (t / m) ** (h - 0.5)
    r = k - a * (t - m) ** (h - 0.5)
    return a * delta ** (h + 0.5) / (h + 0.5) + r * delta


@pytest.mark.parametrize("hurst", [0.05, 0.1, 0.3, 0.45, 0.49])
def test_singular_cell_matches_scalar_reference(hurst):
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(2.0, 1024)
    kmat = kernel_matrix(spec, grid)
    for i in range(grid.n_cells):
        cell = slice(i, i + 1)
        _, _, w = _singular_cell(spec, float(grid.points[i + 1]),
                                 grid.midpoints[cell], grid.widths[cell],
                                 kmat[i, cell])
        ref = _scalar_singular_cell(spec, float(grid.points[i + 1]),
                                    float(grid.midpoints[i]),
                                    float(grid.widths[i]), float(kmat[i, i]))
        assert abs(w[0] - ref) <= 1e-15 * abs(ref), i


# a dyadic grid, a non-dyadic one, and cells 1e-15 wide at both ends
INTEGRAL_GRIDS = {
    "dyadic": uniform_grid(1.0, 256),
    "n1000": uniform_grid(1.0, 1000),
    "thin_cells": TimeGrid(np.concatenate(
        ([0.0, 1e-15], np.linspace(0.0, 1.0, 65)[1:-1], [1.0 - 1e-15, 1.0]))),
}


@pytest.mark.parametrize("grid_name", sorted(INTEGRAL_GRIDS))
@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.45, 0.5, 0.7, 0.95])
def test_kernel_integral_matches_weight_matrix(hurst, grid_name):
    grid = INTEGRAL_GRIDS[grid_name]
    spec = make_kernel_spec(hurst)
    wmat = weight_matrix(spec, grid)
    rng = np.random.default_rng(5)
    for shape in [(grid.n_cells,), (grid.n_cells, 4)]:
        f = rng.standard_normal(shape)
        got = _kernel_integral(spec, grid, f)
        assert got.shape == shape
        bound = 1e-13 * (np.abs(wmat) @ np.abs(f))
        assert np.all(np.abs(got - wmat @ f) <= bound)


@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_kernel_integral_batch_columns_match_single_runs(hurst):
    # gemm and gemv sum in different orders: close, not bit for bit
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(1.0, 1024)
    f = np.random.default_rng(6).standard_normal((grid.n_cells, 4))
    batch = _kernel_integral(spec, grid, f)
    scale = np.abs(weight_matrix(spec, grid)) @ np.abs(f)
    for j in range(f.shape[1]):
        single = _kernel_integral(spec, grid, f[:, j].copy())
        assert np.all(np.abs(batch[:, j] - single) <= 1e-13 * scale[:, j])


# ---------------------------------------------------------------------------
# covariance identity
# ---------------------------------------------------------------------------


def test_identity_above_half_diagonal():
    spec = make_kernel_spec(0.7)
    res = verify_covariance_identity(spec, 1.0, 1.0, 4096)
    assert res <= 1e-2
    assert verify_covariance_identity(spec, 1.0, 1.0, 16384) < res
    # the identity is scale-invariant, and so is its rule on [0, T]
    for s in (1.0, 0.5):
        assert verify_covariance_identity(spec, 1e-9 * s, 1e-9, 4096) == \
            pytest.approx(verify_covariance_identity(spec, s, 1.0, 4096), rel=1e-12)


def test_identity_below_half_offdiagonal():
    spec = make_kernel_spec(0.3)
    assert verify_covariance_identity(spec, 0.5, 1.0, 4096) <= 2e-2


def test_identity_symmetric_in_arguments():
    spec = make_kernel_spec(0.7)
    assert (verify_covariance_identity(spec, 2.0, 1.0, 256)
            == verify_covariance_identity(spec, 1.0, 2.0, 256))


def test_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_covariance_identity(make_kernel_spec(0.5), 1.0, 1.0, 256)
    spec = make_kernel_spec(0.7)
    with pytest.raises(ValueError):
        verify_covariance_identity(spec, 0.0, 1.0, 256)
    with pytest.raises(ValueError):
        verify_covariance_identity(spec, 1.0, 1.0, 8)


def test_identity_takes_whole_cell_counts_only():
    spec = make_kernel_spec(0.7)
    want = verify_covariance_identity(spec, 0.5, 1.0, 16)
    for n in (16.0, np.int64(16)):
        assert verify_covariance_identity(spec, 0.5, 1.0, n) == want
    # 16.9 used 16 cells
    with pytest.raises(ValueError, match="n must be a whole number"):
        verify_covariance_identity(spec, 0.5, 1.0, 16.9)


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1537, 2048])
def test_row_blocks_cover_the_lower_triangle(n):
    # the dense builder's blocks: rows in order from column 0, zero right
    # of the diagonal, each at most _BLOCK_ELEMS entries or one row
    spec = make_kernel_spec(0.3)
    grid = uniform_grid(1.0, n)
    i = 0
    for i0, block in _row_blocks(spec, grid):
        i1 = i0 + len(block)
        assert i0 == i and block.shape == (i1 - i0, i1)
        assert block.size <= kernels._BLOCK_ELEMS or len(block) == 1
        kept = np.arange(i1) <= np.arange(i0, i1)[:, None]
        assert not block[~kept].any() and block[kept].all()
        i = i1
    assert i == n


@pytest.mark.parametrize("n", [1, 511, 2048])
def test_streamed_parts_hold_bounded_numbers(n):
    # each streamed part holds at most _BLOCK_ELEMS kernel values (or one
    # tile) or far factors (or one term); a level's Chebyshev bases hold
    # 20 n / b (b + 20) numbers, b >= 32
    spec = make_kernel_spec(0.3)
    grid = uniform_grid(1.0, n)
    times, mids = grid.points[1:], grid.midpoints
    for item in kernels._layout(times, mids):
        for part in kernels._evaluated(spec, times, mids, item):
            if part[0] == "tiles":
                values = part[3]
                assert values.size <= kernels._BLOCK_ELEMS or len(values) == 1
            elif part[0] == "far":
                sf, tf = part[4:]
                assert sf.size + tf.size <= kernels._BLOCK_ELEMS or len(sf) == 1
            else:
                assert sum(a.size for a in part[1:]) <= 20 * n + 400 * n / 32


@pytest.mark.parametrize("n", [1, 511, 512, 513, 1537, 2048])
@pytest.mark.parametrize("hurst", [0.3, 0.7])
def test_streamed_and_stored_products_agree(hurst, n, monkeypatch):
    # one _apply for both forms; BLAS rounds a row's sum by the shape of
    # the call it sits in, so the two agree to rounding only
    monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
    spec = make_kernel_spec(hurst)
    grid = uniform_grid(1.0, n)
    ref = np.abs(kernel_matrix(spec, grid))
    rng = np.random.default_rng(n)
    for shape in [(n,), (n, 3)]:
        x = rng.standard_normal(shape)
        got = _kernel_product(spec, grid, x)
        assert got.shape == shape
        assert np.all(np.abs(got - _stored_product(spec, grid, x))
                      <= 1e-14 * (ref @ np.abs(x)))


def test_cold_kernel_operator_evaluates_n_log_n_values(monkeypatch):
    # a cold build evaluates what one streamed product does, O(n log n)
    # entries, and the n corrections
    monkeypatch.setattr(kernels, "_DENSE", OrderedDict())
    n = 2048
    evaluated = []
    values = kernels._kernel_values

    def counted(*args):
        out = values(*args)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(kernels, "_kernel_values", counted)
    _kernel_operator(make_kernel_spec(0.3), uniform_grid(1.0, n))
    assert sum(evaluated) <= 20 * n * math.log2(n)


PRODUCT_HURSTS = (0.01, 0.1, 0.3, 0.45, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.55, 0.7,
                  0.9, 0.99, 1 - 1e-6, 1 - 1e-8)


def product_gap(spec, grid, x):
    """|product - the row-block product| / (|K| @ |x|), largest entry, of
    the streamed and the stored product; the store keeps nothing of it."""
    got = np.stack((_kernel_product(spec, grid, x), _stored_product(spec, grid, x)))
    kernels._DENSE.pop((spec, grid), None)
    assert got.shape[1:] == x.shape
    ref, scale = np.empty_like(x), np.empty_like(x)
    for i0, b in _row_blocks(spec, grid):
        # one block at a time: at n = 8192 the blocks together hold 256 MiB
        ref[i0:i0 + len(b)] = b @ x[:b.shape[1]]
        scale[i0:i0 + len(b)] = np.abs(b) @ np.abs(x[:b.shape[1]])
    return float(np.max(np.abs(got - ref) / scale))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 511, 512, 513, 1537, 2048])
@pytest.mark.parametrize("hurst", PRODUCT_HURSTS)
def test_near_and_far_split_product_agrees_with_row_blocks(hurst, n):
    # far columns s_j < t_i / 2 are summed from the closed form's terms;
    # the bound is the one the streamed and stored products keep
    spec = make_kernel_spec(hurst)
    rng = np.random.default_rng(n)
    for horizon in (3e-7, 1.0, 1e150):
        grid = uniform_grid(horizon, n)
        for shape in [(n,), (n, 3)]:
            assert product_gap(spec, grid, rng.standard_normal(shape)) <= 1e-14


@pytest.mark.parametrize("hurst", PRODUCT_HURSTS)
def test_near_and_far_split_product_on_uneven_grids(hurst):
    # a geometric grid puts every row in its own band of t and reaches
    # s/t = 1e-200 inside one row
    spec = make_kernel_spec(hurst)
    rng = np.random.default_rng(300)
    uneven = np.cumsum(rng.uniform(0.01, 1.0, 300))
    for horizon in (1.0, 1e150):
        geometric = np.geomspace(1e-200 * horizon, horizon, 400)
        for points in (uneven / uneven[-1] * horizon, geometric):
            grid = TimeGrid(np.concatenate(([0.0], points)))
            x = rng.standard_normal((grid.n_cells, 3))
            assert product_gap(spec, grid, x) <= 1e-13


@pytest.mark.parametrize("hurst", [0.01, 0.3, 0.7, 0.99])
def test_near_and_far_split_product_on_large_uneven_grids(hurst):
    # uneven cells put some column blocks nearer t or 0 than their width,
    # which are evaluated, not interpolated; cells graded towards the
    # horizon make blocks narrow against eps s, where a node's rounding
    # counts
    spec = make_kernel_spec(hurst)
    rng = np.random.default_rng(2048)
    uneven = np.cumsum(rng.uniform(0.01, 1.0, 2048))
    graded = 1.0 + 1e-6 - np.geomspace(1.0, 1e-6, 2049)[1:]
    for points in (uneven / uneven[-1], np.geomspace(1e-6, 1.0, 2048), graded):
        grid = TimeGrid(np.concatenate(([0.0], points)))
        x = rng.standard_normal((grid.n_cells, 3))
        assert product_gap(spec, grid, x) <= 1e-14


def test_near_and_far_split_product_memory():
    # 23 terms of (n, 16) float64 alone would be 5.75 MiB
    spec = make_kernel_spec(0.3)
    grid = uniform_grid(1.0, 2048)
    x = np.random.default_rng(0).standard_normal((2048, 16))
    _kernel_product(spec, grid, x)
    tracemalloc.start()
    try:
        _kernel_product(spec, grid, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_kernel_product_reads_x_per_tile():
    # x is 128 KiB: the direct band reads it one tile at a time, with no
    # zero-padded copy of it
    spec = make_kernel_spec(0.3)
    grid = uniform_grid(1.0, 1024)
    x = np.random.default_rng(1).standard_normal((1024, 16))
    _kernel_product(spec, grid, x)
    tracemalloc.start()
    try:
        _kernel_product(spec, grid, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 768 * 2**10


@pytest.mark.parametrize("n", [4096, 8192])
@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
def test_near_and_far_split_product_at_large_n(hurst, n):
    # interpolated column blocks of 512 columns and more appear only past
    # n = 2048; the bound is the one of the smaller grids
    spec = make_kernel_spec(hurst)
    x = np.random.default_rng(n).standard_normal((n, 2))
    assert product_gap(spec, uniform_grid(1.0, n), x) <= 1e-14


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_near_and_far_split_product_evaluates_n_log_n_kernel_values(n, monkeypatch):
    # the direct band is at most 64 values per row and each level adds
    # 20 per interpolated block: 13.7, 16.2 and 18.2 n log2 n
    evaluated = []
    values = kernels._kernel_values

    def counted(*args):
        out = values(*args)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(kernels, "_kernel_values", counted)
    _kernel_product(make_kernel_spec(0.3), uniform_grid(1.0, n), np.ones((n, 2)))
    assert sum(evaluated) <= 20 * n * math.log2(n)
