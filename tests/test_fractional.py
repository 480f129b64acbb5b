import gc
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

from fraclangevin import (DegenerateDenominatorError, FractionalConfig,
                          LangevinParams, NoiseStream, Path, ah_ratios,
                          estimate_ah, expected_fractional_velocity,
                          fractional_velocity, gaussian_increments,
                          kernel_weights, make_kernel_spec,
                          normalized_residual_max, phi,
                          residual_refinement_study, simulate_ou_em,
                          simulate_ou_exact, transformed_langevin_residual,
                          uniform_grid)
from fraclangevin import fractional
from fraclangevin.core import _midpoints
from fraclangevin.kernels import _kernel_integral

SPEC7 = make_kernel_spec(0.7)
SPEC3 = make_kernel_spec(0.3)
PARAMS = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=1.0)

# 1 + int_0^1 K_H(1,s) ds for H = 0.7 (Fubini closed form, mpmath)
ONE_PLUS_KERNEL_MASS_07 = 1.972582966122813


def test_config_rejects_standard_regime():
    with pytest.raises(ValueError):
        FractionalConfig(make_kernel_spec(0.5), 1.0)


@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_amplitude(amplitude):
    with pytest.raises(ValueError, match="amplitude must be finite"):
        FractionalConfig(SPEC7, amplitude)


def test_phi_values():
    config = FractionalConfig(SPEC7, 2.0)
    assert phi(config, 1.0) == 2.0
    assert phi(config, 4.0) == pytest.approx(2.0 * 4.0**-0.2, rel=1e-14)
    assert phi(FractionalConfig(SPEC7, 0.0), 3.0) == 0.0


def test_phi_rejects_nonpositive_time():
    config = FractionalConfig(SPEC7, 1.0)
    with pytest.raises(ValueError):
        phi(config, 0.0)
    with pytest.raises(ValueError):
        phi(config, -1.0)


def test_transform_zero_amplitude_is_flat():
    grid = uniform_grid(1.0, 64)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(0))
    out = fractional_velocity(FractionalConfig(SPEC7, 0.0), v)
    assert np.array_equal(out.transformed.values, np.full(65, v.values[0]))


@pytest.mark.parametrize("spec", [SPEC7, SPEC3])
def test_transform_zero_amplitude_at_float_max(spec):
    # the midpoints of a 1e308 path do not overflow, so A = 0 gives V^H = V_0
    v = Path(uniform_grid(1.0, 8), np.full(9, 1e308))
    out = fractional_velocity(FractionalConfig(spec, 0.0), v)
    assert np.array_equal(out.transformed.values, v.values)


def test_transform_zero_velocity_is_zero():
    grid = uniform_grid(1.0, 64)
    v = Path(grid, np.zeros(65))
    out = fractional_velocity(FractionalConfig(SPEC3, 1.0), v)
    assert np.array_equal(out.transformed.values, np.zeros(65))


def test_transform_constant_velocity_golden():
    grid = uniform_grid(1.0, 1024)
    v = Path(grid, np.ones(1025))
    out = fractional_velocity(FractionalConfig(SPEC7, 1.0), v)
    assert out.transformed.values[0] == 1.0
    assert out.transformed.values[-1] == pytest.approx(
        ONE_PLUS_KERNEL_MASS_07, rel=1e-3)


def test_transform_starts_at_initial_velocity():
    grid = uniform_grid(1.0, 32)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(5))
    out = fractional_velocity(FractionalConfig(SPEC3, 2.0), v)
    assert out.transformed.values[0] == v.values[0]
    assert out.base is v


def test_transform_linearity():
    grid = uniform_grid(1.0, 64)
    p0 = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=0.0)
    v = simulate_ou_exact(p0, grid, NoiseStream(6))
    config = FractionalConfig(SPEC7, 1.3)
    one = fractional_velocity(config, v).transformed.values
    doubled = fractional_velocity(config, Path(grid, 2.0 * v.values))
    assert np.array_equal(doubled.transformed.values, 2.0 * one)
    tripled = fractional_velocity(config, Path(grid, 3.0 * v.values))
    assert np.allclose(tripled.transformed.values, 3.0 * one, rtol=1e-12)


def test_expected_transform_degenerate_cases():
    config = FractionalConfig(SPEC7, 1.0)
    zero_start = LangevinParams(mass=1.0, friction=2.0, sigma=0.5, v0=0.0)
    assert expected_fractional_velocity(config, zero_start, 1.0) == 0.0
    flat = FractionalConfig(SPEC7, 0.0)
    assert expected_fractional_velocity(flat, PARAMS, 1.0) == PARAMS.v0


def test_expected_transform_validates_input():
    config = FractionalConfig(SPEC7, 1.0)
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="time must be positive"):
            expected_fractional_velocity(config, PARAMS, t)
    # (b/m) t = 1000 is summed, just past it is refused by name; at
    # t = 1e300 every e^(-(b/m)s) underflowed and the quadrature gave 1.0
    expected_fractional_velocity(config, PARAMS, 500.0)
    for t in (500.0 * (1 + 1e-15), 1e300):
        with pytest.raises(ValueError, match=r"\(b/m\) t = .* outside \[0, 1000\]"):
            expected_fractional_velocity(config, PARAMS, t)
    # (b/m) t = 1, but t^(H+1/2) is past the float range
    slow = LangevinParams(mass=1.0, friction=1e-300, sigma=0.5, v0=1.0)
    with pytest.raises(OverflowError, match="overflows"):
        expected_fractional_velocity(FractionalConfig(make_kernel_spec(0.99), 1.0),
                                     slow, 1e300)


def kernel_exponential_integral(spec, t, rate):
    """int_0^t K(t,s) e^(-rate s) ds in closed form, 30 digits: C_H
    Gamma(H+1/2) Gamma(3/2-H) / (H+1/2) t^(H+1/2) 2F2(H+1/2, 3/2-H; H+3/2,
    1; -rate t), C_H = c_H below 1/2 and c_H / (H-1/2) above."""
    h = spec.hurst
    c = spec.c_h / (h - 0.5) if h > 0.5 else spec.c_h
    with mpmath.workdps(30):
        a = mpmath.mpf(h) + 0.5
        return float(c * mpmath.gamma(a) * mpmath.gamma(2 - a) / a
                     * mpmath.mpf(t) ** a
                     * mpmath.hyp2f2(a, 2 - a, a + 1, 1, -rate * mpmath.mpf(t)))


CLOSED_FORM_HURSTS = (0.01, 0.1, 0.3, 0.45, 0.5 - 1e-7, 0.5 + 1e-7, 0.55, 0.7,
                      0.9, 0.99)


@pytest.mark.parametrize("hurst", CLOSED_FORM_HURSTS)
@pytest.mark.parametrize("rt", [1e-8, 0.1, 1.0, 10.0, 50.0, 200.0, 1000.0])
def test_expected_transform_is_the_closed_form(hurst, rt):
    # t = 2 makes t^(H+1/2) count; amplitude 1e3 keeps the integral part
    # clear of the rounding of 1 + phi(t) * integral
    t = 2.0
    params = LangevinParams(mass=1.0, friction=rt / t, sigma=0.5, v0=-3.0)
    config = FractionalConfig(make_kernel_spec(hurst), 1e3)
    got = expected_fractional_velocity(config, params, t)
    part = (got - params.v0) / (params.v0 * phi(config, t))
    want = kernel_exponential_integral(config.spec, t, params.rate)
    assert abs(part - want) <= 1e-12 * abs(want)


# Largest relative error of the transform's integral part at n = 256,
# 1024, 4096 cells: the midpoint quadrature's, about 10% above what it
# reads today.
ZERO_NOISE_BOUNDS = {0.1: (2.0e-2, 9.0e-3, 3.9e-3),
                     0.3: (3.5e-3, 1.2e-3, 4.1e-4),
                     0.7: (3.3e-3, 1.25e-3, 4.5e-4),
                     0.9: (2.7e-2, 1.2e-2, 5.3e-3)}


@pytest.mark.parametrize("hurst", sorted(ZERO_NOISE_BOUNDS))
def test_zero_noise_transform_matches_closed_form(hurst):
    # sigma = 0: V = v0 e^(-rt) exactly, so (V^H - v0) / phi(t) is the
    # quadrature of int_0^t K(t,s) v0 e^(-rs) ds, checked against its
    # closed form rather than against the same weights
    quiet = LangevinParams(mass=1.0, friction=2.0, sigma=0.0, v0=1.0)
    config = FractionalConfig(make_kernel_spec(hurst), 1.0)
    errors = []
    for n in (256, 1024, 4096):
        grid = uniform_grid(1.0, n)
        v = simulate_ou_exact(quiet, grid, NoiseStream(0))
        assert np.array_equal(v.values, np.exp(-quiet.rate * grid.points))
        values = fractional_velocity(config, v).transformed.values
        late = np.flatnonzero(grid.points >= 0.125)
        rows = np.union1d(late[::len(late) // 32], late[-1:])
        t = grid.points[rows]
        part = (values[rows] - quiet.v0) / phi(config, t)
        want = np.array([kernel_exponential_integral(config.spec, ti, quiet.rate)
                         for ti in t])
        errors.append(float(np.max(np.abs(part - want) / np.abs(want))))
    assert all(e <= b for e, b in zip(errors, ZERO_NOISE_BOUNDS[hurst]))
    assert errors[0] > errors[1] > errors[2]


def test_residual_noiseless_shrinks_with_refinement():
    quiet = LangevinParams(mass=1.0, friction=2.0, sigma=0.0, v0=1.0)
    maxima = {}
    for n in (128, 512):
        grid = uniform_grid(1.0, n)
        v = simulate_ou_em(quiet, grid, np.zeros(n))
        res = transformed_langevin_residual(SPEC7, quiet, v, np.zeros(n))
        maxima[n] = np.abs(res.values).max()
    # quadrature error of the noiseless identity decays like the mesh
    assert maxima[512] < maxima[128] / 2
    assert maxima[512] < 5e-3


def test_residual_normalized_small_at_desk_resolution():
    grid = uniform_grid(1.0, 1024)
    db = gaussian_increments(grid, NoiseStream(7))
    v = simulate_ou_em(PARAMS, grid, db)
    assert normalized_residual_max(SPEC7, PARAMS, v, db) <= 0.05


def test_residual_rejects_mismatched_increments():
    grid = uniform_grid(1.0, 64)
    v = simulate_ou_em(PARAMS, grid, np.zeros(64))
    with pytest.raises(ValueError):
        transformed_langevin_residual(SPEC7, PARAMS, v, np.zeros(63))


def test_residual_study_improves_with_refinement():
    study = residual_refinement_study(SPEC7, PARAMS, 1.0, [256, 1024], 8,
                                      NoiseStream(8))
    assert set(study) == {256, 1024}
    assert (study[1024] < study[256]).mean() >= 0.75
    assert study[1024].max() <= 0.05


@pytest.mark.parametrize("spec", [SPEC7, SPEC3])
def test_residual_study_columns_match_single_path_runs(spec):
    # the batched pass sums in another order than one path at a time
    stream = NoiseStream(13)
    study = residual_refinement_study(spec, PARAMS, 1.0, [64, 256], 4, stream)
    db_fine = np.column_stack([
        gaussian_increments(uniform_grid(1.0, 256), stream.substream(k))
        for k in range(4)])
    for count in (64, 256):
        grid = uniform_grid(1.0, count)
        db_all = db_fine.reshape(count, 256 // count, -1).sum(axis=1)
        for k in range(4):
            db = db_all[:, k].copy()
            v = simulate_ou_em(PARAMS, grid, db)
            single = normalized_residual_max(spec, PARAMS, v, db)
            assert abs(study[count][k] - single) <= 1e-13 * single


def test_residual_study_takes_whole_numbers_only():
    stream = NoiseStream(13)
    want = residual_refinement_study(SPEC7, PARAMS, 1.0, [16, 32], 2, stream)
    got = residual_refinement_study(SPEC7, PARAMS, 1.0,
                                    [16.0, np.int64(32)], 2.0, stream)
    assert set(got) == {16, 32}
    assert all(np.array_equal(got[c], want[c]) for c in want)
    # [16.5, 32.2] and 2.7 ran 16 and 32 cells with 2 seeds
    with pytest.raises(ValueError, match="each cell count must be a whole"):
        residual_refinement_study(SPEC7, PARAMS, 1.0, [16.5, 32.2], 2, stream)
    with pytest.raises(ValueError, match="n_seeds must be a whole number"):
        residual_refinement_study(SPEC7, PARAMS, 1.0, [16, 32], 2.7, stream)


def test_residual_certificate_refuses_zero_sigma():
    # sigma * max|B^H| normalizes both; the raw residual accepts sigma = 0
    quiet = LangevinParams(mass=1.0, friction=2.0, sigma=0.0, v0=1.0)
    grid = uniform_grid(1.0, 64)
    db = gaussian_increments(grid, NoiseStream(7))
    v = simulate_ou_em(quiet, grid, db)
    with pytest.raises(ValueError, match="sigma"):
        normalized_residual_max(SPEC7, quiet, v, db)
    with pytest.raises(ValueError, match="sigma"):
        residual_refinement_study(SPEC7, quiet, 1.0, [16, 64], 2, NoiseStream(0))
    transformed_langevin_residual(SPEC7, quiet, v, db)


def test_residual_study_rejects_nondivisible_counts():
    with pytest.raises(ValueError):
        residual_refinement_study(SPEC7, PARAMS, 1.0, [100, 1024], 4,
                                  NoiseStream(0))


@pytest.mark.parametrize("counts, n_seeds, name", [
    ([64, 256], 0, "n_seeds"),
    ([0, 256], 4, "cell_counts"),
    ([], 4, "cell_counts"),
], ids=["no-seeds", "zero-count", "no-counts"])
def test_residual_study_names_bad_argument(counts, n_seeds, name):
    with pytest.raises(ValueError, match=name):
        residual_refinement_study(SPEC7, PARAMS, 1.0, counts, n_seeds,
                                  NoiseStream(0))


# only H = 1/2 itself lacks a transform: H = 1/2 -+ 1e-7 have one
@pytest.mark.parametrize("spec", [SPEC7, SPEC3, make_kernel_spec(0.5 - 1e-7),
                                  make_kernel_spec(0.5 + 1e-7)])
def test_amplitude_round_trip(spec):
    grid = uniform_grid(1.0, 256)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(9))
    observed = fractional_velocity(FractionalConfig(spec, 1.0), v).transformed
    assert estimate_ah(spec, observed, v) == pytest.approx(1.0, rel=1e-6)


def test_amplitude_single_time_is_ratio_formula():
    grid = uniform_grid(0.5, 1)
    v = Path(grid, np.array([1.0, 0.8]))
    observed = Path(grid, np.array([1.0, 1.25]))
    est = estimate_ah(SPEC7, observed, v)
    vmid = 0.9
    w = kernel_weights(SPEC7, grid)
    expect = 0.5 ** (0.7 - 0.5) * (1.25 - 1.0) / (w[0] * vmid)
    assert est == pytest.approx(expect, rel=1e-12)


def test_amplitude_robust_to_small_observation_noise():
    grid = uniform_grid(1.0, 256)
    errs = []
    for k in range(20):
        v = simulate_ou_exact(PARAMS, grid, NoiseStream(10, k))
        observed = fractional_velocity(FractionalConfig(SPEC7, 1.0), v).transformed
        noisy = observed.values * (
            1.0 + 1e-3 * NoiseStream(11, k).generator().standard_normal(257))
        noisy[0] = observed.values[0]
        est = estimate_ah(SPEC7, Path(grid, noisy), v)
        errs.append(abs(est - 1.0))
    assert max(errs) <= 0.01


def test_amplitude_degenerate_denominator():
    grid = uniform_grid(1.0, 16)
    zero = Path(grid, np.zeros(17))
    with pytest.raises(DegenerateDenominatorError, match="t="):
        estimate_ah(SPEC7, zero, zero)


@pytest.mark.parametrize("spec", [SPEC7, SPEC3])
def test_ah_ratios_invariant_under_velocity_scale(spec):
    # the degenerate-denominator test is relative to max|V| alone
    grid = uniform_grid(1.0, 256)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(13))
    observed = fractional_velocity(FractionalConfig(spec, 1.0), v).transformed
    ratios = ah_ratios(spec, observed, v)
    for scale in (2.0**-40, 2.0**40):
        scaled = ah_ratios(spec, Path(grid, scale * observed.values),
                           Path(grid, scale * v.values))
        assert np.array_equal(scaled, ratios)


def test_amplitude_rejects_grid_mismatch():
    v = Path(uniform_grid(1.0, 16), np.ones(17))
    observed = Path(uniform_grid(2.0, 16), np.ones(17))
    with pytest.raises(ValueError):
        estimate_ah(SPEC7, observed, v)


def test_one_dense_operator_retained_per_grid():
    n = 512
    config = FractionalConfig(SPEC3, 1.0)
    # build the kernel series on another grid first
    fractional_velocity(config, simulate_ou_exact(
        PARAMS, uniform_grid(1.0, 16), NoiseStream(12)))
    # a grid no other test builds, so its operator is built while traced
    grid = uniform_grid(0.8125, n)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(12))
    tracemalloc.start()
    try:
        observed = fractional_velocity(config, v).transformed
        estimate_ah(SPEC3, observed, v)
        del observed
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * 8 * n * n


def test_kernel_integral_computed_once_per_spec_and_path(monkeypatch):
    calls = []

    def counted(spec, grid, f):
        calls.append(spec)
        return _kernel_integral(spec, grid, f)

    monkeypatch.setattr(fractional, "_kernel_integral", counted)
    grid = uniform_grid(1.0, 64)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(13))
    observed = fractional_velocity(FractionalConfig(SPEC7, 1.0), v).transformed
    estimate_ah(SPEC7, observed, v)
    estimate_ah(SPEC7, Path(grid, 1.01 * observed.values), v)
    assert calls == [SPEC7]
    history = fractional._history(SPEC7, v)
    assert np.array_equal(history, _kernel_integral(SPEC7, grid, _midpoints(v.values)))
    assert not history.flags.writeable
    assert calls == [SPEC7]
    fractional_velocity(FractionalConfig(SPEC3, 1.0), v)
    assert calls == [SPEC7, SPEC3]
    fractional._history(SPEC7, Path(grid, v.values + 1.0))
    assert calls == [SPEC7, SPEC3, SPEC7]


def test_kernel_integral_entry_dies_with_its_path():
    grid = uniform_grid(1.0, 32)
    v = simulate_ou_exact(PARAMS, grid, NoiseStream(14))
    fractional_velocity(FractionalConfig(SPEC3, 1.0), v)
    assert v._histories[SPEC3] is fractional._history(SPEC3, v)
    twin = Path(grid, v.values)  # equal values, but its own entry
    assert SPEC3 not in twin._histories
    assert np.array_equal(fractional._history(SPEC3, twin), v._histories[SPEC3])
    ref = weakref.ref(v)
    del v
    gc.collect()
    assert ref() is None  # no module-level cache holds the path
