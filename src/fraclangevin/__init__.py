"""Langevin dynamics regularized by fractional Brownian motion.

Simulation of fBm (exact Cholesky and Volterra-kernel routes), the
Ornstein-Uhlenbeck velocity process, the fractional velocity transform,
and estimators for the Hurst index (rescaled range) and the transform
amplitude.  All randomness is reproducible through seeded
:class:`NoiseStream` values.
"""

from .core import NoiseStream, Path, TimeGrid, increments, uniform_grid
from .fbm import (CovMatrix, DecompositionError, cholesky_factor,
                  covariance_matrix, sample_fbm_exact, sample_fbm_kernel)
from .fractional import (DegenerateDenominatorError, FractionalConfig,
                         FractionalPath, ah_ratios, estimate_ah,
                         expected_fractional_velocity, fractional_velocity,
                         normalized_residual_max, phi,
                         residual_refinement_study,
                         transformed_langevin_residual)
from .hurst import (DegenerateSeriesError, HurstEstimate, RSSeries,
                    estimate_hurst, loglog_regression, rs_series)
from .kernels import (DenseSizeError, KernelSpec, QuadratureRule, Regime,
                      beta_fn, fbm_covariance, kernel_dt, kernel_matrix,
                      kernel_value, kernel_weights, make_kernel_spec,
                      verify_covariance_identity, weight_matrix)
from .langevin import (LangevinParams, ou_mean, ou_variance, simulate_ou_em,
                       simulate_ou_conditional, simulate_ou_exact)
from .noise import (StepDistribution, StepFunction, StepKind, donsker_path,
                    gaussian_increments, quadratic_variation, smoothed_fbm,
                    theta_epsilon_path)

__all__ = [
    "CovMatrix",
    "DecompositionError",
    "DegenerateDenominatorError",
    "DegenerateSeriesError",
    "DenseSizeError",
    "FractionalConfig",
    "FractionalPath",
    "HurstEstimate",
    "KernelSpec",
    "LangevinParams",
    "NoiseStream",
    "Path",
    "QuadratureRule",
    "RSSeries",
    "Regime",
    "StepDistribution",
    "StepFunction",
    "StepKind",
    "TimeGrid",
    "ah_ratios",
    "beta_fn",
    "cholesky_factor",
    "covariance_matrix",
    "donsker_path",
    "estimate_ah",
    "estimate_hurst",
    "expected_fractional_velocity",
    "fbm_covariance",
    "fractional_velocity",
    "gaussian_increments",
    "increments",
    "kernel_dt",
    "kernel_matrix",
    "kernel_value",
    "kernel_weights",
    "loglog_regression",
    "make_kernel_spec",
    "normalized_residual_max",
    "ou_mean",
    "ou_variance",
    "phi",
    "quadratic_variation",
    "residual_refinement_study",
    "rs_series",
    "sample_fbm_exact",
    "sample_fbm_kernel",
    "simulate_ou_conditional",
    "simulate_ou_em",
    "simulate_ou_exact",
    "smoothed_fbm",
    "theta_epsilon_path",
    "transformed_langevin_residual",
    "uniform_grid",
    "verify_covariance_identity",
    "weight_matrix",
]

__version__ = "0.1.0"
