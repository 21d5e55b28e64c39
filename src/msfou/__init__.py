"""Simulation and drift estimation for the mixed sub-fractional OU process.

Layers, bottom up: ``noise`` (fractional Gaussian noise generators),
``paths`` (sub-fractional / mixed processes and the Euler scheme),
``numerics`` (gamma, the correction integral, moment-map inversion, the
martingale kernel equation), ``estimators`` and ``mle`` (the four drift
estimators), ``harness`` (reproducible Monte Carlo experiments) and
``cli`` (command-line front end).
"""

from .estimators import (
    EstimateResult,
    Method,
    boundary_variance,
    integral_X2,
    lse_skorohod,
    nonergodic_estimator,
    phi_statistic,
    practical_estimator,
    sigma_H,
)
from .harness import (
    ExperimentConfig,
    SummaryStats,
    run_clt_experiment,
    run_rate_experiment,
    run_table_experiment,
    summarize,
)
from .mle import MartingaleDecomposition, decompose, mle
from .noise import HurstParam, HurstRegime, NoiseSpec, fgn_autocovariance, sample_fgn
from .numerics import (
    KernelSolution,
    correction_integral,
    gamma_fn,
    invert_p,
    solve_g_kernel,
    stationary_second_moment,
)
from .paths import (
    SamplePath,
    TwoSidedFbm,
    euler_msfou,
    read_path_csv,
    sfbm_covariance,
    sfbm_path,
    two_sided_fbm,
    write_path_csv,
)

__version__ = "0.1.0"

__all__ = [
    "EstimateResult",
    "Method",
    "boundary_variance",
    "integral_X2",
    "lse_skorohod",
    "nonergodic_estimator",
    "phi_statistic",
    "practical_estimator",
    "sigma_H",
    "ExperimentConfig",
    "SummaryStats",
    "run_clt_experiment",
    "run_rate_experiment",
    "run_table_experiment",
    "summarize",
    "MartingaleDecomposition",
    "decompose",
    "mle",
    "HurstParam",
    "HurstRegime",
    "NoiseSpec",
    "fgn_autocovariance",
    "sample_fgn",
    "KernelSolution",
    "correction_integral",
    "gamma_fn",
    "invert_p",
    "solve_g_kernel",
    "stationary_second_moment",
    "SamplePath",
    "TwoSidedFbm",
    "euler_msfou",
    "read_path_csv",
    "sfbm_covariance",
    "sfbm_path",
    "two_sided_fbm",
    "write_path_csv",
    "__version__",
]
