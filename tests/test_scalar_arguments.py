"""Each kind of scalar argument is checked by one rule, with one wording.

A positive real (a drift, a grid spacing, a horizon) must be finite and
above zero; a count, a seed or a mesh size must be a whole number; and an
integer past the float range is refused as out of range rather than
raising OverflowError. Every public function below refuses a bad value
with a ValueError that starts with the argument's name.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from msfou import (
    EstimateResult,
    ExperimentConfig,
    HurstParam,
    Method,
    NoiseSpec,
    SamplePath,
    TwoSidedFbm,
    boundary_variance,
    correction_integral,
    decompose,
    euler_msfou,
    gamma_fn,
    invert_p,
    lse_skorohod,
    phi_statistic,
    run_rate_experiment,
    run_table_experiment,
    sigma_H,
    solve_g_kernel,
    stationary_second_moment,
    summarize,
    two_sided_fbm,
)

H = HurstParam(0.65)
PATH = SamplePath(d=0.1, values=np.linspace(0.1, 1.0, 10))
CONFIG = ExperimentConfig(theta_true=1.0, H=0.6, d=0.05, T=5.0, replications=8,
                          master_seed=1, estimator=Method.PRACTICAL)
LSE_CONFIG = replace(CONFIG, estimator=Method.LSE_SKOROHOD)
HUGE = 10**400  # 1329 bits, past the float range


# (call with the argument set to v, the argument's name)
POSITIVE = {
    "gamma_fn": (lambda v: gamma_fn(v), "x"),
    "stationary_second_moment": (lambda v: stationary_second_moment(v, H), "theta"),
    "invert_p": (lambda v: invert_p(v, H), "y"),
    "correction_integral": (lambda v: correction_integral(v, H, 1.0), "theta"),
    "sigma_H": (lambda v: sigma_H(v, H), "theta"),
    "boundary_variance": (lambda v: boundary_variance(v), "theta"),
    "phi_statistic-theta": (lambda v: phi_statistic(1.0, v, H, 100, 0.01), "theta"),
    "phi_statistic-d": (lambda v: phi_statistic(1.0, 1.0, H, 100, v), "d"),
    "lse_skorohod": (lambda v: lse_skorohod(PATH, H, v), "theta_ref"),
    "solve_g_kernel": (lambda v: solve_g_kernel(v, H, 8), "t"),
    "euler_msfou": (lambda v: euler_msfou(1.0, H, v, 10, 1), "d"),
    "SamplePath": (lambda v: SamplePath(d=v, values=np.ones(3)), "d"),
    "TwoSidedFbm": (lambda v: TwoSidedFbm(pos=np.ones(2), neg=np.ones(2), d=v), "d"),
    "two_sided_fbm": (lambda v: two_sided_fbm(np.ones(4), v, H), "d"),
    "EstimateResult-denominator": (lambda v: EstimateResult(1.0, Method.PRACTICAL, v),
                                   "denominator"),
}
NOT_POSITIVE = {
    "inf": (math.inf, "must be finite, got inf"),
    "nan": (math.nan, "must be finite, got nan"),
    "zero": (0.0, "must be positive, got 0.0"),
    "negative": (-1.0, "must be positive, got -1.0"),
    "huge": (HUGE, "is out of range, got an integer of 1329 bits"),
}

FINITE = {
    "correction_integral-T": (lambda v: correction_integral(1.0, H, v), "T"),
    "euler_msfou-theta": (lambda v: euler_msfou(v, H, 0.1, 10, 1), "theta"),
    "euler_msfou-x0": (lambda v: euler_msfou(1.0, H, 0.1, 10, 1, x0=v), "x0"),
    "EstimateResult-theta_hat": (lambda v: EstimateResult(v, Method.PRACTICAL, 1.0), "theta_hat"),
    "phi_statistic-theta_tilde": (lambda v: phi_statistic(v, 1.0, H, 100, 0.01), "theta_tilde"),
    "run_rate_experiment-T": (lambda v: run_rate_experiment(LSE_CONFIG, [5.0, v]), "T"),
    "SamplePath-initial_value": (lambda v: SamplePath(d=0.1, values=np.ones(3), initial_value=v),
                                 "initial_value"),
}
NOT_FINITE = {key: NOT_POSITIVE[key] for key in ("inf", "nan", "huge")}

WHOLE = {
    "decompose-m": (lambda v: decompose(PATH, H, v), "m"),
    "solve_g_kernel-m": (lambda v: solve_g_kernel(1.0, H, v), "m"),
    "NoiseSpec-n": (lambda v: NoiseSpec(n=v, seed=1), "n"),
    "NoiseSpec-seed": (lambda v: NoiseSpec(n=8, seed=v), "seed"),
    "euler_msfou-N": (lambda v: euler_msfou(1.0, H, 0.1, v, 1), "N"),
    "phi_statistic-n": (lambda v: phi_statistic(1.0, 1.0, H, v, 0.01), "n"),
    "summarize-n_failed": (lambda v: summarize([1.0, 2.0], n_failed=v), "n_failed"),
    "run_table_experiment-workers": (lambda v: run_table_experiment(CONFIG, workers=v),
                                     "workers"),
}
NOT_WHOLE = {
    "fraction": (2.5, "must be a whole number, got 2.5"),
    "nan": (math.nan, "must be a whole number, got nan"),
    "huge": (HUGE, "is out of range, got an integer of 1329 bits"),
}


# "<case>-<value>": (call, name, value, message)
ROWS = {
    f"{case}-{label}": (call, name, value, message)
    for cases, values in ((POSITIVE, NOT_POSITIVE), (FINITE, NOT_FINITE), (WHOLE, NOT_WHOLE))
    for case, (call, name) in cases.items()
    for label, (value, message) in values.items()
}


@pytest.mark.parametrize("call,name,value,message", ROWS.values(), ids=ROWS.keys())
def test_bad_scalar_refused_by_name(call, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
        call(value)


def test_hurst_index_past_the_float_range():
    message = "Hurst index is out of range, got an integer of 1329 bits"
    with pytest.raises(ValueError, match=f"^{message}$"):
        HurstParam(HUGE)
