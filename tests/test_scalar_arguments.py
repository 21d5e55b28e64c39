"""Each kind of scalar argument is checked by one rule, with one wording.

A positive real (a drift, a grid spacing, a horizon) must be finite and
above zero; a count, a seed or a mesh size must be a whole number within
its bounds; a string, a boolean or None is not a number; and an integer
past the float range is refused as out of range rather than raising
OverflowError. Every public function below refuses a bad value with a
ValueError that starts with the argument's name. A Hurst index must be a
HurstParam in the range its function holds on, and a checked value is
kept, so a Decimal reads as its float. Arguments valid one by one on
which a closed form leaves the float range are refused with one
ValueError that names the function and the arguments.
"""

import math
import re
from dataclasses import replace
from decimal import Decimal

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
    fgn_autocovariance,
    gamma_fn,
    invert_p,
    lse_skorohod,
    mle,
    nonergodic_estimator,
    phi_statistic,
    practical_estimator,
    run_clt_experiment,
    run_rate_experiment,
    run_table_experiment,
    sample_fgn,
    sfbm_covariance,
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

# an argument that must only be a number
NUMBER = {
    "EstimateResult-diagnostics": (
        lambda v: EstimateResult(1.0, Method.PRACTICAL, 1.0, {"iterations": v}),
        "diagnostic iterations"),
}
NOT_A_NUMBER = {
    "string": ("1", "must be a number, got '1'"),
    "boolean": (True, "must be a number, got True"),
    "none": (None, "must be a number, got None"),
    "list": ([1.0], "must be a number, got [1.0]"),
}
# correction_integral is cached per argument, so the cache refuses an
# unhashable one with TypeError before the check sees it
CACHED = ("correction_integral", "correction_integral-T")

# (call with the count set to v, its name, its lowest value, its highest or None)
COUNT = {
    "NoiseSpec-n": (lambda v: NoiseSpec(n=v, seed=1), "n", 1, None),
    "NoiseSpec-seed": (lambda v: NoiseSpec(n=8, seed=v), "seed", 0, 2**64 - 1),
    "NoiseSpec-stream": (lambda v: NoiseSpec(n=8, seed=1, stream=v), "stream", 0, None),
    "ExperimentConfig-replications": (lambda v: replace(CONFIG, replications=v),
                                      "replications", 1, None),
    "ExperimentConfig-master_seed": (lambda v: replace(CONFIG, master_seed=v),
                                     "master_seed", 0, 2**64 - 1),
    "summarize-n_failed": (lambda v: summarize([1.0, 2.0], n_failed=v), "n_failed", 0, None),
    "run_table_experiment-workers": (lambda v: run_table_experiment(CONFIG, workers=v),
                                     "workers", 1, None),
    "phi_statistic-n": (lambda v: phi_statistic(1.0, 1.0, H, v, 0.01), "n", 1, None),
    "euler_msfou-N": (lambda v: euler_msfou(1.0, H, 0.1, v, 1), "N", 1, None),
    "decompose-m": (lambda v: decompose(PATH, H, v), "m", 8, None),
    "solve_g_kernel-m": (lambda v: solve_g_kernel(1.0, H, v), "m", 8, 4096),
}

# (call with the Hurst index set to h, the range it needs, an H just outside)
HURST = {
    "invert_p": (lambda h: invert_p(1.0, h), "H >= 1/2", 0.49),
    "correction_integral": (lambda h: correction_integral(1.0, h, 1.0), "H > 1/2", 0.5),
    "solve_g_kernel": (lambda h: solve_g_kernel(1.0, h, 8), "H >= 1/2", 0.49),
    "lse_skorohod": (lambda h: lse_skorohod(PATH, h, 1.0), "H > 1/2", 0.5),
    "practical_estimator": (lambda h: practical_estimator(PATH, h), "H >= 1/2", 0.49),
    "sigma_H": (lambda h: sigma_H(1.0, h), "1/2 < H < 3/4", 0.75),
    "phi_statistic": (lambda h: phi_statistic(1.0, 1.0, h, 100, 0.01), "1/2 < H < 3/4", 0.5),
    "decompose": (lambda h: decompose(PATH, h, 8), "H >= 1/2", 0.49),
}
# functions that hold on the whole Hurst range check only the type
HURST_ANY = {
    "stationary_second_moment": lambda h: stationary_second_moment(1.0, h),
    "fgn_autocovariance": lambda h: fgn_autocovariance(1, h),
    "sample_fgn": lambda h: sample_fgn(NoiseSpec(n=8, seed=1), h),
    "two_sided_fbm": lambda h: two_sided_fbm(np.ones(4), 0.1, h),
    "sfbm_covariance": lambda h: sfbm_covariance(1.0, 2.0, h),
    "euler_msfou": lambda h: euler_msfou(1.0, h, 0.1, 10, 1),
}
# the same rules read from a config's H, a float: (call with H set to hh,
# the name in the message, the range, an H just outside)
CONFIG_HURST = {
    "ExperimentConfig-lse": (lambda hh: replace(LSE_CONFIG, H=hh), "estimator lse",
                             "H > 1/2", 0.5),
    "ExperimentConfig-practical": (lambda hh: replace(CONFIG, H=hh), "estimator practical",
                                   "H >= 1/2", 0.49),
    "ExperimentConfig-mle": (lambda hh: replace(CONFIG, estimator=Method.MLE, H=hh, mle_mesh=8),
                             "estimator mle", "H >= 1/2", 0.49),
    "run_clt_experiment": (lambda hh: run_clt_experiment(replace(CONFIG, H=hh)),
                           "the CLT experiment", "1/2 < H < 3/4", 0.75),
}


# Arguments valid one by one whose closed forms leave the float range: one
# ValueError names the function and the arguments, where these overflowed,
# divided by zero or returned inf or nan.
# "<case>": (call, value, the function named, the arguments as named)
FLOAT_RANGE = {
    "correction_integral-tiny-theta": (lambda v: correction_integral(v, H, 10), 1e-300,
                                       "correction_integral", "theta=1e-300, H=0.65, big_t=10"),
    "correction_integral-huge-T": (lambda v: correction_integral(1.0, H, v), 1e300,
                                   "correction_integral", "theta=1.0, H=0.65, big_t=1e+300"),
    # theta T is past the float range; at theta = 1e200 the integral is
    # 1.16e-159 (tests/test_numerics.py)
    "correction_integral-huge-theta": (
        lambda v: correction_integral(v, HurstParam(0.9), 10), 1e308,
        "correction_integral", "theta=1e+308, H=0.9, big_t=10"),
    "stationary_second_moment": (lambda v: stationary_second_moment(v, HurstParam(0.9)), 1e-300,
                                 "stationary_second_moment", "theta=1e-300, H=0.9"),
    "gamma_fn-huge": (lambda v: gamma_fn(v), 200, "gamma_fn", "x=200"),
    "gamma_fn-tiny": (lambda v: gamma_fn(v), 1e-310, "gamma_fn", "x=1e-310"),
    # the first arguments past either end: Gamma(171.7) and 1/5e-309 exceed 1.8e308
    "gamma_fn-just-above-the-range": (lambda v: gamma_fn(v), 171.7, "gamma_fn", "x=171.7"),
    "gamma_fn-just-below-the-range": (lambda v: gamma_fn(v), 5e-309, "gamma_fn", "x=5e-309"),
    "sigma_H": (lambda v: sigma_H(v, H), 1e-200, "sigma_H", "theta=1e-200, H=0.65"),
    "phi_statistic-sigma_H": (lambda v: phi_statistic(1.0, v, H, 10, 0.1), 1e-200,
                              "sigma_H", "theta=1e-200, H=0.65"),
    "phi_statistic": (lambda v: phi_statistic(1.0, v, HurstParam(0.6), 10, 0.1), 1e-200,
                      "phi_statistic", "theta_tilde=1.0, theta=1e-200, H=0.6, n=10, d=0.1"),
    # sigma_H is finite here, so phi_statistic's own |p'| / sqrt(V) check refuses
    "phi_statistic-slope": (lambda v: phi_statistic(1.0, v, HurstParam(0.6), 10, 0.1), 1e-150,
                            "phi_statistic",
                            "theta_tilde=1.0, theta=1e-150, H=0.6, n=10, d=0.1"),
    # boundary_variance itself stays in range (1.27e-200 at theta = 1e-200);
    # below about 1e-205 its p at H = 3/4 does not
    "boundary_variance": (lambda v: boundary_variance(v), 1e-300, "stationary_second_moment",
                          "theta=1e-300, H=0.75"),
    "ExperimentConfig-lse": (lambda v: replace(LSE_CONFIG, theta_true=v), 1e-300,
                             "correction_integral", "theta=1e-300, H=0.6, big_t=5.0"),
    "run_rate_experiment-T": (lambda v: run_rate_experiment(LSE_CONFIG, [5.0, v]), 1e300,
                              "correction_integral", "theta=1.0, H=0.6, big_t=1e+300"),
    "run_clt_experiment": (lambda v: run_clt_experiment(replace(CONFIG, theta_true=v)), 1e-200,
                           "phi_statistic",
                           "theta_tilde=1e-200, theta=1e-200, H=0.6, n=100, d=0.05"),
}

# An estimator's denominator, read from the path, is checked as a positive
# real: (call with the path, the denominator's name)
DENOMINATORS = {
    "lse_skorohod": (lambda x: lse_skorohod(x, H, 1.0), "int X^2 dt"),
    "nonergodic_estimator": (nonergodic_estimator, "int X^2 dt"),
    "practical_estimator": (lambda x: practical_estimator(x, H), "empirical second moment"),
    "mle": (lambda x: mle(x, H, 8), "int Q^2 d<M>"),
}
ZERO_PATH = SamplePath(d=0.1, values=np.zeros(16))


# "<case>-<value>": (call, name, value, message)
ROWS = {
    **{
        f"{case}-{label}": (call, name, value, message)
        for cases, values in ((POSITIVE, NOT_POSITIVE), (FINITE, NOT_FINITE),
                              (WHOLE, NOT_WHOLE), (POSITIVE, NOT_A_NUMBER),
                              (FINITE, NOT_A_NUMBER), (WHOLE, NOT_A_NUMBER),
                              (NUMBER, NOT_A_NUMBER))
        for case, (call, name) in cases.items()
        for label, (value, message) in values.items()
        if not (case in CACHED and label == "list")
    },
    **{
        f"{case}-{label}": (call, name, value, "must be " + (
            f"at least {low}" if high is None else f"in [{low}, {high}]") + f", got {value}")
        for case, (call, name, low, high) in COUNT.items()
        for label, value in (("below", low - 1), ("above", None if high is None else high + 1))
        if value is not None
    },
    **{
        f"{name}-hurst": (lambda hh, call=call: call(HurstParam(hh)), name, hh,
                          f"requires {needs}, got H={hh}")
        for name, (call, needs, hh) in HURST.items()
    },
    **{
        f"{case}-hurst": (call, name, hh, f"requires {needs}, got H={hh}")
        for case, (call, name, needs, hh) in CONFIG_HURST.items()
    },
    **{
        f"{case}-float-range": (call, name, value, f"is out of the float range at {where}")
        for case, (call, value, name, where) in FLOAT_RANGE.items()
    },
    **{
        f"{case}-zero-path": (call, name, ZERO_PATH, "must be positive, got 0.0")
        for case, (call, name) in DENOMINATORS.items()
    },
    "correction_integral-negative-T": (lambda v: correction_integral(1.0, H, v),
                                       "correction_integral", -1.0, "requires T >= 0, got -1.0"),
    # p is inverted on [1e-300, 1e300] at every H, so 1/y stays finite at H = 1/2
    "invert_p-brownian-tiny-y": (lambda v: invert_p(v, HurstParam(0.5)), "moment", 1e-310,
                                 "y=1e-310 outside [1e-300, 1e300], where p is inverted"),
}


@pytest.mark.parametrize("call,name,value,message", ROWS.values(), ids=ROWS.keys())
def test_bad_scalar_refused_by_name(call, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} {message}')}$"):
        call(value)


def test_hurst_index_past_the_float_range():
    message = "Hurst index is out of range, got an integer of 1329 bits"
    with pytest.raises(ValueError, match=f"^{message}$"):
        HurstParam(HUGE)


@pytest.mark.parametrize("case", CACHED)
def test_unhashable_argument_refused_by_the_cache(case):
    call, _ = POSITIVE.get(case) or FINITE[case]
    with pytest.raises(TypeError, match="unhashable"):
        call([1.0])


@pytest.mark.parametrize("call", [row[0] for row in HURST.values()] + [*HURST_ANY.values()],
                         ids=[*HURST.keys(), *HURST_ANY.keys()])
def test_hurst_must_be_a_hurst_param(call):
    with pytest.raises(TypeError, match="^expected HurstParam, got float$"):
        call(0.65)


def test_decimal_reads_as_its_float():
    def path(num):
        return euler_msfou(theta=num("1.5"), H=H, d=num("0.1"), N=50, seed=3, x0=num("0.5"))

    assert path(Decimal).values.tobytes() == path(float).values.tobytes()

    def table(num):
        cfg = replace(CONFIG, theta_true=num("1.5"), H=num("0.6"), d=num("0.05"), T=num("5"),
                      x0=num("0.5"))
        return run_table_experiment(cfg)

    assert table(Decimal) == table(float)
