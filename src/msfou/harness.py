"""Reproducible Monte Carlo experiments over the drift estimators.

Each replication simulates one mixed sub-fractional OU path from a
deterministically derived seed and applies the configured estimator.
Replication seeds come from the master seed through the same SeedSequence
spawn-key derivation the noise generators use, so streams are disjoint and
the whole experiment is a pure function of its config: results are
bit-identical across reruns and worker counts (aggregation always walks
replications in index order; parallel execution only reorders the work,
never the reduction).

Failed replications (degenerate denominators, non-converged solves) are
counted in ``n_failed`` and excluded from the statistics, never imputed.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .estimators import (
    Method,
    lse_skorohod,
    nonergodic_estimator,
    phi_statistic,
    practical_estimator,
)
from .mle import mle
from .noise import HurstParam, HurstRegime, _as_float, _count, _finite, _finite_vector, _hurst
from .noise import _positive, _whole_number
from .numerics import correction_integral
from .paths import euler_msfou

__all__ = [
    "ExperimentConfig",
    "SummaryStats",
    "summarize",
    "run_table_experiment",
    "run_clt_experiment",
    "run_rate_experiment",
]


# The Hurst range each estimator holds on (see ``noise._hurst``).
_NEEDS_HURST = {
    Method.LSE_SKOROHOD: "H > 1/2",
    Method.PRACTICAL: "H >= 1/2",
    Method.MLE: "H >= 1/2",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    N = round(T/d) sampling steps per path. ``mle_mesh`` sizes the
    estimation mesh used when estimator = MLE. The JSON config of the CLI
    carries the same field names (see ``from_dict``).

    A config its estimator cannot apply to is rejected here, before any
    path is simulated, with a ValueError naming the field: every field but
    estimator must be a number ("x0 must be a number, got '1'"); every
    numeric field but H must be finite ("x0 must be finite, got nan") and
    within the float range ("x0 is out of range, got an integer of 1329
    bits"); d and T positive, N = round(T/d) finite, and replications,
    master_seed and mle_mesh whole numbers ("replications must be a whole
    number, got 2.5"; 300.0 reads as 300) with replications >= 1 and
    master_seed in [0, 2**64 - 1]. H is read through ``HurstParam``, so it
    must lie in (0, 1) ("Hurst index must lie in (0, 1), got 1.5"). LSE
    needs theta_true > 0 and H > 1/2 ("estimator lse requires H > 1/2, got
    H=0.5") and its correction integral in the float range; practical and
    MLE H >= 1/2; MLE 8 <= mle_mesh <= N. The checked floats are kept, so
    a Decimal reads as its float.
    """

    theta_true: float
    H: float
    d: float
    T: float
    replications: int
    master_seed: int
    estimator: Method
    x0: float = 0.0
    mle_mesh: int = 128

    def __post_init__(self) -> None:
        if not isinstance(self.estimator, Method):
            raise TypeError(f"estimator must be a Method, got {self.estimator!r}")
        for name, check in (("theta_true", _finite), ("x0", _finite), ("d", _positive),
                            ("T", _positive)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        object.__setattr__(self, "H", HurstParam(_as_float("H", self.H)).h)
        for name, low, high in (("replications", 1, None), ("master_seed", 0, 2**64 - 1)):
            # "must be finite" before "must be a whole number"
            _finite(name, getattr(self, name))
            object.__setattr__(self, name, _count(name, getattr(self, name), low, high))
        _finite("mle_mesh", self.mle_mesh)
        object.__setattr__(self, "mle_mesh", _whole_number("mle_mesh", self.mle_mesh))
        if math.isinf(self.T / self.d):
            raise ValueError(f"N = round(T/d) must be finite, got d={self.d}, T={self.T}")
        if self.n_steps < 2:
            raise ValueError(f"N = round(T/d) must be >= 2, got {self.n_steps}")
        if self.estimator is Method.LSE_SKOROHOD and not self.theta_true > 0.0:
            raise ValueError(f"estimator lse needs theta_true > 0, got {self.theta_true}")
        needs = _NEEDS_HURST.get(self.estimator, "")
        _hurst(f"estimator {self.estimator.value}", self.hurst, needs)
        if self.estimator is Method.LSE_SKOROHOD:
            correction_integral(self.theta_true, self.hurst, self.n_steps * self.d)
        if self.estimator is Method.MLE and not 8 <= self.mle_mesh <= self.n_steps:
            raise ValueError(
                f"estimator mle needs mle_mesh in [8, N={self.n_steps}], got {self.mle_mesh}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.d))

    @property
    def hurst(self) -> HurstParam:
        return HurstParam(self.H)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from a plain mapping (JSON config); estimator by CLI name.

        Keys are the dataclass field names. A value that is not a mapping,
        unknown keys, missing fields without a default, a field other than
        estimator whose value is not a number (a string, null or a boolean)
        and an estimator that is not a CLI name raise ValueError naming them.
        """
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config fields: {sorted(missing)}")
        data = dict(raw)
        try:
            data["estimator"] = Method(data["estimator"])
        except ValueError:
            names = ", ".join(method.value for method in Method)
            raise ValueError(
                f"estimator must be one of {names}, got {raw['estimator']!r}"
            ) from None
        return cls(**data)


@dataclass(frozen=True)
class SummaryStats:
    """Moment summary of the successful replications of one experiment."""

    mean: float
    median: float
    sdev: float
    skewness: float
    kurtosis: float
    n_failed: int

    def __post_init__(self) -> None:
        if self.sdev < 0.0:
            raise ValueError(f"sdev must be nonnegative, got {self.sdev}")
        object.__setattr__(self, "n_failed", _count("n_failed", self.n_failed, 0))


def summarize(sample, n_failed: int = 0) -> SummaryStats:
    """Moment statistics of a sample; median by exact lower-middle selection.

    Skewness is m3/m2^(3/2) and kurtosis m4/m2^2 (plain, not excess) with
    central moments m_k; a constant sample reports both as 0. The standard
    deviation uses the n-1 normalization (0 for a single point).
    """
    arr = np.sort(_finite_vector("sample", sample))
    n = arr.size
    if n < 1:
        raise ValueError("cannot summarize an empty sample")
    mean = float(np.mean(arr))
    median = float(arr[(n - 1) // 2])
    sdev = float(np.std(arr, ddof=1)) if n > 1 else 0.0
    centered = arr - mean
    m2 = float(np.mean(centered**2))
    if m2 > 0.0:
        skewness = float(np.mean(centered**3)) / m2**1.5
        kurtosis = float(np.mean(centered**4)) / (m2 * m2)
    else:
        skewness = 0.0
        kurtosis = 0.0
    return SummaryStats(
        mean=mean,
        median=median,
        sdev=sdev,
        skewness=skewness,
        kurtosis=kurtosis,
        n_failed=n_failed,
    )


def _replication_seed(master_seed: int, *spawn_key: int) -> int:
    """Disjoint seed per spawn key (a replication's is (rep,)) via the stream derivation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


# The one Method -> estimator mapping, shared with the CLI. Every entry takes
# (path, hurst, theta_ref, mle_mesh) and uses what its estimator needs. The
# lambdas look the estimators up as module globals at call time, so a
# wrapped or patched global is the one that runs.
_ESTIMATORS = {
    Method.PRACTICAL: lambda x, h, theta_ref, mesh: practical_estimator(x, h),
    Method.LSE_SKOROHOD: lambda x, h, theta_ref, mesh: lse_skorohod(x, h, theta_ref),
    Method.NONERGODIC: lambda x, h, theta_ref, mesh: nonergodic_estimator(x),
    Method.MLE: lambda x, h, theta_ref, mesh: mle(x, h, mesh),
}


def _guarded_estimate(cfg: ExperimentConfig, rep: int) -> float | None:
    """One replication: simulate, estimate, theta_hat; None on a numerical failure."""
    try:
        # by keyword: fakes patched over euler_msfou may take keywords only
        path = euler_msfou(
            theta=cfg.theta_true,
            H=cfg.hurst,
            d=cfg.d,
            N=cfg.n_steps,
            seed=_replication_seed(cfg.master_seed, rep),
            x0=cfg.x0,
        )
        estimate = _ESTIMATORS[cfg.estimator]
        return estimate(path, cfg.hurst, cfg.theta_true, cfg.mle_mesh).theta_hat
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError):
        return None


class _ReplicationsFailed(RuntimeError):
    """Too few replications of an experiment succeeded to summarize them."""


# Replications per task a worker takes from the pool.
_CHUNK = 8


def _run_replications(cfg: ExperimentConfig, workers: int) -> tuple[np.ndarray, int]:
    """Estimates in replication order (both maps keep input order), failure count.

    A pooled run runs replication 0 here first, so the forked workers
    inherit the caches it fills (the likelihood's grid plan above all), and
    maps the rest with at most one process per chunk: a fork pool starts
    all its workers at the first task. A run of one process (one worker, or
    one chunk after replication 0) starts no pool.
    """
    workers = _count("workers", workers, 1)
    cfgs, reps = [cfg] * cfg.replications, range(cfg.replications)
    processes = min(workers, -(-(cfg.replications - 1) // _CHUNK))
    if processes <= 1:
        results = list(map(_guarded_estimate, cfgs, reps))
    else:
        import multiprocessing

        results = [_guarded_estimate(cfg, 0)]
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=processes, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            results += pool.map(_guarded_estimate, cfgs[1:], reps[1:], chunksize=_CHUNK)
    estimates = [value for value in results if value is not None]
    n_failed = cfg.replications - len(estimates)
    return np.array(estimates, dtype=float), n_failed


def run_table_experiment(cfg: ExperimentConfig, workers: int = 1) -> SummaryStats:
    """Monte Carlo summary of the configured estimator (table row)."""
    estimates, n_failed = _run_replications(cfg, workers)
    if estimates.size == 0:
        raise _ReplicationsFailed(f"all {cfg.replications} replications failed")
    return summarize(estimates, n_failed)


def _check_clt_config(cfg: ExperimentConfig) -> None:
    """ValueError unless the CLT experiment applies: practical, 1/2 < H < 3/4, theta_true > 0."""
    if cfg.estimator is not Method.PRACTICAL:
        raise ValueError(
            f"the CLT experiment needs estimator practical, got {cfg.estimator.value}"
        )
    _hurst("the CLT experiment", cfg.hurst, "1/2 < H < 3/4")
    # Phi standardizes by p(theta_true), which is defined for theta > 0 only
    if not cfg.theta_true > 0.0:
        raise ValueError(f"the CLT experiment needs theta_true > 0, got {cfg.theta_true}")
    # and its constants |p'(theta)| and sqrt(V) must be floats there
    phi_statistic(cfg.theta_true, cfg.theta_true, cfg.hurst, cfg.n_steps, cfg.d)


def _check_rate_config(cfg: ExperimentConfig) -> None:
    """ValueError unless the rate experiment applies: corrected LSE, replications >= 2."""
    if cfg.estimator is not Method.LSE_SKOROHOD:
        raise ValueError(
            f"the rate experiment needs estimator lse, got {cfg.estimator.value}"
        )
    # a sample deviation needs two estimates
    if cfg.replications < 2:
        raise ValueError(f"the rate experiment needs replications >= 2, got {cfg.replications}")


def run_clt_experiment(
    cfg: ExperimentConfig, workers: int = 1
) -> tuple[np.ndarray, SummaryStats]:
    """Standardized-error sample for the moment estimator plus its summary.

    Per replication, Phi = phi_statistic(theta_tilde, theta_true, ...) with
    theta_tilde from the practical estimator; requires 1/2 < H < 3/4,
    theta_true > 0 and estimator = PRACTICAL, and raises ValueError before
    the first replication otherwise. Replications run and fail exactly as
    in ``run_table_experiment``.
    """
    _check_clt_config(cfg)
    estimates, n_failed = _run_replications(cfg, workers)
    if estimates.size == 0:
        raise _ReplicationsFailed(f"all {cfg.replications} replications failed")
    hurst = cfg.hurst
    phi = np.array(
        [
            phi_statistic(th, cfg.theta_true, hurst, cfg.n_steps, cfg.d)
            for th in estimates
        ]
    )
    return phi, summarize(phi, n_failed)


def _rate_scale(big_t: float, h: HurstParam) -> float:
    """Regime-appropriate error scaling: sqrt(T), sqrt(T/log T), T^(2-2H)."""
    if h.regime is HurstRegime.BOUNDARY:
        return math.sqrt(big_t / math.log(big_t))
    if h.regime is HurstRegime.ROSENBLATT:
        return big_t ** (2.0 - 2.0 * h.h)
    return math.sqrt(big_t)


def _rate_configs(cfg: ExperimentConfig, t_grid) -> list[ExperimentConfig]:
    """cfg at each horizon of t_grid, each with a fresh seed stream.

    ValueError on an empty grid, on a horizon the config rejects and, at
    H = 3/4, where the scale sqrt(T/log T) needs T > 1, on T <= 1.
    """
    configs = [
        replace(cfg, T=big_t, master_seed=_replication_seed(cfg.master_seed, t_idx, 1))
        for t_idx, big_t in enumerate(t_grid)
    ]
    if not configs:
        raise ValueError("must list at least one horizon")
    for cfg_t in configs:
        if cfg.hurst.regime is HurstRegime.BOUNDARY and cfg_t.T <= 1.0:
            raise ValueError(f"at H = 3/4 every horizon must exceed 1, got T={cfg_t.T}")
    return configs


def run_rate_experiment(
    cfg: ExperimentConfig, t_grid, workers: int = 1
) -> list[tuple[float, float, int]]:
    """Scaled-error sdev of the corrected LSE across a grid of horizons.

    For each T, runs the experiment with that horizon (fresh seed stream
    per grid entry) and reports (T, sdev of scale(T) * (theta_bar - theta),
    n_failed). The scaling matches the asymptotic regime of H, so the
    column is approximately flat in T when the rate is right. The config
    and every horizon are checked before the first replication runs:
    ValueError for fewer than two replications, an empty grid, a horizon
    the config rejects or, at H = 3/4, a horizon T <= 1.
    """
    _check_rate_config(cfg)
    rows = []
    for cfg_t in _rate_configs(cfg, t_grid):
        estimates, n_failed = _run_replications(cfg_t, workers)
        if estimates.size < 2:
            raise _ReplicationsFailed(f"too few successful replications at T={cfg_t.T}")
        scaled = _rate_scale(cfg_t.T, cfg.hurst) * (estimates - cfg.theta_true)
        rows.append((cfg_t.T, float(np.std(scaled, ddof=1)), n_failed))
    return rows
