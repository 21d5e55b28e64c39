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
from .noise import HurstParam, HurstRegime
from .paths import SamplePath, euler_msfou

__all__ = [
    "ExperimentConfig",
    "SummaryStats",
    "summarize",
    "run_table_experiment",
    "run_clt_experiment",
    "run_rate_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.

    N = round(T/d) sampling steps per path. ``mle_mesh`` sizes the
    estimation mesh used when estimator = MLE. The JSON config of the CLI
    carries the same field names (see ``from_dict``).

    A config its estimator cannot apply to is rejected here, before any
    path is simulated, with a ValueError naming the field: every numeric
    field but H, and N = round(T/d), must be finite and within the float
    range (H must lie in (0, 1)), and replications, master_seed and
    mle_mesh integers (300.0 is accepted); LSE needs
    theta_true > 0 and H > 1/2; practical and MLE H >= 1/2; MLE 8 <= mle_mesh <= N.
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
        for name in ("theta_true", "x0", "d", "T", "replications", "master_seed", "mle_mesh"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an integer beyond the float range
                raise ValueError(
                    f"{name} is out of range, got an integer of {value.bit_length()} bits"
                ) from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("replications", "master_seed", "mle_mesh"):
            if not float(getattr(self, name)).is_integer():
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"H must lie in (0, 1), got {self.H}")
        if int(self.replications) < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError(f"master_seed must fit in 64 unsigned bits, got {self.master_seed}")
        if not self.d > 0.0 or not self.T > 0.0:
            raise ValueError(f"d and T must be positive, got d={self.d}, T={self.T}")
        if math.isinf(self.T / self.d):
            raise ValueError(f"N = round(T/d) must be finite, got d={self.d}, T={self.T}")
        if self.n_steps < 2:
            raise ValueError(f"N = round(T/d) must be >= 2, got {self.n_steps}")
        if self.estimator is Method.LSE_SKOROHOD:
            if not self.theta_true > 0.0:
                raise ValueError(f"estimator lse needs theta_true > 0, got {self.theta_true}")
            if not self.H > 0.5:
                raise ValueError(f"estimator lse needs H > 1/2, got {self.H}")
        if self.estimator in (Method.PRACTICAL, Method.MLE) and not self.H >= 0.5:
            raise ValueError(f"estimator {self.estimator.value} needs H >= 1/2, got {self.H}")
        if self.estimator is Method.MLE and not 8 <= int(self.mle_mesh) <= self.n_steps:
            raise ValueError(
                f"estimator mle needs mle_mesh in [8, N={self.n_steps}], got {self.mle_mesh}"
            )
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "mle_mesh", int(self.mle_mesh))

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
        for name, value in raw.items():
            if name != "estimator" and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(f"{name} must be a number, got {value!r}")
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
        if int(self.n_failed) < 0:
            raise ValueError(f"n_failed must be nonnegative, got {self.n_failed}")
        object.__setattr__(self, "n_failed", int(self.n_failed))


def summarize(sample, n_failed: int = 0) -> SummaryStats:
    """Moment statistics of a sample; median by exact lower-middle selection.

    Skewness is m3/m2^(3/2) and kurtosis m4/m2^2 (plain, not excess) with
    central moments m_k; a constant sample reports both as 0. The standard
    deviation uses the n-1 normalization (0 for a single point).
    """
    arr = np.sort(np.asarray(sample, dtype=float))
    n = arr.size
    if n < 1:
        raise ValueError("cannot summarize an empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite entries")
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


def _replication_seed(master_seed: int, rep: int) -> int:
    """Disjoint per-replication seed via the spawn-key stream derivation."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(ss.generate_state(1, np.uint64)[0])


def _simulate_one(cfg: ExperimentConfig, rep: int) -> SamplePath:
    return euler_msfou(
        theta=cfg.theta_true,
        H=cfg.hurst,
        d=cfg.d,
        N=cfg.n_steps,
        seed=_replication_seed(cfg.master_seed, rep),
        x0=cfg.x0,
    )


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
        path = _simulate_one(cfg, rep)
        estimate = _ESTIMATORS[cfg.estimator]
        return estimate(path, cfg.hurst, cfg.theta_true, cfg.mle_mesh).theta_hat
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError):
        return None


# Replications per task a worker takes from the pool.
_CHUNK = 8


def _run_replications(cfg: ExperimentConfig, workers: int) -> tuple[np.ndarray, int]:
    """Estimates in replication order (both maps keep input order), failure count.

    The pool starts at most one process per chunk of replications: under
    the fork start method it starts all its workers at the first task, and
    a worker without a chunk would only idle.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cfgs, reps = [cfg] * cfg.replications, range(cfg.replications)
    if workers == 1:
        results = list(map(_guarded_estimate, cfgs, reps))
    else:
        processes = min(workers, -(-cfg.replications // _CHUNK))
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(_guarded_estimate, cfgs, reps, chunksize=_CHUNK))
    estimates = [value for value in results if value is not None]
    n_failed = cfg.replications - len(estimates)
    return np.array(estimates, dtype=float), n_failed


def run_table_experiment(cfg: ExperimentConfig, workers: int = 1) -> SummaryStats:
    """Monte Carlo summary of the configured estimator (table row)."""
    estimates, n_failed = _run_replications(cfg, workers)
    if estimates.size == 0:
        raise RuntimeError(f"all {cfg.replications} replications failed")
    return summarize(estimates, n_failed)


def _check_clt_config(cfg: ExperimentConfig) -> None:
    """ValueError unless the CLT experiment applies: practical, 1/2 < H < 3/4."""
    if cfg.estimator is not Method.PRACTICAL:
        raise ValueError(
            f"the CLT experiment needs estimator practical, got {cfg.estimator.value}"
        )
    if not 0.5 < cfg.H < 0.75:
        raise ValueError(f"the CLT experiment needs 1/2 < H < 3/4, got H={cfg.H}")


def _check_rate_config(cfg: ExperimentConfig) -> None:
    """ValueError unless the rate experiment applies: corrected LSE."""
    if cfg.estimator is not Method.LSE_SKOROHOD:
        raise ValueError(
            f"the rate experiment needs estimator lse, got {cfg.estimator.value}"
        )


def run_clt_experiment(
    cfg: ExperimentConfig, workers: int = 1
) -> tuple[np.ndarray, SummaryStats]:
    """Standardized-error sample for the moment estimator plus its summary.

    Per replication, Phi = phi_statistic(theta_tilde, theta_true, ...) with
    theta_tilde from the practical estimator; requires 1/2 < H < 3/4 and
    estimator = PRACTICAL. Replications run and fail exactly as in
    ``run_table_experiment``.
    """
    _check_clt_config(cfg)
    estimates, n_failed = _run_replications(cfg, workers)
    if estimates.size == 0:
        raise RuntimeError(f"all {cfg.replications} replications failed")
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


def run_rate_experiment(
    cfg: ExperimentConfig, t_grid, workers: int = 1
) -> list[tuple[float, float, int]]:
    """Scaled-error sdev of the corrected LSE across a grid of horizons.

    For each T, runs the experiment with that horizon (fresh seed stream
    per grid entry) and reports (T, sdev of scale(T) * (theta_bar - theta),
    n_failed). The scaling matches the asymptotic regime of H, so the
    column is approximately flat in T when the rate is right.
    """
    _check_rate_config(cfg)
    rows = []
    for t_idx, big_t in enumerate(t_grid):
        big_t = float(big_t)
        seed_t = int(
            np.random.SeedSequence(
                entropy=cfg.master_seed, spawn_key=(t_idx, 1)
            ).generate_state(1, np.uint64)[0]
        )
        cfg_t = replace(cfg, T=big_t, master_seed=seed_t)
        estimates, n_failed = _run_replications(cfg_t, workers)
        if estimates.size < 2:
            raise RuntimeError(f"too few successful replications at T={big_t}")
        scaled = _rate_scale(big_t, cfg.hurst) * (estimates - cfg.theta_true)
        rows.append((big_t, float(np.std(scaled, ddof=1)), n_failed))
    return rows
