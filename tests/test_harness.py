"""Tests for the Monte Carlo harness.

Covers:
  1. ExperimentConfig validation and dict loading.
  2. summarize against an independent moment implementation (scipy.stats).
  3. Per-replication seed derivation.
  4. run_table_experiment: determinism, worker-count invariance, failure
     accounting, invariance to the state of the noise spectrum cache.
  5. run_clt_experiment: gates and the standardization pipeline.
  6. run_rate_experiment: gates, shape, and the regime scaling map.
  7. All three experiments reject workers below 1 before any path.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from msfou import (
    ExperimentConfig,
    HurstParam,
    Method,
    SamplePath,
    SummaryStats,
    harness,
    noise,
    phi_statistic,
    run_clt_experiment,
    run_rate_experiment,
    run_table_experiment,
    summarize,
)
from msfou.harness import _rate_scale, _replication_seed


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        theta_true=1.0,
        H=0.6,
        d=0.05,
        T=5.0,
        replications=8,
        master_seed=123,
        estimator=Method.PRACTICAL,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

class TestExperimentConfig:
    def test_n_steps_rounds(self):
        assert _config(T=1.0, d=0.3).n_steps == 3
        assert _config(T=20.0, d=0.004).n_steps == 5000

    def test_hurst_property(self):
        assert _config(H=0.65).hurst.h == 0.65

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(H=1.0),
            dict(H=0.0),
            dict(replications=0),
            dict(master_seed=2**64),
            dict(master_seed=-1),
            dict(d=-0.1),
            dict(T=0.0),
            dict(T=0.001, d=0.01),  # N = round(T/d) < 2
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            _config(**overrides)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(estimator=Method.LSE_SKOROHOD, theta_true=-1.0), "theta_true"),
            (dict(estimator=Method.LSE_SKOROHOD, theta_true=0.0), "theta_true"),
            (dict(estimator=Method.LSE_SKOROHOD, H=0.5), "H"),
            (dict(estimator=Method.MLE, mle_mesh=4), "mle_mesh"),
            (dict(estimator=Method.MLE, mle_mesh=128), "mle_mesh"),  # N = 100
            (dict(estimator=Method.PRACTICAL, H=0.3), "H >= 1/2"),
            (dict(estimator=Method.MLE, H=0.3, mle_mesh=8), "H >= 1/2"),
            (dict(theta_true=math.nan), "theta_true must be finite"),
            (dict(x0=math.nan), "x0 must be finite"),
            (dict(d=math.inf), "d must be finite"),
            (dict(T=math.inf), "T must be finite"),
            (dict(replications=math.inf), "replications must be finite"),
            (dict(master_seed=math.inf), "master_seed must be finite"),
            (dict(replications=2.5), "replications must be a whole number, got 2.5"),
            (dict(master_seed=1.5), "master_seed must be a whole number, got 1.5"),
            (dict(estimator=Method.MLE, mle_mesh=8.9), "mle_mesh must be a whole number, got 8.9"),
            (dict(mle_mesh=8.9), "mle_mesh must be a whole number, got 8.9"),
            (dict(master_seed=10**400), "master_seed is out of range, got an integer of 1329 bits"),
            (dict(x0=10**400), "x0 is out of range"),
            (dict(estimator=Method.MLE, mle_mesh=10**400), "mle_mesh is out of range"),
            (dict(mle_mesh=-(10**400)), "mle_mesh is out of range"),
            (dict(T=1e300, d=1e-300), r"N = round\(T/d\) must be finite"),
        ],
        ids=["lse-negative-theta", "lse-zero-theta", "lse-brownian-H", "mle-mesh-below-8",
             "mle-mesh-above-N", "practical-H-below-half", "mle-H-below-half",
             "nan-theta", "nan-x0", "infinite-d", "infinite-T", "infinite-replications",
             "infinite-master-seed", "fractional-replications", "fractional-master-seed",
             "fractional-mle-mesh", "fractional-mle-mesh-unused", "huge-master-seed",
             "huge-x0", "huge-mle-mesh", "huge-mle-mesh-unused", "infinite-N"],
    )
    def test_rejects_fields_the_estimator_cannot_use(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            _config(**overrides)

    def test_estimator_bounds_are_inclusive(self):
        assert _config(estimator=Method.MLE, mle_mesh=8).mle_mesh == 8
        assert _config(estimator=Method.MLE, mle_mesh=100).mle_mesh == 100
        assert _config(estimator=Method.NONERGODIC, theta_true=-1.0, H=0.5).theta_true == -1.0
        assert _config(estimator=Method.PRACTICAL, H=0.5).H == 0.5
        assert _config(estimator=Method.MLE, H=0.5, mle_mesh=8).H == 0.5

    def test_integral_floats_are_accepted(self):
        cfg = _config(replications=300.0, master_seed=7.0, mle_mesh=16.0)
        assert (cfg.replications, cfg.master_seed, cfg.mle_mesh) == (300, 7, 16)
        assert all(type(v) is int for v in (cfg.replications, cfg.master_seed, cfg.mle_mesh))

    def test_estimator_must_be_method(self):
        with pytest.raises(TypeError):
            _config(estimator="practical")

    def test_from_dict_round_trip(self):
        raw = {
            "theta_true": 0.5,
            "H": 0.65,
            "d": 0.01,
            "T": 2.0,
            "replications": 4,
            "master_seed": 7,
            "estimator": "lse",
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.estimator is Method.LSE_SKOROHOD
        assert cfg.theta_true == 0.5
        assert cfg.x0 == 0.0  # default preserved

    def test_from_dict_rejects_unknown_keys(self):
        raw = {
            "theta_true": 1.0,
            "H": 0.6,
            "d": 0.1,
            "T": 1.0,
            "replications": 2,
            "master_seed": 1,
            "estimator": "mle",
            "workers": 4,
        }
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_missing_fields(self):
        raw = {
            "theta_true": 1.0,
            "H": 0.6,
            "d": 0.1,
            "replications": 2,
            "master_seed": 1,
        }
        with pytest.raises(ValueError, match=r"missing config fields: \['T', 'estimator'\]"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "field,value",
        [("replications", "5"), ("x0", None), ("H", "0.65"), ("T", True), ("d", False),
         ("master_seed", [1])],
        ids=["string-replications", "null-x0", "string-H", "true-T", "false-d", "list-seed"],
    )
    def test_from_dict_rejects_non_numbers(self, field, value):
        raw = {
            "theta_true": 1.0,
            "H": 0.6,
            "d": 0.1,
            "T": 1.0,
            "replications": 2,
            "master_seed": 1,
            "estimator": "practical",
            field: value,
        }
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize(
        "raw", [[1, 2], "cfg", 3.0, None], ids=["list", "string", "number", "null"]
    )
    def test_from_dict_rejects_non_object(self, raw):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_rejects_unknown_estimator(self):
        raw = {
            "theta_true": 1.0,
            "H": 0.6,
            "d": 0.1,
            "T": 1.0,
            "replications": 2,
            "master_seed": 1,
        }
        for value, shown in (("bogus", "'bogus'"), (3, "3")):
            raw["estimator"] = value
            with pytest.raises(
                ValueError,
                match=f"^estimator must be one of mle, lse, practical, nonergodic, got {shown}$",
            ):
                ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

class TestSummarize:
    def test_against_scipy_moments(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(size=257)
        s = summarize(sample)
        assert s.mean == pytest.approx(float(np.mean(sample)), rel=1e-14)
        assert s.sdev == pytest.approx(float(np.std(sample, ddof=1)), rel=1e-14)
        assert s.skewness == pytest.approx(
            float(scipy.stats.skew(sample, bias=True)), rel=1e-12
        )
        assert s.kurtosis == pytest.approx(
            float(scipy.stats.kurtosis(sample, fisher=False, bias=True)), rel=1e-12
        )

    def test_median_is_lower_middle_order_statistic(self):
        assert summarize([3.0, 1.0]).median == 1.0
        assert summarize([5.0, 1.0, 3.0]).median == 3.0
        assert summarize([4.0, 2.0, 8.0, 6.0]).median == 4.0

    def test_single_point(self):
        s = summarize([2.5])
        assert (s.mean, s.median, s.sdev) == (2.5, 2.5, 0.0)
        assert (s.skewness, s.kurtosis) == (0.0, 0.0)

    def test_constant_sample(self):
        s = summarize(np.full(10, 1.5))
        assert s.sdev == 0.0
        assert s.skewness == 0.0
        assert s.kurtosis == 0.0

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            summarize([1.0, float("nan")])

    def test_failure_count_carried(self):
        assert summarize([1.0, 2.0], n_failed=3).n_failed == 3
        with pytest.raises(ValueError):
            SummaryStats(mean=0, median=0, sdev=-1.0, skewness=0, kurtosis=0, n_failed=0)


# ---------------------------------------------------------------------------
# replication seeds
# ---------------------------------------------------------------------------

class TestReplicationSeed:
    def test_deterministic(self):
        assert _replication_seed(42, 7) == _replication_seed(42, 7)

    def test_distinct_across_reps_and_masters(self):
        seeds = {_replication_seed(42, r) for r in range(100)}
        assert len(seeds) == 100
        assert _replication_seed(42, 0) != _replication_seed(43, 0)

    def test_matches_spawn_key_derivation(self):
        ss = np.random.SeedSequence(entropy=42, spawn_key=(7,))
        assert _replication_seed(42, 7) == int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# table experiments
# ---------------------------------------------------------------------------

class TestRunTableExperiment:
    def test_bit_identical_reruns(self):
        cfg = _config()
        a = run_table_experiment(cfg)
        b = run_table_experiment(cfg)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        # two chunks of replications, so two workers start a pool of two
        cfg = _config(replications=16, T=2.0, d=0.1)
        serial = run_table_experiment(cfg, workers=1)
        parallel = run_table_experiment(cfg, workers=2)
        assert serial == parallel

    def test_spectrum_cache_state_does_not_change_results(self):
        # cold cache, warm cache, and forked pool workers that inherit the
        # warm cache all give the same statistics (two chunks: a pool of two)
        cfg = _config(H=0.65, replications=16, T=2.0, d=0.01)
        noise._circulant_sqrt_eig.cache_clear()
        cold = run_table_experiment(cfg)
        assert noise._circulant_sqrt_eig.cache_info().misses == 1
        warm = run_table_experiment(cfg)
        pooled = run_table_experiment(cfg, workers=2)
        assert cold == warm == pooled

    @pytest.mark.parametrize(
        "replications,workers,processes",
        [(2, 4, 1), (8, 2, 1), (9, 4, 1), (10, 4, 2), (17, 2, 2), (40, 4, 4)],
    )
    def test_pool_starts_no_process_without_a_chunk(
        self, monkeypatch, replications, workers, processes
    ):
        # a pool may start all its processes at the first task (under fork
        # it does), and each process takes chunks of the replications after
        # the first, which runs in this process; a run of one process maps
        # in this one and starts no pool
        started = []

        class InProcessPool:
            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "fork"
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cfgs, reps, chunksize):
                assert list(reps) == list(range(1, replications))
                assert len(range(0, len(reps), chunksize)) >= processes  # a chunk each
                return map(fn, cfgs, reps)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = _config(replications=replications)
        stats = run_table_experiment(cfg, workers=workers)
        assert started == ([] if processes == 1 else [processes])
        assert stats == run_table_experiment(cfg)

    def test_estimates_depend_on_master_seed(self):
        a = run_table_experiment(_config(master_seed=1))
        b = run_table_experiment(_config(master_seed=2))
        assert a.mean != b.mean

    def test_all_failures_raise(self, monkeypatch):
        # every replication simulates the zero path and hits the
        # degenerate-moment gate
        monkeypatch.setattr(
            harness, "euler_msfou", lambda **kw: SamplePath(d=kw["d"], values=np.zeros(kw["N"]))
        )
        cfg = _config(replications=3)
        with pytest.raises(RuntimeError, match="failed"):
            run_table_experiment(cfg)

    def test_mean_is_sane_at_small_scale(self):
        cfg = _config(T=50.0, d=0.05, replications=10, master_seed=71)
        stats = run_table_experiment(cfg)
        print(f"  practical MC mean: {stats.mean:.4f} sdev: {stats.sdev:.4f}")
        assert 0.4 < stats.mean < 1.8
        assert stats.n_failed == 0


class TestWorkersBelowOne:
    @pytest.fixture(autouse=True)
    def _no_simulation(self, monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(harness, "euler_msfou", simulated)

    @pytest.mark.parametrize("workers", [0, -2])
    @pytest.mark.parametrize(
        "run",
        [
            lambda w: run_table_experiment(_config(), workers=w),
            lambda w: run_clt_experiment(_config(), workers=w),
            lambda w: run_rate_experiment(
                _config(estimator=Method.LSE_SKOROHOD), t_grid=[5.0], workers=w
            ),
        ],
        ids=["table", "clt", "rate"],
    )
    def test_rejected_before_any_path(self, run, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            run(workers)


# ---------------------------------------------------------------------------
# CLT experiments
# ---------------------------------------------------------------------------

class TestRunCltExperiment:
    def test_requires_practical_estimator(self):
        with pytest.raises(ValueError):
            run_clt_experiment(_config(estimator=Method.MLE, mle_mesh=64))

    def test_requires_clt_hurst_range(self):
        with pytest.raises(ValueError):
            run_clt_experiment(_config(H=0.8))

    @pytest.mark.parametrize("theta", [-0.5, 0.0])
    def test_requires_positive_theta_before_any_replication(self, monkeypatch, theta):
        # Phi is undefined at theta_true <= 0: the run must stop before it
        # simulates a path, not after every replication
        def simulated(*args, **kwargs):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(harness, "euler_msfou", simulated)
        with pytest.raises(ValueError, match=f"needs theta_true > 0, got {theta}"):
            run_clt_experiment(_config(theta_true=theta))

    def test_standardization_pipeline(self, monkeypatch):
        # deterministic estimates in place of the practical estimator: phi
        # must match the direct statistic and the summary summarize(phi)
        cfg = _config(replications=5)
        estimates = [1.0 + 0.1 * rep for rep in range(5)]
        queue = iter(estimates)
        monkeypatch.setattr(
            harness, "practical_estimator", lambda x, h: SimpleNamespace(theta_hat=next(queue))
        )
        phi, stats = run_clt_experiment(cfg)
        expected = np.array(
            [
                phi_statistic(th, cfg.theta_true, cfg.hurst, cfg.n_steps, cfg.d)
                for th in estimates
            ]
        )
        np.testing.assert_allclose(phi, expected, rtol=1e-14)
        assert stats == summarize(phi)

    def test_hook_failures_are_counted(self, monkeypatch):
        cfg = _config(replications=4)
        reps = iter(range(4))

        def flaky(x, h):
            rep = next(reps)
            if rep == 0:
                raise ValueError("boom")
            return SimpleNamespace(theta_hat=1.0 + 0.01 * rep)

        monkeypatch.setattr(harness, "practical_estimator", flaky)
        phi, stats = run_clt_experiment(cfg)
        assert phi.size == 3
        assert stats.n_failed == 1


# ---------------------------------------------------------------------------
# rate experiments
# ---------------------------------------------------------------------------

class TestRateScale:
    def test_three_regimes(self):
        assert _rate_scale(100.0, HurstParam(0.6)) == pytest.approx(10.0)
        assert _rate_scale(100.0, HurstParam(0.75)) == pytest.approx(
            np.sqrt(100.0 / np.log(100.0))
        )
        assert _rate_scale(100.0, HurstParam(0.85)) == pytest.approx(100.0**0.3)
        # below the ergodic range the scale stays sqrt(T)
        assert _rate_scale(100.0, HurstParam(0.5)) == pytest.approx(10.0)
        assert _rate_scale(100.0, HurstParam(0.3)) == pytest.approx(10.0)


class TestRunRateExperiment:
    def test_requires_lse(self):
        with pytest.raises(ValueError):
            run_rate_experiment(_config(estimator=Method.PRACTICAL), t_grid=[5.0])

    def test_rows_shape_and_determinism(self):
        cfg = _config(estimator=Method.LSE_SKOROHOD, d=0.1, replications=6)
        rows = run_rate_experiment(cfg, t_grid=[5.0, 10.0])
        again = run_rate_experiment(cfg, t_grid=[5.0, 10.0])
        assert rows == again
        assert [r[0] for r in rows] == [5.0, 10.0]
        for _, sdev, n_failed in rows:
            assert sdev > 0.0
            assert n_failed == 0

    def test_grid_entries_use_distinct_seed_streams(self):
        cfg = _config(estimator=Method.LSE_SKOROHOD, d=0.1, replications=6)
        rows = run_rate_experiment(cfg, t_grid=[5.0, 5.0])
        # same horizon twice: different spawn keys, different samples
        assert rows[0][1] != rows[1][1]

    def test_bad_horizon_rejected_before_any_replication(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "_run_replications", lambda *args: calls.append(args))
        cfg = _config(estimator=Method.LSE_SKOROHOD, d=0.1, replications=6)
        with pytest.raises(ValueError, match="T must be positive, got -1.0"):
            run_rate_experiment(cfg, t_grid=[5.0, -1.0])
        assert calls == []

    @pytest.mark.parametrize(
        "overrides,t_grid,message",
        [
            # one replication can never give the two a sample deviation needs
            ({"replications": 1}, [5.0], "replications >= 2"),
            ({}, [], "at least one horizon"),
            # sqrt(T/log T) divides by zero at T = 1 and is complex below it
            ({"H": 0.75}, [5.0, 1.0], "T=1.0"),
            ({"H": 0.75}, [0.5], "T=0.5"),
        ],
        ids=["one-replication", "empty-grid", "boundary-T-1", "boundary-T-below-1"],
    )
    def test_bad_rate_config_rejected_before_any_replication(
        self, monkeypatch, overrides, t_grid, message
    ):
        calls = []
        monkeypatch.setattr(harness, "_run_replications", lambda *args: calls.append(args))
        cfg = _config(estimator=Method.LSE_SKOROHOD, d=0.1, **overrides)
        with pytest.raises(ValueError, match=message):
            run_rate_experiment(cfg, t_grid=t_grid)
        assert calls == []

    def test_too_few_successes_raise(self):
        # |1 - theta d| = 4: every path leaves the float range long before T = 100
        cfg = _config(estimator=Method.LSE_SKOROHOD, theta_true=50.0, d=0.1, replications=2)
        with pytest.raises(RuntimeError, match="too few successful replications at T=100.0"):
            run_rate_experiment(cfg, t_grid=[100.0])
