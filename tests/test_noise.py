"""Tests for the fractional Gaussian noise layer.

Covers:
  1. HurstParam validation and regime classification.
  2. fGn autocovariance closed form (frozen values, Brownian reduction).
  3. Sampler determinism and stream separation.
  4. Statistical sanity of the circulant generator.
  5. The per-(n, H) spectrum cache: same bytes cold and warm, one miss per
     experiment, n + 1 read-only entries, no cached failure.
  6. The half-length real synthesis: equal to the full-length complex form
     on the same normals, and exactly 4n normals per sample.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfou import (
    ExperimentConfig,
    HurstParam,
    HurstRegime,
    Method,
    NoiseSpec,
    euler_msfou,
    fgn_autocovariance,
    noise,
    paths,
    run_table_experiment,
    sample_fgn,
)


# ---------------------------------------------------------------------------
# HurstParam
# ---------------------------------------------------------------------------

class TestHurstParam:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            HurstParam(bad)

    @pytest.mark.parametrize("h,regime", [
        (0.3, HurstRegime.SHORT_MEMORY),
        (0.5, HurstRegime.BROWNIAN),
        (0.6, HurstRegime.ERGODIC_CLT),
        (0.75, HurstRegime.BOUNDARY),
        (0.85, HurstRegime.ROSENBLATT),
    ])
    def test_regime_classification(self, h, regime):
        assert HurstParam(h).regime is regime

    def test_frozen(self):
        p = HurstParam(0.6)
        with pytest.raises(AttributeError):
            p.h = 0.7


# ---------------------------------------------------------------------------
# fGn autocovariance closed form
# ---------------------------------------------------------------------------

class TestFgnAutocovariance:
    """rho(k) = ((k+1)^2H - 2 k^2H + (k-1)^2H) / 2."""

    def test_lag_zero_is_unit_variance(self):
        for h in (0.51, 0.6, 0.75, 0.9):
            assert fgn_autocovariance(0, HurstParam(h)) == pytest.approx(1.0)

    def test_brownian_reduction_is_white(self):
        # H = 1/2: increments independent, rho(k) = 0 for k >= 1
        h = HurstParam(0.5)
        rho = fgn_autocovariance(np.arange(1, 10), h)
        assert np.allclose(rho, 0.0, atol=1e-15)

    @pytest.mark.parametrize("h,k,expected", [
        # direct evaluations of the closed form, hand-checked
        (0.7, 1, 0.5 * (2.0**1.4 - 2.0)),
        (0.7, 2, 0.5 * (3.0**1.4 - 2.0 * 2.0**1.4 + 1.0)),
        (0.6, 1, 0.5 * (2.0**1.2 - 2.0)),
    ])
    def test_frozen_values(self, h, k, expected):
        got = fgn_autocovariance(k, HurstParam(h))
        print(f"  rho({k}; H={h}) = {got:.12f}")
        assert got == pytest.approx(expected, rel=1e-14)

    def test_sign_by_memory_regime(self):
        # positive correlations for H > 1/2, negative for H < 1/2
        lags = np.arange(1, 20)
        assert np.all(fgn_autocovariance(lags, HurstParam(0.7)) > 0)
        assert np.all(fgn_autocovariance(lags, HurstParam(0.3)) < 0)

    def test_negative_lag_symmetry(self):
        h = HurstParam(0.65)
        assert fgn_autocovariance(-3, h) == pytest.approx(fgn_autocovariance(3, h))

    @given(st.floats(min_value=0.05, max_value=0.95), st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_scalar_matches_vector(self, h, k):
        # scalar and vector code paths differ only by float association;
        # the second difference of |k|^(2H) cancels ~k^2 of precision at
        # large lags, so the comparison allows for that amplification
        hp = HurstParam(h)
        scalar = fgn_autocovariance(k, hp)
        vec = fgn_autocovariance(np.array([k]), hp)
        assert scalar == pytest.approx(float(vec[0]), rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# Sampler determinism
# ---------------------------------------------------------------------------

class TestSamplerDeterminism:
    def test_same_spec_same_output(self):
        spec = NoiseSpec(n=512, seed=1234, stream=0)
        a = sample_fgn(spec, HurstParam(0.7))
        b = sample_fgn(spec, HurstParam(0.7))
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        h = HurstParam(0.7)
        a = sample_fgn(NoiseSpec(n=256, seed=9, stream=0), h)
        b = sample_fgn(NoiseSpec(n=256, seed=9, stream=1), h)
        assert not np.allclose(a, b)

    def test_seeds_are_distinct(self):
        h = HurstParam(0.7)
        a = sample_fgn(NoiseSpec(n=256, seed=1), h)
        b = sample_fgn(NoiseSpec(n=256, seed=2), h)
        assert not np.allclose(a, b)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_determinism_over_seed_space(self, seed):
        spec = NoiseSpec(n=64, seed=seed)
        assert np.array_equal(sample_fgn(spec, HurstParam(0.6)), sample_fgn(spec, HurstParam(0.6)))

    @pytest.mark.parametrize("bad_kwargs", [
        {"n": 0, "seed": 1},
        {"n": -5, "seed": 1},
        {"n": 8, "seed": -1},
        {"n": 8, "seed": 2**64},
        {"n": 8, "seed": 1, "stream": -1},
    ])
    def test_spec_validation(self, bad_kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**bad_kwargs)

    @pytest.mark.parametrize("field,value", [
        ("n", 3.9), ("n", float("inf")), ("n", float("nan")),
        ("seed", 1.5), ("seed", float("inf")), ("stream", 0.5), ("stream", float("-inf")),
    ])
    def test_spec_refuses_non_whole_numbers(self, field, value):
        kwargs = {"n": 8, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be a whole number"):
            NoiseSpec(**kwargs)

    def test_spec_reads_integral_floats_and_keeps_large_seeds_exact(self):
        spec = NoiseSpec(n=64.0, seed=2**53 + 1, stream=1.0)
        assert (spec.n, spec.seed, spec.stream) == (64, 2**53 + 1, 1)
        assert all(type(v) is int for v in (spec.n, spec.seed, spec.stream))
        assert NoiseSpec(n=np.int64(8), seed=2**64 - 1).seed == 2**64 - 1
        h = HurstParam(0.6)
        assert np.array_equal(sample_fgn(spec, h), sample_fgn(NoiseSpec(64, 2**53 + 1, 1), h))

    def test_sampler_needs_two_points(self):
        with pytest.raises(ValueError, match="need n >= 2 to define fGn"):
            sample_fgn(NoiseSpec(n=1, seed=1), HurstParam(0.6))


# ---------------------------------------------------------------------------
# Statistical sanity
# ---------------------------------------------------------------------------

class TestSamplerStatistics:
    @pytest.mark.parametrize("h", [0.55, 0.7, 0.85])
    def test_unit_variance(self, h):
        x = sample_fgn(NoiseSpec(n=2**14, seed=77), HurstParam(h))
        var = float(np.mean(x * x))
        print(f"  H={h}: sample var = {var:.4f}")
        assert var == pytest.approx(1.0, abs=0.1)

    def test_lag_one_covariance_circulant(self):
        # one long exact path; rho(1) estimate within 4 standard errors
        h = HurstParam(0.7)
        n = 2**16
        x = sample_fgn(NoiseSpec(n=n, seed=4242), h)
        est = float(np.mean(x[:-1] * x[1:]))
        target = fgn_autocovariance(1, h)
        se = 4.0 / np.sqrt(n)
        print(f"  rho_hat(1) = {est:.4f}, target = {target:.4f}")
        assert abs(est - target) < se

    def test_brownian_case_is_iid_normal(self):
        x = sample_fgn(NoiseSpec(n=2**14, seed=5), HurstParam(0.5))
        lag1 = float(np.mean(x[:-1] * x[1:]))
        assert abs(lag1) < 4.0 / np.sqrt(x.size)


# ---------------------------------------------------------------------------
# Spectrum cache
# ---------------------------------------------------------------------------

class TestSpectrumCache:
    @pytest.mark.parametrize("n", [2, 3, 1000, 10000])
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.65, 0.9])
    def test_cold_and_warm_give_same_bytes(self, n, h):
        spec, hurst = NoiseSpec(n=n, seed=31, stream=1), HurstParam(h)
        noise._circulant_sqrt_eig.cache_clear()
        cold = sample_fgn(spec, hurst)
        warm = sample_fgn(spec, hurst)
        assert noise._circulant_sqrt_eig.cache_info().hits >= 1
        assert cold.tobytes() == warm.tobytes()

    def test_one_miss_per_table_experiment(self):
        cfg = ExperimentConfig(
            theta_true=1.0, H=0.65, d=0.05, T=5.0, replications=20,
            master_seed=5, estimator=Method.PRACTICAL,
        )
        noise._circulant_sqrt_eig.cache_clear()
        run_table_experiment(cfg)
        info = noise._circulant_sqrt_eig.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_cached_spectrum_is_read_only(self):
        weight = noise._circulant_sqrt_eig(64, HurstParam(0.7))
        assert weight.shape == (65,)  # k = 0..n of the 2n circulant's spectrum
        assert not weight.flags.writeable
        with pytest.raises(ValueError):
            weight[0] = 0.0

    def test_non_psd_embedding_raises_every_call(self, monkeypatch):
        # an autocovariance with rho(1) > rho(0) is no covariance: its
        # circulant has a negative eigenvalue, and no call may be served
        # from the cache
        def not_a_covariance(k, H):
            rho = np.zeros(np.size(k))
            rho[:2] = [1.0, 2.0]
            return rho

        monkeypatch.setattr(noise, "fgn_autocovariance", not_a_covariance)
        noise._circulant_sqrt_eig.cache_clear()
        spec, hurst = NoiseSpec(n=8, seed=1), HurstParam(0.6)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="negative eigenvalue"):
                sample_fgn(spec, hurst)
        assert noise._circulant_sqrt_eig.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Half-length real synthesis
# ---------------------------------------------------------------------------

def _full_length_complex_fgn(spec, h):
    """sqrt(2n) Re(ifft(sqrt(eig) (a + ib)))[:n] on the 2n circulant, a then b drawn."""
    n, m = spec.n, 2 * spec.n
    rho = fgn_autocovariance(np.arange(n + 1), h)
    eig = np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real
    rng = spec.rng()
    a = rng.standard_normal(m)
    b = rng.standard_normal(m)
    return math.sqrt(m) * np.fft.ifft(np.sqrt(np.maximum(eig, 0.0)) * (a + 1j * b)).real[:n]


def _state(gen):
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


class TestHalfLengthSynthesis:
    # n = 2 and 3 fold one and two frequencies between zero and Nyquist;
    # 1000 and 10000 fold many odd and even k
    @pytest.mark.parametrize("n", [2, 3, 1000, 10000])
    @pytest.mark.parametrize("h", [0.3, 0.5, 0.65, 0.9])
    def test_matches_full_length_complex_form(self, n, h):
        hurst = HurstParam(h)
        for seed, stream in ((1, 0), (2**63 + 5, 3)):
            spec = NoiseSpec(n=n, seed=seed, stream=stream)
            reference = _full_length_complex_fgn(spec, hurst)
            x = sample_fgn(spec, hurst)
            assert x.shape == (n,)
            assert np.max(np.abs(x - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_draws_exactly_four_n_normals(self, monkeypatch, n):
        used = []
        rng = NoiseSpec.rng

        def recording(spec):
            used.append(rng(spec))
            return used[-1]

        spec = NoiseSpec(n=n, seed=17, stream=2)
        monkeypatch.setattr(NoiseSpec, "rng", recording)
        sample_fgn(spec, HurstParam(0.65))
        monkeypatch.undo()
        fresh = spec.rng()
        fresh.standard_normal(4 * n)
        assert len(used) == 1
        assert _state(used[0]) == _state(fresh)
        fresh.standard_normal()
        assert _state(used[0]) != _state(fresh)


class TestSampleBuffers:
    def test_returned_vector_owns_its_values(self):
        # a view of the 2n-long transform would keep all of it alive
        x = sample_fgn(NoiseSpec(n=1000, seed=3), HurstParam(0.65))
        assert x.base is None
        assert x.nbytes == 8 * 1000

    def test_synthesis_reads_nothing_it_did_not_write(self):
        spec, h = NoiseSpec(n=1000, seed=3, stream=1), HurstParam(0.65)
        z, half = np.full(4000, np.nan), np.full(1001, np.nan, dtype=complex)
        x = noise._fgn_into(spec, h, z, half)
        assert np.shares_memory(x, z)
        assert x.tobytes() == sample_fgn(spec, h).tobytes()

    def test_vector_from_a_reuse_scope_survives_the_next_calls(self):
        h = HurstParam(0.65)
        with paths._reuse_buffers():
            x = sample_fgn(NoiseSpec(n=1000, seed=3), h)
            kept = x.copy()
            for seed in (3, 4):
                sample_fgn(NoiseSpec(n=1000, seed=seed), h)
                euler_msfou(theta=1.0, H=h, d=0.01, N=500, seed=seed)
        assert x.tobytes() == kept.tobytes()
