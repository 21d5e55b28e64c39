"""Tests for the fractional Gaussian noise layer.

Covers:
  1. HurstParam validation and regime classification.
  2. fGn autocovariance closed form (frozen values, Brownian reduction).
  3. Sampler determinism and stream separation.
  4. Statistical sanity of both generation methods.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfou import HurstParam, HurstRegime, NoiseSpec, fgn_autocovariance, sample_fgn


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
