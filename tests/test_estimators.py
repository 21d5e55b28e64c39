"""Tests for the drift estimators and their asymptotic scale constants.

Covers:
  1. integral_X2 (trapezoid energy functional).
  2. Least-squares estimator with the divergence-integral correction.
  3. Practical moment estimator (exact inversion cases).
  4. Non-ergodic estimator (scale invariance, sign).
  5. sigma_H / boundary_variance / phi_statistic constants and gates.

Frozen sigma_H, boundary_variance and phi_statistic values come from
tests/oracles/stationary_variance_targets.py (mpmath, 50 digits; sigma_H is
checked there against quadrature of the spectral variance).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfou import (
    EstimateResult,
    HurstParam,
    Method,
    SamplePath,
    boundary_variance,
    correction_integral,
    euler_msfou,
    integral_X2,
    lse_skorohod,
    nonergodic_estimator,
    phi_statistic,
    practical_estimator,
    sigma_H,
    stationary_second_moment,
)

SIGMA_TABLE = {
    (1.0, 0.6): 1.5843597603669500489,
    (0.5, 0.65): 1.2444835400702104478,
    (2.0, 0.7): 2.7284566547114323483,
}

# Phi(1.1; theta=1, H=0.6, N=500, d=0.02), with V from spectral quadrature;
# tests/oracles/stationary_variance_targets.py
PHI_REFERENCE = 0.22051949685194552599

# boundary_variance(theta) = 9/(16 theta^2 p^2) at H = 3/4, the log T
# coefficient of the spectral variance; same oracle
BOUNDARY_TABLE = {
    0.5: 0.27127278541443929804,
    1.0: 0.41468335566656001623,
    2.0: 0.59784073639756230833,
    4.0: 0.81194406379016570481,
}


# ---------------------------------------------------------------------------
# integral_X2
# ---------------------------------------------------------------------------

class TestIntegralX2:
    def test_matches_manual_trapezoid(self):
        p = SamplePath(d=0.5, values=np.array([1.0, 2.0, 2.0]), initial_value=1.0)
        v = p.full_values() ** 2
        manual = 0.5 * (0.5 * v[0] + v[1] + v[2] + 0.5 * v[3])
        assert integral_X2(p) == pytest.approx(manual, rel=1e-14)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            integral_X2(SamplePath(d=0.1, values=np.array([1.0])))

    def test_nonnegative(self):
        p = euler_msfou(theta=1.0, H=HurstParam(0.6), d=0.01, N=100, seed=2)
        assert integral_X2(p) > 0.0


# ---------------------------------------------------------------------------
# LSE with divergence correction
# ---------------------------------------------------------------------------

class TestLseSkorohod:
    def test_assembles_documented_formula(self):
        h = HurstParam(0.65)
        x = euler_msfou(theta=1.0, H=h, d=0.01, N=500, seed=44)
        res = lse_skorohod(x, h, theta_ref=1.0)

        alpha = h.h * (2 * h.h - 1.0)
        corr = correction_integral(1.0, h, x.span)
        den = integral_X2(x)
        x_t = x.full_values()[-1]
        expected = (-0.5 * x_t**2 + alpha * corr + 0.5 * x.span) / den

        assert res.theta_hat == pytest.approx(expected, rel=1e-12)
        assert res.method is Method.LSE_SKOROHOD
        assert res.denominator == pytest.approx(den, rel=1e-14)

    def test_diagnostics_reported(self):
        h = HurstParam(0.6)
        x = euler_msfou(theta=0.5, H=h, d=0.02, N=200, seed=9)
        res = lse_skorohod(x, h, theta_ref=0.5)
        assert "correction" in res.diagnostics
        assert "correction_error" in res.diagnostics
        assert res.diagnostics["correction"] > 0.0

    def test_deterministic(self):
        h = HurstParam(0.62)
        x = euler_msfou(theta=1.0, H=h, d=0.01, N=300, seed=3)
        a = lse_skorohod(x, h, theta_ref=1.0).theta_hat
        b = lse_skorohod(x, h, theta_ref=1.0).theta_hat
        assert a == b

    def test_gates(self):
        x = euler_msfou(theta=1.0, H=HurstParam(0.6), d=0.01, N=100, seed=4)
        with pytest.raises(ValueError):
            lse_skorohod(x, HurstParam(0.5), theta_ref=1.0)  # needs H > 1/2
        with pytest.raises(ValueError):
            lse_skorohod(x, HurstParam(0.6), theta_ref=0.0)

    def test_recovers_drift_at_scale(self):
        # single long ergodic path: estimate lands near the true value
        h = HurstParam(0.6)
        x = euler_msfou(theta=1.0, H=h, d=0.02, N=25_000, seed=314)
        got = lse_skorohod(x, h, theta_ref=1.0).theta_hat
        print(f"  LSE on T=500 path: {got:.4f}")
        assert abs(got - 1.0) < 0.35


# ---------------------------------------------------------------------------
# Practical moment estimator
# ---------------------------------------------------------------------------

class TestPracticalEstimator:
    def test_exact_on_constant_moment(self):
        # samples with mean square exactly p(theta) invert to theta
        h = HurstParam(0.6)
        theta = 1.25
        y = stationary_second_moment(theta, h)
        samples = SamplePath(d=1.0, values=np.full(64, math.sqrt(y)))
        res = practical_estimator(samples, h)
        assert res.theta_hat == pytest.approx(theta, rel=1e-8)
        assert res.denominator == pytest.approx(y, rel=1e-14)

    def test_brownian_closed_form(self):
        # H = 1/2: theta = 1 / mean(X^2)
        samples = SamplePath(d=1.0, values=[2.0, -2.0, 2.0, -2.0])
        res = practical_estimator(samples, HurstParam(0.5))
        assert res.theta_hat == pytest.approx(0.25, rel=1e-12)

    def test_accepts_sample_path(self):
        h = HurstParam(0.6)
        x = euler_msfou(theta=1.0, H=h, d=0.01, N=200, seed=6)
        res = practical_estimator(x, h)
        # excludes X_0, uses the N sampled values
        manual = float(np.mean(x.values**2))
        assert res.denominator == pytest.approx(manual, rel=1e-14)

    def test_iterations_diagnostic(self):
        h = HurstParam(0.65)
        res = practical_estimator(SamplePath(d=1.0, values=np.full(8, 1.1)), h)
        assert res.diagnostics["iterations"] >= 1

    def test_gates(self):
        with pytest.raises(ValueError):
            # zero moment
            practical_estimator(SamplePath(d=1.0, values=np.zeros(16)), HurstParam(0.6))
        with pytest.raises(ValueError):
            # short memory
            practical_estimator(SamplePath(d=1.0, values=np.ones(16)), HurstParam(0.4))

    def test_consistency_at_scale(self):
        h = HurstParam(0.6)
        x = euler_msfou(theta=1.0, H=h, d=0.02, N=10_000, seed=2718)
        got = practical_estimator(x, h).theta_hat
        print(f"  practical on T=200 path: {got:.4f}")
        assert abs(got - 1.0) < 0.5


# ---------------------------------------------------------------------------
# Non-ergodic estimator
# ---------------------------------------------------------------------------

class TestNonergodicEstimator:
    def test_documented_formula(self):
        p = SamplePath(d=0.5, values=np.array([1.0, 3.0]), initial_value=1.0)
        expected = -(3.0**2) / (2.0 * integral_X2(p))
        assert nonergodic_estimator(p).theta_hat == pytest.approx(expected, rel=1e-14)

    def test_always_negative(self):
        for seed in range(5):
            x = euler_msfou(theta=-0.5, H=HurstParam(0.65), d=0.01, N=500, seed=seed)
            assert nonergodic_estimator(x).theta_hat < 0.0

    @given(st.integers(min_value=-6, max_value=6))
    @settings(max_examples=13, deadline=None)
    def test_scale_invariance_exact(self, k):
        # X -> c X leaves the ratio invariant; powers of two are exact in floats
        c = 2.0**k
        x = euler_msfou(theta=-0.4, H=HurstParam(0.6), d=0.01, N=64, seed=77, x0=0.5)
        scaled = SamplePath(d=x.d, values=c * x.values, initial_value=c * x.initial_value)
        a = nonergodic_estimator(x).theta_hat
        b = nonergodic_estimator(scaled).theta_hat
        assert a == b

    def test_recovers_negative_drift(self):
        # explosive regime: |X_T| large, estimate concentrates near theta
        x = euler_msfou(theta=-0.5, H=HurstParam(0.65), d=0.01, N=1000, seed=15)
        got = nonergodic_estimator(x).theta_hat
        print(f"  nonergodic on T=10 path: {got:.4f}")
        assert abs(got - (-0.5)) < 0.2


# ---------------------------------------------------------------------------
# Asymptotic scale constants
# ---------------------------------------------------------------------------

class TestSigmaH:
    @pytest.mark.parametrize("theta,h", sorted(SIGMA_TABLE))
    def test_frozen_values(self, theta, h):
        got = sigma_H(theta, HurstParam(h))
        print(f"  sigma_H({theta}, {h}) = {got:.16f}")
        assert got == pytest.approx(SIGMA_TABLE[theta, h], rel=1e-13)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_classical_limit_at_half(self, theta):
        # as H -> 1/2 both noise components are Brownian, so the limit is
        # the classical LSE scale sqrt(2 theta) of an OU process driven by
        # sqrt(2) W (the cross term carries half of the variance)
        got = sigma_H(theta, HurstParam(0.5 + 1e-6))
        assert got == pytest.approx(math.sqrt(2.0 * theta), rel=1e-5)

    @pytest.mark.parametrize("h", [0.5, 0.75, 0.8])
    def test_open_interval_gate(self, h):
        with pytest.raises(ValueError):
            sigma_H(1.0, HurstParam(h))

    def test_positive_theta_required(self):
        with pytest.raises(ValueError):
            sigma_H(0.0, HurstParam(0.6))


class TestBoundaryVariance:
    def test_closed_form(self):
        theta = 2.0
        denom = 0.75 * math.sqrt(math.pi) * theta**-1.5 + 0.5
        expected = 9.0 / (4.0 * theta**2 * denom**2)
        assert boundary_variance(theta) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 4.0])
    def test_residue_of_sigma_h_pole(self, theta):
        # boundary_variance is the residue lim_{H -> 3/4} (3 - 4H) sigma_H^2
        below = HurstParam(0.75 - 1e-7)
        residue = (3.0 - 4.0 * below.h) * sigma_H(theta, below) ** 2
        assert boundary_variance(theta) == pytest.approx(residue, rel=1e-5)
        assert boundary_variance(theta) == pytest.approx(BOUNDARY_TABLE[theta], rel=1e-13)

    def test_positive_and_decreasing_far_out(self):
        assert boundary_variance(1.0) > 0.0
        assert boundary_variance(10.0) < boundary_variance(1.0) * 10  # no blow-up

    @pytest.mark.parametrize("theta,want", [
        (1e160, 2.25), (1e300, 2.25),
        # 9 / (16 (theta p)^2) in 50-digit mpmath
        (1e-200, 1.2732395447351627e-200),
    ])
    def test_far_ends_of_the_float_range(self, theta, want):
        # theta^2 alone over- or underflows here; (theta p)^2 does not
        assert boundary_variance(theta) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gate(self):
        with pytest.raises(ValueError):
            boundary_variance(-1.0)


class TestPhiStatistic:
    def test_zero_at_truth(self):
        assert phi_statistic(1.0, 1.0, HurstParam(0.6), 1000, 0.01) == pytest.approx(0.0)

    @given(st.floats(min_value=-2.0, max_value=2.0), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_in_estimate(self, a, b):
        # phi is linear in theta_tilde: equal spacing maps to equal spacing
        h = HurstParam(0.62)
        p0 = phi_statistic(1.0 + a, 1.0, h, 500, 0.02)
        p1 = phi_statistic(1.0 + b, 1.0, h, 500, 0.02)
        p_mid = phi_statistic(1.0 + 0.5 * (a + b), 1.0, h, 500, 0.02)
        assert p_mid == pytest.approx(0.5 * (p0 + p1), rel=1e-9, abs=1e-9)

    def test_frozen_value(self):
        got = phi_statistic(1.1, 1.0, HurstParam(0.6), 500, 0.02)
        assert got == pytest.approx(PHI_REFERENCE, rel=1e-13)

    def test_scales_with_sample_size(self):
        h = HurstParam(0.6)
        lo = phi_statistic(1.1, 1.0, h, 100, 0.01)
        hi = phi_statistic(1.1, 1.0, h, 400, 0.01)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)  # sqrt(N d) doubling

    def test_gates(self):
        with pytest.raises(ValueError):
            phi_statistic(1.0, 0.0, HurstParam(0.6), 100, 0.01)
        with pytest.raises(ValueError):
            phi_statistic(1.0, 1.0, HurstParam(0.8), 100, 0.01)

    def test_refuses_non_whole_sample_size(self):
        h = HurstParam(0.6)
        for n in (100.9, math.inf, math.nan):
            with pytest.raises(ValueError, match="^n must be a whole number"):
                phi_statistic(1.1, 1.0, h, n, 0.1)
        assert phi_statistic(1.1, 1.0, h, 100.0, 0.1) == phi_statistic(1.1, 1.0, h, 100, 0.1)


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------

class TestEstimateResult:
    def test_validates_method(self):
        with pytest.raises(TypeError, match="^method must be a Method, got 'mle'$"):
            EstimateResult(1.0, "mle", 1.0)

    def test_validates_denominator(self):
        with pytest.raises(ValueError):
            EstimateResult(theta_hat=1.0, method=Method.PRACTICAL, denominator=0.0)

    def test_validates_finite_estimate(self):
        with pytest.raises(ValueError):
            EstimateResult(theta_hat=float("nan"), method=Method.MLE, denominator=1.0)

    def test_diagnostics_coerced_to_float(self):
        r = EstimateResult(theta_hat=1.0, method=Method.MLE, denominator=1.0,
                           diagnostics={"k": np.float64(2.5)})
        assert isinstance(r.diagnostics["k"], float)
