"""Tests for the numerical kernel layer.

Covers:
  1. gamma_fn against high-precision frozen values and the recurrence.
  2. Stationary second moment p(theta) and its inverse.
  3. Correction integral against a brute-force tensor-grid oracle and an
     mpmath reference.
  4. The kernel equation solver: residual, identity, stability, reductions.
  5. The edge-element kernel moments against an mpmath reference.

Frozen constants come from the scripts in tests/oracles/, which use only
mpmath / direct quadrature and never import this package.
"""

import gc
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msfou import (
    HurstParam,
    KernelSolution,
    correction_integral,
    gamma_fn,
    invert_p,
    solve_g_kernel,
    stationary_second_moment,
)
from msfou.numerics import (
    _batch_scaled_solve,
    _edge_moments,
    _graded_unit_system,
    _unit_interpolant,
    _unit_kernel_system,
)

# mpmath, 50 digits; tests/oracles/gamma_values.py
GAMMA_TABLE = {
    0.5: 1.7724538509055160273,
    1.1: 0.95135076986687318363,
    1.2: 0.91816874239976061064,
    1.3: 0.89747069630627718849,
    2.5: 1.3293403881791370205,
    0.75: 1.2254167024651776451,
    1.5: 0.88622692545275801365,
    3.7: 4.1706517837966031654,
}

# mpmath; tests/oracles/stationary_variance_targets.py
P_TABLE = {
    (1.0, 0.55): 1.023242923426780251,
    (1.0, 0.6): 1.0509012454398563664,
}

# tensor-grid double quadrature; tests/oracles/memory_correction_bruteforce.py
CORRECTION_TABLE = {
    (1.0, 0.75, 2.0): 3.643103953587,
    (1.0, 0.6, 2.0): 9.175475784486,
    (1.0, 0.6, 200.0): 923.237135453561,
}

# mpmath_reference at 30 digits; tests/oracles/memory_correction_bruteforce.py.
# The last row needs the quadrature's breakpoints.
MPMATH_CORRECTION_TABLE = {
    (1.0, 0.65, 500.0): 1506.6260681396549,
    (0.5, 0.501, 10.0): 5001.953745105893,
    (2.0, 0.99, 50.0): 48.423762947346556,
    (10.0, 0.65, 1e4): 14996.493953669327,
}


# ---------------------------------------------------------------------------
# gamma_fn
# ---------------------------------------------------------------------------

class TestGammaFn:
    @pytest.mark.parametrize("x,expected", sorted(GAMMA_TABLE.items()))
    def test_frozen_values(self, x, expected):
        got = gamma_fn(x)
        print(f"  gamma({x}) = {got:.18f}")
        assert got == pytest.approx(expected, rel=1e-14)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            gamma_fn(bad)


# ---------------------------------------------------------------------------
# Stationary second moment and its inverse
# ---------------------------------------------------------------------------

class TestStationarySecondMoment:
    @pytest.mark.parametrize("key,expected", sorted(P_TABLE.items()))
    def test_frozen_values(self, key, expected):
        theta, h = key
        got = stationary_second_moment(theta, HurstParam(h))
        print(f"  p({theta}; H={h}) = {got:.16f}")
        assert got == pytest.approx(expected, rel=1e-13)

    def test_brownian_reduction(self):
        # H = 1/2: p(theta) = 1/(2 theta) + Gamma(1)/2 * theta^-1 = 1/theta
        for theta in (0.25, 1.0, 3.0):
            got = stationary_second_moment(theta, HurstParam(0.5))
            assert got == pytest.approx(1.0 / theta, rel=1e-14)

    @given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=0.5, max_value=0.95))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_theta(self, theta, h):
        hp = HurstParam(h)
        assert stationary_second_moment(theta, hp) > stationary_second_moment(theta * 1.5, hp)


class TestInvertP:
    @given(st.floats(min_value=-12.0, max_value=5.0), st.floats(min_value=0.5, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, log_theta, h):
        hp = HurstParam(h)
        theta = math.exp(log_theta)
        y = stationary_second_moment(theta, hp)
        back = invert_p(y, hp)
        assert back == pytest.approx(theta, rel=1e-7)
        assert abs(stationary_second_moment(back, hp) - y) <= 1e-10 * max(1.0, y)

    def test_brownian_closed_form(self):
        # p(theta) = 1/theta at H = 1/2, so the inverse is exactly 1/y
        assert invert_p(4.0, HurstParam(0.5)) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("y", [0.0, -1.0])
    def test_rejects_nonpositive_moment(self, y):
        with pytest.raises(ValueError):
            invert_p(y, HurstParam(0.6))

    @pytest.mark.parametrize("y", [1e-310, 1e308])
    def test_rejects_moment_outside_float_range(self, y):
        with pytest.raises(ValueError):
            invert_p(y, HurstParam(0.99))

    def test_rejects_short_memory(self):
        with pytest.raises(ValueError):
            invert_p(1.0, HurstParam(0.3))


# ---------------------------------------------------------------------------
# Correction integral
# ---------------------------------------------------------------------------

class TestCorrectionIntegral:
    @pytest.mark.parametrize("key,expected", sorted(CORRECTION_TABLE.items()))
    def test_brute_force_oracle(self, key, expected):
        theta, h, big_t = key
        got = correction_integral(theta, HurstParam(h), big_t)
        rel = abs(got - expected) / expected
        print(f"  I({theta}, {h}, {big_t}) = {got:.10f}, oracle = {expected}, rel = {rel:.2e}")
        assert rel < 1e-6

    @pytest.mark.parametrize("key,expected", sorted(MPMATH_CORRECTION_TABLE.items()))
    def test_mpmath_reference(self, key, expected):
        theta, h, big_t = key
        got = correction_integral(theta, HurstParam(h), big_t)
        rel = abs(got - expected) / expected
        print(f"  I({theta}, {h}, {big_t}) = {got:.15g}, mpmath = {expected}, rel = {rel:.2e}")
        assert rel < 1e-12

    def test_long_time_limit(self):
        # alpha_H I(theta, H, T) / T -> H Gamma(2H) theta^(1-2H)
        theta, h, big_t = 1.0, HurstParam(0.6), 200.0
        val = correction_integral(theta, h, big_t)
        alpha = h.h * (2 * h.h - 1)
        limit = h.h * gamma_fn(2 * h.h) * theta ** (1 - 2 * h.h)
        rel = abs(alpha * val / big_t - limit) / limit
        print(f"  alpha_H I/T = {alpha * val / big_t:.6f} vs limit {limit:.6f} (rel {rel:.2%})")
        assert rel < 0.02

    def test_zero_horizon(self):
        assert correction_integral(1.0, HurstParam(0.6), 0.0) == 0.0

    def test_monotone_in_horizon(self):
        h = HurstParam(0.65)
        vals = [correction_integral(1.0, h, t) for t in (1.0, 2.0, 4.0)]
        assert vals[0] < vals[1] < vals[2]

    @pytest.mark.parametrize("theta,h", [(0.0, 0.6), (-1.0, 0.6), (1.0, 0.5), (1.0, 0.4)])
    def test_domain_gates(self, theta, h):
        with pytest.raises(ValueError):
            correction_integral(theta, HurstParam(h), 1.0)


# ---------------------------------------------------------------------------
# Kernel equation solver
# ---------------------------------------------------------------------------

class TestSolveGKernel:
    def test_brownian_shortcut(self):
        sol = solve_g_kernel(2.0, HurstParam(0.5), m=16)
        assert np.allclose(sol.g_values, 1.0)
        assert np.allclose(sol.bracket_M, sol.mesh)
        assert sol.residual == 0.0

    def test_residual_bound(self):
        sol = solve_g_kernel(20.0, HurstParam(0.65), m=256)
        print(f"  residual = {sol.residual:.2e}")
        assert sol.residual <= 1e-6

    def test_martingale_identity(self):
        # int_0^t g(s, t) ds = int_0^t g(s, s)^2 ds; both equal <M>_t.
        # Two independent quadratures converge toward each other as the
        # mesh refines, meeting the 1e-5 target at m = 1024.
        t = 20.0
        hurst = HurstParam(0.65)
        gaps = []
        for m in (128, 256, 512, 1024):
            sol = solve_g_kernel(t, hurst, m=m)
            gaps.append(abs(sol.integral_g() - sol.bracket_M[-1]) / sol.bracket_M[-1])
        print("  rel gaps by mesh:", ", ".join(f"{g:.2e}" for g in gaps))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5

    def test_boundary_layer_at_origin(self):
        # g(0+, t) = 1: the kernel solution has a steep layer at s = 0,
        # so the first-node value climbs toward 1 as the mesh pushes that
        # node into the origin, and g decreases in s just to its right
        h = HurstParam(0.65)
        firsts = [solve_g_kernel(2.0, h, m=m).g_values[0] for m in (64, 128, 256, 512)]
        print("  first-node g by mesh:", ", ".join(f"{g:.4f}" for g in firsts))
        assert all(a < b for a, b in zip(firsts, firsts[1:]))
        assert firsts[-1] < 1.0
        g = solve_g_kernel(2.0, h, m=256).g_values
        assert np.all(np.diff(g[:20]) < 0.0)

    def test_g_bounded(self):
        # 0 < g <= 1 on [0, t] for the long-memory kernel
        sol = solve_g_kernel(10.0, HurstParam(0.7), m=128)
        assert np.all(sol.g_values > 0.0)
        assert np.all(sol.g_values <= 1.0 + 1e-12)
        assert np.all(sol.g_diag > 0.0)

    def test_bracket_monotone(self):
        sol = solve_g_kernel(10.0, HurstParam(0.6), m=64)
        assert sol.bracket_M[0] >= 0.0
        assert np.all(np.diff(sol.bracket_M) > 0.0)

    def test_mesh_doubling_stability(self):
        ha = HurstParam(0.7)
        a = solve_g_kernel(10.0, ha, m=128)
        b = solve_g_kernel(10.0, ha, m=256)
        ga = np.interp(np.linspace(0, 1, 65)[1:-1], a.mesh / 10.0, a.g_values)
        gb = np.interp(np.linspace(0, 1, 65)[1:-1], b.mesh / 10.0, b.g_values)
        sup = float(np.max(np.abs(ga - gb)))
        print(f"  doubling sup|dg| = {sup:.2e}")
        assert sup <= 3e-4

    def test_short_memory_rejected(self):
        with pytest.raises(ValueError):
            solve_g_kernel(1.0, HurstParam(0.4), m=32)

    @pytest.mark.parametrize("m", [4, 5000])
    def test_mesh_size_gates(self, m):
        with pytest.raises(ValueError):
            solve_g_kernel(1.0, HurstParam(0.6), m=m)

    def test_bracket_scaling_in_time(self):
        # kernel is scale-free on the unit mesh; <M> grows with the horizon
        h = HurstParam(0.65)
        a = solve_g_kernel(5.0, h, m=64)
        b = solve_g_kernel(10.0, h, m=64)
        assert b.bracket_M[-1] > a.bracket_M[-1]

    def test_solves_keep_no_memory(self):
        # nothing under solve_g_kernel is cached: the 512 x 512 systems of
        # two solves at different H (2 MiB each) go with their results
        solve_g_kernel(20.0, HurstParam(0.6), m=8)  # first-call allocations
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for hh in (0.615, 0.685):
                solve_g_kernel(20.0, HurstParam(hh), m=512)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        print(f"  kept {kept / 2**20:.2f} MiB")
        assert kept < 0.1 * 2**20


def _per_shift_solutions(weights, anchor, cs):
    """Oracle: one dense solve of (I + c W) G = 1 - c e per shift c."""
    eye = np.eye(weights.shape[0])
    return np.array([np.linalg.solve(eye + c * weights, 1.0 - c * anchor) for c in cs])


class TestBatchScaledSolve:
    @pytest.mark.parametrize("m", [8, 64, 256])
    @pytest.mark.parametrize("hh", [0.501, 0.55, 0.65, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize(
        "system", [_unit_kernel_system, _graded_unit_system], ids=["uniform", "graded"]
    )
    def test_matches_per_shift_solve(self, system, hh, m):
        # the shifts of a T = 200 horizon: c_j = (j T / m)^rho, j = 1..m
        weights, anchor = system(hh, m)
        cs = (np.arange(1, m + 1) * (200.0 / m)) ** (2.0 * hh - 1.0)
        sols, residual = _batch_scaled_solve(weights, anchor, cs)
        want = _per_shift_solutions(weights, anchor, cs)
        assert float(np.max(np.abs(sols - want))) <= 1e-12
        gap = (1.0 - cs[:, None] * anchor) - sols - cs[:, None] * (sols @ weights.T)
        assert residual == float(np.max(np.abs(gap)))


def _edge_moment_reference(rho: float, m: int, k: int, i: int, side: str) -> float:
    """mpmath, 30 digits: the order-2 edge moment of kappa-hat at sigma_i = i/m.

    The same-side factor |w - c|^(rho-1) is removed by the substitution
    |w - c| = v^(1/rho), dw = v^(1/rho-1)/rho dv, which leaves the smooth
    integrand w^(k rho)/rho on each side of w = c; plain tanh-sinh on
    the singular integrand misses the c = 0 row by 3.8e-4 at H = 0.55.
    """
    with mp.workdps(30):
        r = mp.mpf(rho)
        big_x = mp.mpf(2) / m
        sig = mp.mpf(i) / m
        c = sig if side == "left" else 1 - sig

        def layer(w):
            return w ** (k * r) if k else mp.mpf(1)

        same = mp.mpf(0)
        if c > 0:  # w < c; the clip absorbs rounding at w = 0
            lo = min(c, big_x)
            same += mp.quad(lambda v: layer(max(c - v ** (1 / r), 0)) / r, [(c - lo) ** r, c**r])
        if c < big_x:  # w > c
            same += mp.quad(lambda v: layer(c + v ** (1 / r)) / r, [0, (big_x - c) ** r])
        if side == "left":
            cross = mp.quad(lambda w: layer(w) * (w + sig) ** (r - 1), [0, big_x])
        else:
            cross = mp.quad(lambda w: layer(w) * (1 + sig - w) ** (r - 1), [0, big_x])
        return float(same - cross)


class TestEdgeMoments:
    # m = 4: every node; m = 64: both edge elements, their neighbours and
    # the middle, so each branch (c >= X, 0 < c < X, c = 0) is taken
    @pytest.mark.parametrize(
        "m,rows", [(4, (1, 2, 3, 4)), (64, (1, 2, 3, 31, 62, 63, 64))], ids=["m4", "m64"]
    )
    @pytest.mark.parametrize("hh", [0.55, 0.9])
    def test_matches_mpmath(self, hh, m, rows):
        rho = 2.0 * hh - 1.0
        got = dict(zip(("left", "right"), _edge_moments(rho, m, 2)))
        for side in ("left", "right"):
            for k in range(3):
                for i in rows:
                    want = _edge_moment_reference(rho, m, k, i, side)
                    # same-side and cross parts nearly cancel far from the
                    # element: measured up to 8.4e-14 relative
                    assert got[side][k, i - 1] == pytest.approx(want, rel=1e-12), (side, k, i)


class TestInterpUnitSolution:
    # m = 64 puts the edge-region boundaries at 2/m and 1 - 2/m, both exact
    M = 64

    @pytest.fixture(params=[0.501, 0.65, 0.9], ids=["H0.501", "H0.65", "H0.9"])
    def solution(self, request):
        hh = request.param
        weights, anchor = _unit_kernel_system(hh, self.M)
        sols, _ = _batch_scaled_solve(weights, anchor, np.array([5.0]))
        return sols[0], 2.0 * hh - 1.0

    def _spanning_sigma(self):
        edges = [2.0 / self.M, 1.0 - 2.0 / self.M]
        return np.unique(np.concatenate([np.linspace(0.0, 1.0, 401), edges]))

    def test_one_at_zero(self, solution):
        sols, rho = solution
        got = _unit_interpolant(sols, rho).at(0, np.array([0.0]))[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [4, 64])
    def test_reproduces_nodes(self, m):
        # m = 4 makes the two edge regions meet at sigma = 1/2
        rho = 0.3
        nodes = np.arange(1, m + 1) / m
        sols = 1.0 - 0.4 * nodes**rho + 0.1 * nodes
        got = _unit_interpolant(sols, rho).at(0, np.concatenate(([0.0], nodes)))
        np.testing.assert_allclose(got, np.concatenate(([1.0], sols)), rtol=0, atol=1e-12)

    def test_reproduces_kernel_solution_nodes(self, solution):
        sols, rho = solution
        got = _unit_interpolant(sols, rho).at(0, np.arange(1, self.M + 1) / self.M)
        np.testing.assert_allclose(got, sols, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("edge", [2.0 / 64, 1.0 - 2.0 / 64], ids=["left", "right"])
    def test_continuous_across_region_boundaries(self, solution, edge):
        sols, rho = solution
        eps = 1e-10
        lo, at, hi = _unit_interpolant(sols, rho).at(0, np.array([edge - eps, edge, edge + eps]))
        assert abs(hi - lo) < 1e-7 and abs(at - lo) < 1e-7

    def test_input_in_one_region(self, solution):
        # each region alone leaves the other two slices empty and gives
        # the same values as the spanning evaluation
        sols, rho = solution
        sig = self._spanning_sigma()
        kernel = _unit_interpolant(sols, rho)
        whole = kernel.at(0, sig)
        assert whole.shape == sig.shape
        for part in (
            sig <= 2.0 / self.M,
            (sig > 2.0 / self.M) & (sig < 1.0 - 2.0 / self.M),
            sig >= 1.0 - 2.0 / self.M,
        ):
            np.testing.assert_array_equal(kernel.at(0, sig[part]), whole[part])
        assert kernel.at(0, np.empty(0)).shape == (0,)


class TestKernelSolution:
    def test_validation_bracket(self):
        with pytest.raises(ValueError):
            KernelSolution(
                t=1.0,
                h=HurstParam(0.6),
                mesh=np.array([0.5, 1.0]),
                g_values=np.array([1.0, 0.9]),
                g_diag=np.array([0.9, 0.8]),
                bracket_M=np.array([0.5, 0.25]),
                residual=0.0,
            )
