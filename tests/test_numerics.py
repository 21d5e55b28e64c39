"""Tests for the numerical kernel layer.

Covers:
  1. gamma_fn against high-precision frozen values and the recurrence.
  2. Stationary second moment p(theta) and its inverse.
  3. Correction integral against a brute-force tensor-grid oracle and an
     mpmath reference.
  4. The kernel equation solver: residual, identity, stability, reductions,
     and the Nystrom rows' integral of the constant.
  5. The edge-element kernel moments against an mpmath reference.
  6. The interpolant: nodes, region boundaries, and its window matrices.

Frozen constants come from the scripts in tests/oracles/, which use only
mpmath / direct quadrature and never import this package. The identity
check imports its side of the identity, int_0^t g(s, t) ds, from
tests/oracles/kernel_quadrature.py.
"""

import gc
import math
import re
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
from msfou import numerics
from msfou.numerics import (
    _batch_scaled_solve,
    _edge_moments,
    _graded_unit_system,
    _invert_p_impl,
    _unit_interpolant,
    _unit_kernel_system,
)
from oracles.kernel_quadrature import integral_g
from oracles.nystrom_rows import row_integral_defect, unit_nodes

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

# The arguments the library passes gamma_fn: 2H (p, its inverse, sigma_H and
# phi_statistic), and 3 - 4H, 4H - 1 and 2 - 2H, which enter sigma_H only,
# at H < 3/4; and 2H + 1, as p's constant H Gamma(2H) is Gamma(2H + 1) / 2.
# "<argument>-<H>": x
LIBRARY_GAMMA_ARGS = {
    f"{label}-{hh}": arg(hh)
    for hh in (0.501, 0.55, 0.6, 0.618, 0.65, 0.7, 0.75, 0.85, 0.99)
    for label, arg in (("2H", lambda hh: 2.0 * hh), ("2H+1", lambda hh: 2.0 * hh + 1.0),
                       ("3-4H", lambda hh: 3.0 - 4.0 * hh), ("4H-1", lambda hh: 4.0 * hh - 1.0),
                       ("2-2H", lambda hh: 2.0 - 2.0 * hh))
    if hh < 0.75 or label in ("2H", "2H+1")
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
# Long horizons (theta T up to 1e7) take the Kummer functions far into their
# asymptotic range; at H = 0.5001 the smooth part nearly cancels against an
# incomplete gamma term. Rows run in this order, so earlier rows keep their
# test ids as rows are added.
MPMATH_CORRECTION_TABLE = {
    (0.5, 0.501, 10.0): 5001.953745105893,
    (1.0, 0.65, 500.0): 1506.6260681396549,
    (2.0, 0.99, 50.0): 48.423762947346556,
    (10.0, 0.65, 1e4): 14996.493953669327,
    (0.01, 0.99, 1e6): 168613501.48694128,
    (1.0, 0.5001, 100.0): 499944.23488290346,
    (10.0, 0.75, 1e6): 560640.4869425825,
    # the benchmark's mc-rate horizons
    (1.0, 0.6, 125.0): 578.1785401958233,
    (1.0, 0.6, 250.0): 1153.1581766512916,
    (1.0, 0.6, 500.0): 2302.1589525336844,
    # either side of each branch switch of the incomplete gamma and Kummer
    # functions: theta T = s + 1 for s = rho and rho + 1, theta T = 20 and 40
    (1.0, 0.5001, 0.999): 4994.109788172366,
    (1.0, 0.5001, 1.001): 5004.109023409127,
    (1.0, 0.75, 2.49): 4.70990040019458,
    (1.0, 0.75, 2.51): 4.753469352350517,
    (2.0, 0.6, 9.99): 40.79047687187117,
    (2.0, 0.6, 10.01): 40.87133747425172,
    (0.5, 0.9, 79.9): 228.36899643104036,
    (0.5, 0.9, 80.1): 228.91972868781176,
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

    @pytest.mark.parametrize("x", LIBRARY_GAMMA_ARGS.values(), ids=LIBRARY_GAMMA_ARGS.keys())
    def test_library_arguments_against_mpmath(self, x):
        with mp.workdps(50):
            expected = float(mp.gamma(mp.mpf(x)))
        assert gamma_fn(x) == pytest.approx(expected, rel=1e-14)

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

    @pytest.mark.parametrize("h", [0.5001, 0.6, 0.75, 0.9, 0.99])
    def test_newton_steps_on_round_trip_grid(self, h):
        hp = HurstParam(h)
        for log_theta in np.linspace(-12.0, 5.0, 69):
            y = stationary_second_moment(math.exp(log_theta), hp)
            _, steps = _invert_p_impl(y, hp)
            assert 1 <= steps <= 12

    @pytest.mark.parametrize("y", [1e-300, 1e300])
    def test_newton_steps_at_moment_range_ends(self, y):
        # at y = 1e-300 the Brownian term alone sets the root, 1/(2y) = 5e299
        hp = HurstParam(0.99)
        theta, steps = _invert_p_impl(y, hp)
        print(f"  y = {y:.0e}: theta = {theta!r} after {steps} Newton steps")
        assert steps <= 12
        assert stationary_second_moment(theta, hp) == pytest.approx(y, rel=1e-14)

    def test_newton_stops_at_step_cap(self, monkeypatch):
        # a NaN step never meets the stopping test; the cap turns it into an error
        monkeypatch.setattr(numerics, "gamma_fn", lambda x: math.nan)
        with pytest.raises(RuntimeError, match="Newton"):
            _invert_p_impl(1.0, HurstParam(0.6))

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

    @pytest.mark.parametrize("key,expected", list(MPMATH_CORRECTION_TABLE.items()))
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

    def test_huge_drift(self):
        # I = T Gamma(rho) theta^(-rho) + O(theta^(-rho-1)), rho = 2H - 1: the
        # Kummer functions' arguments are 1e201 and 2e201, far in their
        # asymptotic range, and theta^(-rho-1) underflows
        got = correction_integral(1e200, HurstParam(0.9), 10.0)
        assert got == pytest.approx(10.0 * math.gamma(0.8) * 1e200**-0.8, rel=1e-14)

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
            gaps.append(abs(integral_g(sol) - sol.bracket_M[-1]) / sol.bracket_M[-1])
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

    @pytest.mark.parametrize("hh", [0.5, 0.65])
    def test_mesh_size_must_be_integral(self, hh):
        # a whole float is read as the integer; a fractional one is refused
        # by name, not by a numpy TypeError
        h = HurstParam(hh)
        want = solve_g_kernel(1.0, h, m=256)
        got = solve_g_kernel(1.0, h, m=256.0)
        for name in ("mesh", "g_values", "g_diag", "bracket_M"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        with pytest.raises(ValueError, match="^m must be a whole number, got 8.5"):
            solve_g_kernel(1.0, h, m=8.5)

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

    def test_unit_1024_peaks_below_five_and_a_half_matrices(self):
        # the assembly writes each system's hat moments into its matrix by
        # row blocks, and the solves keep one full-size work array beside
        # the matrix, the solutions and their product: at m = 1024 a full
        # array is 1025^2 doubles, 8 MiB, and the bound is 5.5 of them.
        # Assembling the moments whole peaked at 56 MiB, seven such arrays
        solve_g_kernel(1.0, HurstParam(0.65), m=8)  # first-call allocations
        tracemalloc.start()
        try:
            solve_g_kernel(1.0, HurstParam(0.65), m=1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"  peak {peak / 2**20:.2f} MiB")
        assert peak < 45 * 2**20


def _per_shift_solutions(weights, cs):
    """Oracle: one dense solve of (I + c W) G = 1 - c e per shift c, then G_0 = 1.

    W is the matrix without the known node sigma = 0, e its column in the
    other rows: the system that the known value g(0, t) = 1 leaves.
    """
    inner, known = weights[1:, 1:], weights[1:, 0]
    eye = np.eye(len(inner))
    sols = [np.linalg.solve(eye + c * inner, 1.0 - c * known) for c in cs]
    return np.concatenate((np.ones((len(cs), 1)), sols), axis=1)


SYSTEMS = pytest.mark.parametrize(
    "system", [_unit_kernel_system, _graded_unit_system], ids=["uniform", "graded"]
)


class TestBatchScaledSolve:
    # H = 0.5002 and m = 9: the edge element's rows of the uniform system
    # hold entries of 300 beside a diagonal near 1, which an unbalanced
    # Krylov basis resolves only to 1e-10; m = 9 is not a multiple of the
    # Krylov check interval, so the basis ends at the whole space. At
    # H = 0.501 and m = 65 a residual at rounding level in the balanced
    # system still left 2e-11 in the original one.
    @pytest.mark.parametrize("m", [8, 9, 64, 65, 256])
    @pytest.mark.parametrize("hh", [0.5002, 0.501, 0.55, 0.65, 0.75, 0.9, 0.99])
    @SYSTEMS
    def test_matches_per_shift_solve(self, system, hh, m):
        # the shifts of a T = 200 horizon: c_j = (j T / m)^rho, j = 1..m
        weights = system(hh, m)
        cs = (np.arange(1, m + 1) * (200.0 / m)) ** (2.0 * hh - 1.0)
        sols, residual = _batch_scaled_solve(weights, cs)
        want = _per_shift_solutions(weights, cs)
        assert float(np.max(np.abs(sols - want))) <= 1e-12
        gap = 1.0 - sols - cs[:, None] * (sols @ weights.T)
        assert residual == float(np.max(np.abs(gap)))

    @pytest.mark.parametrize("hh", [0.5002, 0.65])
    @SYSTEMS
    def test_unit_1024_matches_per_shift_solve(self, system, hh):
        # the README's 1024 shifts (T = 200) on a unit mesh four times the
        # default, against a dense solve of every 64th shift
        weights = system(hh, 1024)
        cs = (np.arange(1, 1025) * (200.0 / 1024)) ** (2.0 * hh - 1.0)
        sols, residual = _batch_scaled_solve(weights, cs)
        want = _per_shift_solutions(weights, cs[::64])
        assert float(np.max(np.abs(sols[::64] - want))) <= 1e-12
        assert residual <= 1e-12

    @SYSTEMS
    def test_factors_no_matrix_of_order_m(self, system, monkeypatch):
        # the shifts share small projected problems, never an m x m
        # factorization: record the order of every matrix that numpy's
        # dense eig, inv and solve see
        orders = []
        for name in ("eig", "inv", "solve"):
            real = getattr(np.linalg, name)

            def spy(a, *args, real=real, **kwargs):
                orders.append(np.shape(a)[-1])
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        m, hh = 256, 0.65
        weights = system(hh, m)
        orders.clear()  # assembly inverts a small shape matrix
        cs = (np.arange(1, m + 1) * (200.0 / m)) ** (2.0 * hh - 1.0)
        _batch_scaled_solve(weights, cs)
        assert orders and max(orders) < m // 2


class TestNystromRows:
    # every row of both unit matrices integrates the constant exactly, also
    # at m that are not powers of two: there a node distance computed an
    # ulp away from the mesh's own reads |x|^rho at x = 1e-17 instead of 0,
    # which left a defect of 0.49 at H = 0.5002
    @pytest.mark.parametrize("m", [9, 100, 250, 1000])
    @pytest.mark.parametrize("hh", [0.5002, 0.501, 0.55, 0.65, 0.85])
    @pytest.mark.parametrize(
        "name,system",
        [("uniform", _unit_kernel_system), ("graded", _graded_unit_system)],
        ids=["uniform", "graded"],
    )
    def test_rows_integrate_the_constant(self, name, system, hh, m):
        weights = system(hh, m)
        assert weights.shape == (m + 1, m + 1)
        assert not weights[0].any()  # the known node sigma = 0 has no equation
        assert row_integral_defect(name, hh, weights) <= 1e-12


def _hat_moments_whole(nodes: np.ndarray, rho: float, alpha: float):
    """Oracle: the hat moments of ``numerics._hat_panel_moments`` over every
    row at once, each antiderivative evaluated at both ends of every panel,
    in the same floating-point operations.
    """
    a, b, col = nodes[None, :-1], nodes[None, 1:], nodes[1:, None]

    def f_same(x):
        return np.sign(x) * np.abs(x) ** rho / rho

    def g_same(x):
        return np.abs(x) ** (rho + 1.0) / (rho + 1.0)

    d_f = f_same(b - col) - f_same(a - col)
    d_g = g_same(b - col) - g_same(a - col)
    cross_0 = ((b + col) ** rho - (a + col) ** rho) / rho
    cross_1 = ((b + col) ** (rho + 1.0) - (a + col) ** (rho + 1.0)) / (
        rho + 1.0
    ) - (a + col) * cross_0
    return alpha * (d_f - cross_0), alpha * (d_g + (col - a) * d_f - cross_1) / (b - a)


class TestRowBlocks:
    # the kernel matrices are assembled by row blocks, each antiderivative
    # once per node; every entry must keep the bits of the whole-array
    # formulas, for one block and for blocks of a few rows (50 entries)
    @pytest.mark.parametrize("entries", [50, 2**17])
    @pytest.mark.parametrize("m", [9, 64, 100])
    @pytest.mark.parametrize("hh", [0.5002, 0.65, 0.75, 0.99])
    def test_hat_moments_match_the_whole_array_formulas(self, hh, m, entries, monkeypatch):
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", entries)
        rho = 2.0 * hh - 1.0
        rows = list(numerics._row_blocks(m, m + 1))
        assert (len(rows) > 1) == (entries == 50)
        for system in ("uniform", "graded"):
            nodes, _ = unit_nodes(system, hh, m)
            blocks = [numerics._hat_panel_moments(nodes, rho, hh * rho, r) for r in rows]
            for got, want in zip(zip(*blocks), _hat_moments_whole(nodes, rho, hh * rho)):
                assert np.concatenate(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("hh", [0.501, 0.65])
    @SYSTEMS
    def test_blocks_change_no_bit(self, system, hh, monkeypatch):
        # the matrices and the batch solve's residual, whose check runs by
        # row blocks, read the same with blocks of one row as with one block
        cs = (np.arange(1, 65) * (200.0 / 64)) ** (2.0 * hh - 1.0)
        whole = system(hh, 64)
        sols, residual = _batch_scaled_solve(whole, cs)
        monkeypatch.setattr(numerics, "_BLOCK_ENTRIES", 1)
        blocked = system(hh, 64)
        assert blocked.tobytes() == whole.tobytes()
        assert _batch_scaled_solve(blocked, cs)[1] == residual


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
        # 1 - sig would leave c and X 1e-30 apart at i = m - 2 when 1/m is
        # not a binary fraction, and (1e-30)^rho is far from 0
        c = sig if side == "left" else mp.mpf(m - i) / m

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
    # the middle, so each branch (c >= X, 0 < c < X, c = 0) is taken;
    # m = 100: the same rows where 1/m is not a binary fraction, so that
    # sigma = 1 - X must still meet the right element's end exactly
    @pytest.mark.parametrize(
        "m,rows",
        [(4, (1, 2, 3, 4)), (64, (1, 2, 3, 31, 62, 63, 64)), (100, (1, 2, 3, 49, 98, 99, 100))],
        ids=["m4", "m64", "m100"],
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

    # at H = 0.5002 rho falls below _MIN_LAYER_RHO and the exponent is 1
    @pytest.fixture(
        params=[0.5002, 0.501, 0.65, 0.9], ids=["H0.5002", "H0.501", "H0.65", "H0.9"]
    )
    def solution(self, request):
        hh = request.param
        sols, _ = _batch_scaled_solve(_unit_kernel_system(hh, self.M), np.array([5.0]))
        return sols[0, 1:], 2.0 * hh - 1.0

    def _spanning_sigma(self):
        edges = [2.0 / self.M, 1.0 - 2.0 / self.M]
        return np.unique(np.concatenate([np.linspace(0.0, 1.0, 401), edges]))

    def test_one_at_zero(self, solution):
        # exact: the left edge element's first shape function row is e_0,
        # so mle's trapezoid ends take g(0, t) = 1 without evaluating it
        sols, rho = solution
        got = _unit_interpolant(sols, rho).at(0, np.array([0.0]))[0]
        assert got == 1.0

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


class TestWindow:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_loop_over_at(self, seed):
        # row k holds g_k(s_i / t_k) at i = lo[k] .. hi[k] - 1, in order and
        # int32-indexed; a row with lo[k] = hi[k] stays empty
        hh, rows = 0.65, 7
        t = np.linspace(1.0, 3.0, rows)
        sols, _ = _batch_scaled_solve(_unit_kernel_system(hh, 64), t ** (2.0 * hh - 1.0))
        kernel = _unit_interpolant(sols[:, 1:], 2.0 * hh - 1.0)
        s = 0.01 * np.arange(101)
        rng = np.random.default_rng(seed)
        lo = rng.integers(0, s.size + 1, rows)
        hi = np.minimum(lo + rng.integers(0, 40, rows), s.size)
        hi[seed] = lo[seed]
        win = kernel.window(t, s, lo, hi)
        assert win.shape == (rows, s.size)
        assert win.indices.dtype == win.indptr.dtype == np.int32
        a = rng.standard_normal(s.size)
        sums = win @ a
        for k in range(rows):
            cols = np.arange(lo[k], hi[k])
            row = slice(win.indptr[k], win.indptr[k + 1])
            np.testing.assert_array_equal(win.indices[row], cols)
            np.testing.assert_array_equal(win.data[row], kernel.at(k, s[cols] / t[k]))
            assert sums[k] == pytest.approx(win.data[row] @ a[cols], rel=1e-14, abs=0)
        assert win.nnz == (hi - lo).sum()


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

    @pytest.mark.parametrize("fields,message", [
        ({"g_diag": [[0.9, 0.8]]}, "g_diag must be one-dimensional"),
        ({"g_values": [1.0, math.nan]}, "g_values contains non-finite entries"),
        ({"bracket_M": [0.5, 0.75, 1.0]}, "mesh, g_values, g_diag, bracket_M must share a length"),
        ({"mesh": [], "g_values": [], "g_diag": [], "bracket_M": []}, "mesh must be nonempty"),
        ({"mesh": [0.5, 0.9]}, "mesh must end at the right endpoint t"),
        ({"mesh": [0.5, 0.4, 1.0], "g_values": [1.0, 0.9, 0.8], "g_diag": [0.9, 0.9, 0.8],
          "bracket_M": [0.5, 0.6, 0.75]}, "mesh must be strictly increasing within (0, t]"),
    ])
    def test_sampled_vector_checks(self, fields, message):
        good = {"mesh": [0.5, 1.0], "g_values": [1.0, 0.9], "g_diag": [0.9, 0.8],
                "bracket_M": [0.5, 0.75]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KernelSolution(t=1.0, h=HurstParam(0.6), residual=0.0, **{**good, **fields})

    def test_vectors_are_read_only_float_copies(self):
        g = np.array([1, 1])
        sol = KernelSolution(t=1.0, h=HurstParam(0.6), mesh=[0.5, 1.0], g_values=g,
                             g_diag=g, bracket_M=[0.5, 1.0], residual=0.0)
        assert sol.g_values.dtype == float and sol.g_values is not g
        assert sol.g_values is not sol.g_diag
        with pytest.raises(ValueError):
            sol.g_diag[0] = 2.0
