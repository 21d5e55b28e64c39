"""Tests for the martingale decomposition and the likelihood estimator.

Covers:
  1. MartingaleDecomposition container validation.
  2. decompose: Brownian shortcut, mesh embedding, degenerate paths,
     noise-free drift recovery, parameter gates, the per-grid plan cache.
  3. decompose against a per-mesh-point reference loop that evaluates the
     kernel on every observation up to each mesh time.
  4. mle: exact agreement with the classical discretized OU likelihood
     estimate at H = 1/2, mesh-refinement stability, the algebraic error
     identity, and a small Monte Carlo sign check.
"""

import dataclasses
import importlib
import math

import numpy as np
import pytest

from msfou import (
    HurstParam,
    MartingaleDecomposition,
    Method,
    SamplePath,
    decompose,
    euler_msfou,
    mle,
)

# the package re-exports the function mle under the module's name
mle_module = importlib.import_module("msfou.mle")
numerics = importlib.import_module("msfou.numerics")


def _classical_ou_mle(values: np.ndarray, d: float) -> float:
    """-sum X_{k-1} dX_k / sum X_{k-1}^2 d on a uniform grid (X_0 included)."""
    dx = np.diff(values)
    left = values[:-1]
    return -float(left @ dx) / float((left * left) @ np.full(left.size, d))


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

class TestMartingaleDecomposition:
    def test_accepts_consistent_arrays(self):
        dec = MartingaleDecomposition(
            mesh=[0.0, 1.0, 2.0],
            Z=[0.0, 0.5, 0.3],
            Q=[0.1, 0.2, 0.3],
            bracket_M=[0.0, 1.0, 2.0],
        )
        assert dec.mesh[0] == 0.0
        with pytest.raises(ValueError):
            dec.Z[0] = 1.0  # read-only

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            MartingaleDecomposition(
                mesh=[0.0, 1.0], Z=[0.0, 1.0, 2.0], Q=[0.0, 1.0], bracket_M=[0.0, 1.0]
            )

    def test_rejects_mesh_not_from_zero(self):
        with pytest.raises(ValueError):
            MartingaleDecomposition(
                mesh=[0.5, 1.0], Z=[0.0, 1.0], Q=[0.0, 1.0], bracket_M=[0.0, 1.0]
            )

    def test_rejects_flat_bracket(self):
        with pytest.raises(ValueError):
            MartingaleDecomposition(
                mesh=[0.0, 1.0, 2.0],
                Z=[0.0, 1.0, 2.0],
                Q=[0.0, 1.0, 2.0],
                bracket_M=[0.0, 1.0, 1.0],
            )


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

class TestDecompose:
    def test_brownian_shortcut_is_exact(self):
        # H = 1/2: Z = X, Q = X, <M> = t on the mesh, with no quadrature
        x = euler_msfou(theta=1.0, H=HurstParam(0.5), d=0.01, N=100, seed=11)
        dec = decompose(x, HurstParam(0.5), m=10)
        idx = np.round(np.arange(11) * 10).astype(int)
        np.testing.assert_array_equal(dec.Z, x.full_values()[idx])
        np.testing.assert_array_equal(dec.Q, x.full_values()[idx])
        np.testing.assert_allclose(dec.bracket_M, dec.mesh, rtol=0, atol=0)

    def test_shapes_and_mesh_embedding(self):
        h = HurstParam(0.65)
        x = euler_msfou(theta=1.0, H=h, d=0.02, N=96, seed=5)
        dec = decompose(x, h, m=12)
        assert dec.mesh.size == 13
        assert dec.mesh[0] == 0.0
        assert dec.mesh[-1] == pytest.approx(x.span, rel=1e-14)
        # every mesh time is an observation time
        ratio = dec.mesh / x.d
        np.testing.assert_allclose(ratio, np.round(ratio), atol=1e-9)

    def test_zero_path_gives_zero_functionals(self):
        h = HurstParam(0.65)
        x = SamplePath(d=0.02, values=np.zeros(64))
        dec = decompose(x, h, m=8)
        np.testing.assert_array_equal(dec.Z, np.zeros(9))
        np.testing.assert_array_equal(dec.Q, np.zeros(9))
        assert dec.bracket_M[-1] > 0.0  # <M> is path-independent

    def test_gates(self):
        h = HurstParam(0.65)
        x = euler_msfou(theta=1.0, H=h, d=0.02, N=64, seed=1)
        with pytest.raises(ValueError):
            decompose(x, HurstParam(0.45), m=8)
        with pytest.raises(ValueError):
            decompose(x, h, m=7)
        with pytest.raises(ValueError):
            decompose(x, h, m=65)
        for bad in (8.7, math.nan, math.inf):
            for fn in (decompose, mle):
                with pytest.raises(ValueError, match="mesh size m must be an integer"):
                    fn(x, h, m=bad)
        for fn in (decompose, mle):
            with pytest.raises(ValueError, match="fewer than mesh size m"):
                fn(x, h, m=10**400)
        np.testing.assert_array_equal(decompose(x, h, m=8.0).Q, decompose(x, h, m=8).Q)

    @pytest.mark.parametrize("system", ["_unit_kernel_system", "_graded_unit_system"])
    def test_large_solve_residual_raises(self, system, monkeypatch):
        # the batch solve of one of the two systems reports a residual of
        # 1e-3, on a grid (d = 0.0371) that no other test decomposes, so no
        # cached plan can stand in for the solve; the cache keeps no
        # exception, so a second call solves and raises again
        h = HurstParam(0.65)
        build, real = getattr(numerics, system), numerics._batch_scaled_solve
        faulty = []  # the weight matrices this system's builder returned

        def assemble(hh, m):
            weights, anchor = build(hh, m)
            faulty.append(weights)
            return weights, anchor

        def solve(weights, anchor, cs):
            sols, residual = real(weights, anchor, cs)
            return sols, 1e-3 if any(weights is w for w in faulty) else residual

        monkeypatch.setattr(numerics, system, assemble)
        monkeypatch.setattr(numerics, "_batch_scaled_solve", solve)
        x = euler_msfou(theta=1.0, H=h, d=0.0371, N=64, seed=5)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="residual 1.000e-03 > 1e-6"):
                decompose(x, h, m=8)

    def test_cached_kernel_is_read_only(self):
        # decompose's kernel sums and <M> live in a plan shared by every path on the grid
        h = HurstParam(0.7)
        x, y = (euler_msfou(theta=1.0, H=h, d=0.0293, N=64, seed=seed) for seed in (3, 4))
        decompose(x, h, m=8)
        info = mle_module._grid_plan.cache_info()
        warm = decompose(y, h, m=8)
        assert mle_module._grid_plan.cache_info().hits == info.hits + 1
        assert mle_module._grid_plan.cache_info().misses == info.misses
        arrays = list(_arrays(mle_module._grid_plan(h.h, x.n, x.d, 8)))
        assert len(arrays) >= 20
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        mle_module._grid_plan.cache_clear()
        cold = decompose(y, h, m=8)
        for name in ("Z", "Q", "bracket_M"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name

    def test_plan_is_keyed_on_the_observation_grid(self):
        # (N, d) = (64, 0.02) and (128, 0.01) share the mesh t_k = 0.16 k
        # at m = 8 but not the observation grid, so not a plan
        h = HurstParam(0.7)
        paths = [euler_msfou(1.0, H=h, d=d, N=n, seed=3) for n, d in ((64, 0.02), (128, 0.01))]
        mle_module._grid_plan.cache_clear()
        warm = []
        for x in paths:
            misses = mle_module._grid_plan.cache_info().misses
            warm.append(decompose(x, h, m=8))
            assert mle_module._grid_plan.cache_info().misses == misses + 1
        np.testing.assert_array_equal(warm[0].mesh, warm[1].mesh)
        for x, got in zip(paths, warm):
            mle_module._grid_plan.cache_clear()
            cold = decompose(x, h, m=8)
            want = _reference_decompose(x, h, 8)
            for name in ("Z", "Q", "bracket_M"):
                assert getattr(got, name).tobytes() == getattr(cold, name).tobytes(), name
            for name in ("Z", "Q"):
                g, w = getattr(got, name), getattr(want, name)
                assert np.abs(g - w).max() <= 1e-9 * np.abs(w).max(), name

    def test_bracket_is_deterministic_in_the_path(self):
        # <M> depends only on (H, mesh), not on the observed values
        h = HurstParam(0.7)
        a = euler_msfou(theta=1.0, H=h, d=0.02, N=64, seed=3)
        b = euler_msfou(theta=0.2, H=h, d=0.02, N=64, seed=13)
        da = decompose(a, h, m=8)
        db = decompose(b, h, m=8)
        np.testing.assert_array_equal(da.bracket_M, db.bracket_M)


# ---------------------------------------------------------------------------
# decompose against the per-mesh-point reference
# ---------------------------------------------------------------------------

def _reference_decompose(x, h, m):
    """decompose as one kernel evaluation per mesh point: O(m N) work.

    For each mesh time t_k the interpolant is evaluated on every
    observation time and step midpoint up to t_k; Z takes the midpoint
    sum against the increments, F and the frozen-state panel take
    np.trapezoid on the observation times.
    """
    n = x.n
    idx = np.round(np.arange(m + 1) * (n / m)).astype(int)
    idx[0], idx[-1] = 0, n
    mesh = idx * x.d
    full = x.full_values()
    rho = 2.0 * h.h - 1.0
    sols, _, bracket, _ = numerics._solve_kernel(h.h, mle_module._UNIT_MESH, mesh[1:], mesh[1:])
    bracket = np.concatenate(([0.0], bracket))
    dm = np.diff(bracket)
    dx = np.diff(full)
    grid = np.repeat(x.full_times(), 2)[:-1]
    grid[1::2] += 0.5 * x.d

    z_vals = np.zeros(m + 1)
    f_vals = np.zeros(m + 1)
    q_vals = np.empty(m + 1)
    for k in range(1, m + 1):
        stop, prev = idx[k], idx[k - 1]
        g = numerics._unit_interpolant(sols[k - 1], rho).at(0, grid[: 2 * stop + 1] / mesh[k])
        z_vals[k] = float(g[1::2] @ dx[:stop])
        gx = g[0::2] * full[: stop + 1]
        f_vals[k] = float(np.trapezoid(gx, dx=x.d))
        c_k = float(np.trapezoid(gx[: prev + 1], dx=x.d))
        d_k = float(np.trapezoid(g[: 2 * prev + 1 : 2], dx=x.d))
        q_vals[k - 1] = (c_k - f_vals[k - 1] + full[prev] * (bracket[k] - d_k)) / dm[k - 1]
    q_vals[m] = (f_vals[m] - f_vals[m - 1]) / dm[m - 1]
    return MartingaleDecomposition(mesh=mesh, Z=z_vals, Q=q_vals, bracket_M=bracket)


def _arrays(obj):
    """Every numpy array reachable through dataclass fields and tuples of obj."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


def _theta_hat(dec):
    q = dec.Q[:-1]
    return -float(q @ np.diff(dec.Z)) / float((q * q) @ np.diff(dec.bracket_M))


class TestDecomposeMatchesReference:
    # the panel sums reassociate the reference's sums, so outputs agree to
    # rounding, not bit for bit; <M> takes the same path in both
    @pytest.mark.parametrize(
        "hh,n,m,seed",
        [
            (0.65, 20000, 1024, 314),  # the README path
            (0.55, 3001, 129, 7),
            (0.85, 5000, 8, 7),
            (0.6, 777, 777, 7),
            (0.65, 20000, 4096, 7),
            (0.501, 5000, 250, 7),
            (0.9, 20000, 1024, 7),
            (0.5002, 3000, 100, 9),  # rho below _MIN_LAYER_RHO: exponent 1
        ],
    )
    def test_matches_per_mesh_point_loop(self, hh, n, m, seed):
        h = HurstParam(hh)
        x = euler_msfou(1.0, H=h, d=0.01, N=n, seed=seed)
        got = decompose(x, h, m)
        want = _reference_decompose(x, h, m)
        np.testing.assert_array_equal(got.mesh, want.mesh)
        np.testing.assert_array_equal(got.bracket_M, want.bracket_M)
        for name in ("Z", "Q"):
            g, w = getattr(got, name), getattr(want, name)
            assert np.abs(g - w).max() <= 1e-9 * np.abs(w).max(), name
        theta = mle(x, h, m).theta_hat
        assert theta == _theta_hat(got)
        assert theta == pytest.approx(_theta_hat(want), rel=1e-9)


# ---------------------------------------------------------------------------
# likelihood estimator
# ---------------------------------------------------------------------------

class TestMle:
    @pytest.mark.parametrize("seed", range(10))
    def test_brownian_case_matches_classical(self, seed):
        # N = m, so the decomposition mesh is the observation grid itself
        x = euler_msfou(theta=1.0, H=HurstParam(0.5), d=0.01, N=128, seed=seed)
        got = mle(x, HurstParam(0.5), m=128).theta_hat
        want = _classical_ou_mle(x.full_values(), x.d)
        assert got == pytest.approx(want, abs=1e-10)

    def test_mesh_refinement_is_stable(self):
        h = HurstParam(0.65)
        x = euler_msfou(theta=1.0, H=h, d=0.01, N=2000, seed=404)
        coarse = mle(x, h, m=64).theta_hat
        fine = mle(x, h, m=128).theta_hat
        print(f"  m=64: {coarse:.6f}   m=128: {fine:.6f}")
        assert fine == pytest.approx(coarse, rel=0.05)

    def test_error_identity(self):
        # -sum Q (dZ + theta Q d<M>) / sum Q^2 d<M> == theta_hat - theta
        h = HurstParam(0.6)
        theta = 0.8
        x = euler_msfou(theta=theta, H=h, d=0.02, N=256, seed=21)
        dec = decompose(x, h, m=32)
        res = mle(x, h, m=32)
        q = dec.Q[:-1]
        dm_hat = np.diff(dec.Z) + theta * q * np.diff(dec.bracket_M)
        lhs = -float(q @ dm_hat) / float((q * q) @ np.diff(dec.bracket_M))
        assert lhs == pytest.approx(res.theta_hat - theta, rel=1e-10, abs=1e-12)

    def test_noise_free_path_recovers_drift(self):
        # on the noise-free Euler path X_i = (1 - theta d)^i, dX = -theta X dt
        # exactly, and the only error left is the predictable freeze of the
        # path state inside each mesh panel: first order in the panel width,
        # so the gap roughly halves when the mesh doubles
        h = HurstParam(0.65)
        x = SamplePath(d=0.01, values=np.cumprod(np.full(2000, 1.0 - 0.01)), initial_value=1.0)
        gap_coarse = abs(mle(x, h, m=128).theta_hat - 1.0)
        gap_fine = abs(mle(x, h, m=256).theta_hat - 1.0)
        print(f"  noise-free gap: m=128 {gap_coarse:.4f}  m=256 {gap_fine:.4f}")
        assert gap_coarse < 0.12
        assert gap_fine < 0.7 * gap_coarse

    def test_small_monte_carlo_mean(self):
        h = HurstParam(0.65)
        vals = []
        for seed in range(20):
            x = euler_msfou(theta=1.0, H=h, d=0.02, N=1000, seed=3000 + seed)
            vals.append(mle(x, h, m=64).theta_hat)
        mean = float(np.mean(vals))
        print(f"  MC mean over 20 paths: {mean:.4f}")
        assert 0.6 < mean < 1.4

    def test_degenerate_path_raises(self):
        h = HurstParam(0.6)
        x = SamplePath(d=0.02, values=np.zeros(64))
        with pytest.raises(ValueError):
            mle(x, h, m=8)

    def test_readme_estimate(self):
        # the README example; also pinned by the benchmark's mle_readme check
        h = HurstParam(0.65)
        x = euler_msfou(1.0, H=h, d=0.01, N=20000, seed=314)
        got = mle(x, h, m=1024).theta_hat
        assert got == pytest.approx(0.9925235842650837, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="known defect: mle collapses for 1/2 < H <~ 0.53")
    def test_continuous_at_the_brownian_limit(self):
        # the H = 0.501 path differs from the H = 0.5 one by at most 0.004
        # (path RMS 0.93) and the moment estimator reads 1.159 on both, yet
        # mle gives 0.972 at H = 0.5 and -0.058 at H = 0.501
        theta_hat = {}
        for hh in (0.5, 0.501):
            h = HurstParam(hh)
            x = euler_msfou(theta=1.0, H=h, d=0.01, N=5000, seed=3)
            theta_hat[hh] = mle(x, h, m=250).theta_hat
        assert abs(theta_hat[0.501] - theta_hat[0.5]) <= 0.1

    def test_result_fields(self):
        h = HurstParam(0.6)
        x = euler_msfou(theta=1.0, H=h, d=0.02, N=128, seed=8)
        res = mle(x, h, m=16)
        assert res.method is Method.MLE
        assert res.denominator > 0.0
        assert res.diagnostics["mesh_size"] == 16
