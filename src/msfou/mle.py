"""Maximum likelihood estimation of the drift via the fundamental martingale.

The mixed sub-fractional driving noise is not a semimartingale, but
filtering theory supplies a kernel g(s, t) (see ``numerics.solve_g_kernel``)
such that

    Z_t  = int_0^t g(s, t) dX_s

is a semimartingale with decomposition dZ = -theta Q d<M> + dM, where M is
the fundamental martingale, <M>_t = int_0^t g(s, s)^2 ds and

    Q_t  = d/d<M>_t  int_0^t g(s, t) X_s ds.

The MLE is the Girsanov ratio

    theta_hat = - int_0^T Q dZ / int_0^T Q^2 d<M>,

computed here with left-point Riemann-Stieltjes sums on a coarse estimation
mesh (each mesh point needs its own kernel solve, so the mesh is decoupled
from the simulation grid). Q has no closed form; it is recovered by a
forward finite difference of the numerator integral against increments of
<M>, with the path state frozen at the left mesh point so the difference
stays predictable (one-sided at the right endpoint, which the sums never
use). At H = 1/2 everything collapses to g = 1, Z = X, Q_{k-1} = X_{k-1},
<M> = t, and the estimator coincides with the classical OU MLE.

Everything in ``decompose`` but a few prefix sums of the path depends on
the grid (H, N, d, m) alone, so it is built once per grid and cached
(``_grid_plan``): the kernel solves and <M> from ``numerics._mesh_kernel``,
and from its interpolant of g(., t_k) the ``numerics`` operators that sum
g against a path on the observation grid up to t_k, the trapezoid weights
of g over the last panel [t_{k-1}, t_k], and the integral of g alone.
Q's frozen-state sums up to t_{k-1} are the sums up to t_k minus the last
panel's. The interpolant itself is not kept. A path on a cached grid then
costs O(N + m * 256) instead of O(m * N).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .estimators import EstimateResult, Method
from .noise import HurstParam, _count, _frozen_vectors, _hurst, _positive
from .numerics import _GridSums, _mesh_kernel
from .paths import SamplePath

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["MartingaleDecomposition", "decompose", "mle"]

# Unit-mesh resolution for the kernel solves behind Z, Q and <M>. The
# systems are assembled and solved, and the sums built from them, once per
# grid (H, N, d, m) in the cached plan, so Monte Carlo loops pay them once.
_UNIT_MESH = 256


@dataclass(frozen=True)
class MartingaleDecomposition:
    """Z, Q and <M> sampled on the estimation mesh (t_0 = 0 included)."""

    mesh: np.ndarray
    Z: np.ndarray
    Q: np.ndarray
    bracket_M: np.ndarray

    def __post_init__(self) -> None:
        n = _frozen_vectors(self, ("mesh", "Z", "Q", "bracket_M"))
        if n < 2 or self.mesh[0] != 0.0 or np.any(np.diff(self.mesh) <= 0.0):
            raise ValueError("mesh must be strictly increasing from t_0 = 0")
        if self.bracket_M[0] != 0.0 or np.any(np.diff(self.bracket_M) <= 0.0):
            raise ValueError("bracket_M must start at 0 and strictly increase")


def _mesh_indices(n: int, m: int) -> np.ndarray:
    """Observation index round(k N / m) of mesh time k = 0..m."""
    idx = np.round(np.arange(m + 1) * (n / m)).astype(int)
    idx[0], idx[-1] = 0, n
    if np.any(np.diff(idx) <= 0):
        raise ValueError(f"mesh size {m} does not embed in {n} observation points")
    return idx


@dataclass(frozen=True, eq=False)
class _GridPlan:
    """The part of ``decompose`` that depends on the grid (H, N, d, m) only.

    z_sums sums g(., t_k) at the step midpoints up to t_k, f_sums at the
    observation times up to t_k; panel holds d^-1 times the trapezoid
    weights of g(., t_k) on [t_{k-1}, t_k], one CSR row per k. g_stop is
    g(t_k, t_k) (at s = 0, g is exactly 1); d_vals the trapezoid
    int_0^{t_{k-1}} g(s, t_k) ds; bracket is <M> on the mesh.
    """

    z_sums: _GridSums
    f_sums: _GridSums
    panel: sparse.csr_array
    g_stop: np.ndarray
    d_vals: np.ndarray
    bracket: np.ndarray

    def __post_init__(self) -> None:
        panel = (self.panel.data, self.panel.indices, self.panel.indptr)
        for arr in (*panel, self.g_stop, self.d_vals, self.bracket):
            arr.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _grid_plan(hh: float, n: int, d: float, m: int) -> _GridPlan:
    """Kernel solves and grid-only sums for paths of n steps d on an m-panel mesh.

    Cached per (H, N, d, m): paths sharing a grid pay the solves, the
    interpolant and the operators' build once, and the interpolant itself
    is dropped once the operators hold what they need of it. Raises
    RuntimeError as the kernel solves do.
    """
    idx = _mesh_indices(n, m)
    times = d * np.arange(n + 1)  # t_0..t_N of the path
    t = idx[1:] * d
    kernel, bracket = _mesh_kernel(hh, _UNIT_MESH, t)
    if np.any(np.diff(bracket) <= 0.0):
        raise RuntimeError("degenerate bracket increment in <M>")
    stop, prev = idx[1:], idx[:-1]
    # Z on the step midpoints, F on the observation times, both up to t_k
    z_sums, f_sums = kernel.grid_sums(t, [(times[:-1] + 0.5 * d, stop), (times, stop + 1)])
    # g(., t_k) at the observation times of [t_{k-1}, t_k], halved at both ends
    panel = kernel.window(t, times, prev, stop + 1)
    g_stop = panel.data[panel.indptr[1:] - 1]  # g(t_k, t_k), copied before the halving
    panel.data[panel.indptr[:-1]] *= 0.5
    panel.data[panel.indptr[1:] - 1] *= 0.5
    # the operators hold all they need of the interpolant: drop it before
    # the first sum runs, so the sum's temporaries do not come on top of it
    del kernel
    return _GridPlan(
        z_sums=z_sums,
        f_sums=f_sums,
        panel=panel,
        g_stop=g_stop,
        d_vals=d * (f_sums(np.ones(n + 1)) - 0.5 * (1.0 + g_stop) - panel.sum(axis=1)),
        bracket=bracket,
    )


def decompose(x: SamplePath, h: HurstParam, m: int = 128) -> MartingaleDecomposition:
    """Compute Z, Q, <M> at m mesh times snapped onto the observation grid.

    Mesh time k is observation index round(k N / m), so the mesh inherits
    the grid exactly and ends at T. Z(t_k) integrates g(., t_k) against the
    raw path increments (midpoint evaluation of g on each observation
    step); the Q numerator F(t_k) integrates g * X by the trapezoid rule on
    the full grid. Both are plain sums of g(s_i, t_k) a_i up to t_k. The
    frozen-state panel of Q takes the trapezoids of g * X and g up to
    t_{k-1} as those up to t_k minus the ones over the last panel
    [t_{k-1}, t_k]. The kernel solves, <M>, the integral of g alone and
    everything else of these sums but a few prefix sums and one sparse
    product of the path are built once per grid (H, N, d, m) and cached,
    so a further path on the grid costs O(N + m * 256). m must
    be a whole number with N >= m >= 8 ("m must be a whole number, got
    8.5"; 8.0 reads as 8), and H >= 1/2. Raises RuntimeError when a kernel
    solve's linear-system residual exceeds 1e-6, as ``solve_g_kernel`` does.

    H = 1/2 takes the exact g = 1 and <M>_t = t, not the H -> 1/2 limit
    g = 1/2, <M>_t = t/2; theta_hat does not see the factor, which halves
    Z and <M> exactly. <M>_T reads 50.0 at H = 1/2 on the path of theta = 1,
    N = 5000, d = 0.01, seed 3, with m = 250.
    """
    _hurst("decompose", h, "H >= 1/2")
    n = x.n
    m = _count("m", m, 8)
    if n < m:
        raise ValueError(f"path has {n} points, fewer than mesh size {m}")

    idx = _mesh_indices(n, m)
    mesh = idx * x.d
    full = x.full_values()

    if h.h == 0.5:
        # g = 1: Z = X, <M> = t, Q = X on the mesh, exactly
        vals = full[idx]
        return MartingaleDecomposition(mesh=mesh, Z=vals, Q=vals.copy(), bracket_M=mesh)

    plan = _grid_plan(h.h, n, x.d, m)
    stop, prev = idx[1:], idx[:-1]
    # Z(t_k): g(., t_k) at the step midpoints against the raw increments
    z_vals = plan.z_sums(np.diff(full))
    # F(t_k) = int_0^{t_k} g(s, t_k) X_s ds is a trapezoid rule on the
    # observation times: a plain sum up to t_k, minus half of each end value
    f_vals = x.d * (plan.f_sums(full) - 0.5 * (full[0] + plan.g_stop * full[stop]))
    # Q(t_{k-1}) by a predictable forward difference: the kernel is
    # advanced to t_k but the path is frozen at t_{k-1}, so Q never
    # peeks at the innovation it multiplies in the likelihood sums
    # (a look-ahead Q turns the numerator into a symmetric integral
    # and attenuates theta_hat by O(1), independent of the mesh).
    # The frozen-state panel uses int_0^{t_k} g(s, t_k) ds = <M>_k; c_k =
    # int_0^{t_{k-1}} g(s, t_k) X_s ds is F(t_k) minus the last panel's trapezoid.
    c_vals = f_vals - x.d * (plan.panel @ full)
    f_before = np.concatenate(([0.0], f_vals[:-1]))
    bracket = plan.bracket
    dm = np.diff(bracket)
    q_vals = np.empty(m + 1)
    q_vals[:-1] = (c_vals - f_before + full[prev] * (bracket[1:] - plan.d_vals)) / dm
    # right endpoint: one-sided, never enters the left-point sums
    q_vals[m] = (f_vals[-1] - f_vals[-2]) / dm[-1]

    return MartingaleDecomposition(
        mesh=mesh, Z=np.concatenate(([0.0], z_vals)), Q=q_vals, bracket_M=bracket
    )


def mle(x: SamplePath, h: HurstParam, m: int = 128) -> EstimateResult:
    """Likelihood estimate theta_hat = -int Q dZ / int Q^2 d<M>.

    Both integrals are left-point sums on the decomposition mesh, so the
    H = 1/2 case reproduces the classical discretized OU MLE
    -sum X_{k-1} dX_k / sum X_{k-1}^2 dt_k identically.

    The mesh must resolve the drift: left-point sums on panels of width
    w = T/m attenuate the estimate by roughly (1 - exp(-theta w)) /
    (theta w), so keep theta * T / m well below 1 (0.2 or less) when
    choosing m for long horizons.
    """
    dec = decompose(x, h, m)
    q_left = dec.Q[:-1]
    num = float(q_left @ np.diff(dec.Z))
    den = _positive("int Q^2 d<M>", (q_left * q_left) @ np.diff(dec.bracket_M))
    return EstimateResult(
        theta_hat=-num / den,
        method=Method.MLE,
        denominator=den,
        diagnostics={"numerator": num, "mesh_size": dec.mesh.size - 1},
    )
