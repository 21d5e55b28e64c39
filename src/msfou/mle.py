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

The kernel comes from one call, ``numerics._mesh_kernel``, which returns
the unit-mesh interpolant of g(., t_k) for every mesh time and <M> on the
mesh, cached per (H, mesh). The integrals against the path are sums over
the observation grid of that interpolant, whose ``sums`` method takes all
m of them from a few prefix sums of the path: O(N + m * 256) work per path
instead of O(m * N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import EstimateResult, Method
from .noise import HurstParam
from .numerics import _mesh_kernel, _require_hurst
from .paths import SamplePath

__all__ = ["MartingaleDecomposition", "decompose", "mle"]

# Unit-mesh resolution for the kernel solves behind Z, Q and <M>. One
# assembly per Hurst value; the kernel and its interpolant are cached per
# (H, mesh), so Monte Carlo loops pay the dense solves once.
_UNIT_MESH = 256


@dataclass(frozen=True)
class MartingaleDecomposition:
    """Z, Q and <M> sampled on the estimation mesh (t_0 = 0 included)."""

    mesh: np.ndarray
    Z: np.ndarray
    Q: np.ndarray
    bracket_M: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mesh", "Z", "Q", "bracket_M"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.mesh.size
        if any(getattr(self, name).size != n for name in ("Z", "Q", "bracket_M")):
            raise ValueError("mesh, Z, Q, bracket_M must share a length")
        if n < 2 or self.mesh[0] != 0.0 or np.any(np.diff(self.mesh) <= 0.0):
            raise ValueError("mesh must be strictly increasing from t_0 = 0")
        if self.bracket_M[0] != 0.0 or np.any(np.diff(self.bracket_M) <= 0.0):
            raise ValueError("bracket_M must start at 0 and strictly increase")


def decompose(x: SamplePath, h: HurstParam, m: int = 128) -> MartingaleDecomposition:
    """Compute Z, Q, <M> at m mesh times snapped onto the observation grid.

    Mesh time k is observation index round(k N / m), so the mesh inherits
    the grid exactly and ends at T. Z(t_k) integrates g(., t_k) against the
    raw path increments (midpoint evaluation of g on each observation
    step); the Q numerator F(t_k) integrates g * X by the trapezoid rule on
    the full grid, and the frozen-state panel of Q integrates g * X and g
    by the trapezoid rule up to t_{k-1}. Each of these four integrals is a
    plain sum of g(s_i, t_k) a_i over the grid, taken for all k at once by
    the interpolant's ``sums`` from prefix sums of a, with the trapezoid's
    half weights at s = 0, t_{k-1} and t_k subtracted afterwards. Requires
    N >= m >= 8 and H >= 1/2. Raises RuntimeError when a kernel solve's
    linear-system residual exceeds 1e-6, as ``solve_g_kernel`` does.
    """
    _require_hurst(h)
    if h.h < 0.5:
        raise ValueError("decompose requires H >= 1/2")
    m = int(m)
    if m < 8:
        raise ValueError(f"mesh size must be >= 8, got {m}")
    n = x.n
    if n < m:
        raise ValueError(f"path has {n} points, fewer than mesh size {m}")

    idx = np.round(np.arange(m + 1) * (n / m)).astype(int)
    idx[0], idx[-1] = 0, n
    if np.any(np.diff(idx) <= 0):
        raise ValueError(f"mesh size {m} does not embed in {n} observation points")
    mesh = idx * x.d
    full = x.full_values()

    if h.h == 0.5:
        # g = 1: Z = X, <M> = t, Q = X on the mesh, exactly
        vals = full[idx]
        return MartingaleDecomposition(mesh=mesh, Z=vals, Q=vals.copy(), bracket_M=mesh)

    t = mesh[1:]
    kernel, bracket = _mesh_kernel(h.h, _UNIT_MESH, tuple(t.tolist()))
    dm = np.diff(bracket)
    if np.any(dm <= 0.0):
        raise RuntimeError("degenerate bracket increment in <M>")

    stop, prev = idx[1:], idx[:-1]
    times = x.full_times()
    # Z(t_k): g(., t_k) at the step midpoints against the raw increments
    (z_vals,) = kernel.sums(t, times[:-1] + 0.5 * x.d, [(np.diff(full), stop)])
    # F(t_k) = int_0^{t_k} g(s, t_k) X_s ds and the frozen-state panel
    # sums c_k, d_k below are trapezoid rules on the observation times:
    # plain sums up to the last point, minus half of each end value
    f_sum, c_sum, d_sum = kernel.sums(
        t, times, [(full, stop + 1), (full, prev + 1), (np.ones_like(full), prev + 1)]
    )
    rows = np.arange(m)
    g_0 = kernel.at(rows, np.zeros(m))
    g_stop = kernel.at(rows, times[stop] / t)
    g_prev = kernel.at(rows, times[prev] / t)
    f_vals = x.d * (f_sum - 0.5 * (g_0 * full[0] + g_stop * full[stop]))
    # Q(t_{k-1}) by a predictable forward difference: the kernel is
    # advanced to t_k but the path is frozen at t_{k-1}, so Q never
    # peeks at the innovation it multiplies in the likelihood sums
    # (a look-ahead Q turns the numerator into a symmetric integral
    # and attenuates theta_hat by O(1), independent of the mesh).
    # The frozen-state panel uses int_0^{t_k} g(s, t_k) ds = <M>_k.
    c_vals = x.d * (c_sum - 0.5 * (g_0 * full[0] + g_prev * full[prev]))
    d_vals = x.d * (d_sum - 0.5 * (g_0 + g_prev))
    f_before = np.concatenate(([0.0], f_vals[:-1]))
    q_vals = np.empty(m + 1)
    q_vals[:-1] = (c_vals - f_before + full[prev] * (bracket[1:] - d_vals)) / dm
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
    den = float((q_left * q_left) @ np.diff(dec.bracket_M))
    if not den > 0.0:
        raise ValueError("degenerate path: int Q^2 d<M> is zero")
    return EstimateResult(
        theta_hat=-num / den,
        method=Method.MLE,
        denominator=den,
        diagnostics={"numerator": num, "mesh_size": dec.mesh.size - 1},
    )
