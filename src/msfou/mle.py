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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import EstimateResult, Method
from .noise import HurstParam
from .numerics import (
    _cached_diagonal_values,
    _cached_endpoint_solutions,
    _interp_unit_solution,
    _layer_cumulative_square_integral,
    _require_small_residual,
)
from .paths import SamplePath

__all__ = ["MartingaleDecomposition", "decompose", "mle"]

# Unit-mesh resolution for the kernel solves behind Z, Q and <M>. One
# assembly per Hurst value; solutions are cached across paths sharing a
# mesh, so Monte Carlo loops pay the dense solves once.
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
    step); the Q numerator integrates g * X by the trapezoid rule on the
    full grid. Requires N >= m >= 8 and H >= 1/2. Raises RuntimeError when
    a kernel solve's linear-system residual exceeds 1e-6, as
    ``solve_g_kernel`` does.
    """
    if not isinstance(h, HurstParam):
        raise TypeError(f"expected HurstParam, got {type(h).__name__}")
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

    rho = 2.0 * h.h - 1.0
    cs = tuple(float(c) for c in mesh[1:] ** rho)
    sols, res_uniform = _cached_endpoint_solutions(h.h, _UNIT_MESH, cs)
    diag, res_graded = _cached_diagonal_values(h.h, _UNIT_MESH, cs)
    _require_small_residual(max(res_uniform, res_graded))

    dx = np.diff(full)
    # observation times t_i at even positions, midpoints t_i + d/2 at odd ones
    grid = np.repeat(x.full_times(), 2)[:-1]
    grid[1::2] += 0.5 * x.d

    bracket = np.concatenate(
        ([0.0], _layer_cumulative_square_integral(mesh[1:], np.asarray(diag), rho))
    )
    dm = np.diff(bracket)
    if np.any(dm <= 0.0):
        raise RuntimeError("degenerate bracket increment in <M>")

    z_vals = np.zeros(m + 1)
    f_vals = np.zeros(m + 1)  # F(t_k) = int_0^{t_k} g(s, t_k) X_s ds
    q_vals = np.empty(m + 1)
    for k in range(1, m + 1):
        t_k = mesh[k]
        stop = idx[k]
        prev = idx[k - 1]
        g = _interp_unit_solution(sols[k - 1], rho, grid[: 2 * stop + 1] / t_k)
        # contiguous copy: a strided @ sums in another order, moving Z's last bits
        z_vals[k] = float(np.ascontiguousarray(g[1::2]) @ dx[:stop])
        gx = g[0::2] * full[: stop + 1]
        f_vals[k] = float(np.trapezoid(gx, dx=x.d))
        # Q(t_{k-1}) by a predictable forward difference: the kernel is
        # advanced to t_k but the path is frozen at t_{k-1}, so Q never
        # peeks at the innovation it multiplies in the likelihood sums
        # (a look-ahead Q turns the numerator into a symmetric integral
        # and attenuates theta_hat by O(1), independent of the mesh).
        # The frozen-state panel uses int_0^{t_k} g(s, t_k) ds = <M>_k.
        c_k = float(np.trapezoid(gx[: prev + 1], dx=x.d))
        d_k = float(np.trapezoid(g[: 2 * prev + 1 : 2], dx=x.d))
        q_vals[k - 1] = (
            c_k - f_vals[k - 1] + full[prev] * (bracket[k] - d_k)
        ) / dm[k - 1]
    # right endpoint: one-sided, never enters the left-point sums
    q_vals[m] = (f_vals[m] - f_vals[m - 1]) / dm[m - 1]

    return MartingaleDecomposition(mesh=mesh, Z=z_vals, Q=q_vals, bracket_M=bracket)


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
