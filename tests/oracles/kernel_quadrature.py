"""The integral of a kernel solution, int_0^t g(s, t) ds, for the identity checks.

The fundamental martingale satisfies int_0^t g(s, t) ds = <M>_t
(Kleptsyna & Le Breton, 2002), while ``solve_g_kernel`` builds <M> from
the squared diagonal g(s, s)^2. ``integral_g`` integrates the other side,
the nodal values g(s_j, t), so the two independent quadratures can be
compared; no estimator needs it. It uses the library's panel fits, so it
shares their layer resolution:

* panels 0 .. m-3 by quadratic fits in u = s^rho through consecutive node
  triples from s = 0, anchored at the exact value g(0, t) = 1, and a
  two-point fit c0 + c1 u on an odd trailing panel;
* the final panel pair by a quadratic fit in (t - s)^rho through the last
  three nodes.

Every fit is integrated in closed form. Below ``_MIN_LAYER_RHO`` the
exponent is 1 (plain polynomials), as in the library.
"""

import numpy as np

from msfou.numerics import _MIN_LAYER_RHO, KernelSolution, _fit_power_quadratics


def _poly_integral(coef: np.ndarray, s_lo, s_hi, exponent: float):
    """Integrate c0 + c1 u + c2 u^2 over [s_lo, s_hi], u = s^exponent."""
    total = 0.0
    for k in range(3):
        pw = k * exponent + 1.0
        total = total + coef[..., k] * (s_hi**pw - s_lo**pw) / pw
    return total


def _fit_integral(x: np.ndarray, y: np.ndarray, exponent: float) -> float:
    """Integral over [x[0], x[-1]] of the panel fits to y at nodes x (x.size >= 3)."""
    stop = 2 * ((x.size - 1) // 2) + 1
    coef = _fit_power_quadratics(x[:stop], y[:stop], exponent)
    whole = _poly_integral(coef, x[0 : stop - 1 : 2], x[2:stop:2], exponent)
    trailing = 0.0
    if x.size > stop:
        u0 = x[-2] ** exponent
        u1 = x[-1] ** exponent
        cb = (y[-1] - y[-2]) / (u1 - u0)
        ca = y[-2] - cb * u0
        trailing = float(_poly_integral(np.array([ca, cb, 0.0]), x[-2], x[-1], exponent))
    return float(np.sum(whole)) + trailing


def integral_g(sol: KernelSolution) -> float:
    """int_0^t g(s, t) ds of a solution on its mesh (m >= 8); equals <M>_t exactly."""
    rho = 2.0 * sol.h.h - 1.0
    exponent = rho if rho >= _MIN_LAYER_RHO else 1.0
    x = np.concatenate(([0.0], sol.mesh))
    y = np.concatenate(([1.0], sol.g_values))
    m = sol.mesh.size
    # the final pair on the reversed nodes t - s = [0, h_t, 2 h_t]
    return _fit_integral(x[: m - 1], y[: m - 1], exponent) + _fit_integral(
        sol.t - x[m - 2 :][::-1], y[m - 2 :][::-1], exponent
    )
