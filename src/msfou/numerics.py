"""Numerical kernels shared across the library.

Four tools live here:

* ``gamma_fn``: validated gamma function.
* ``correction_integral``: the weakly singular double integral entering the
  Skorohod-corrected least-squares estimator, reduced by Fubini to three
  one-dimensional integrals: two lower incomplete gamma functions in closed
  form and one smooth integral for ``scipy.integrate.quad``, whose error
  estimate must stay within 1e-7.
* ``stationary_second_moment`` / ``invert_p``: the monotone moment map
  ``p(theta) = 1/(2 theta) + H Gamma(2H) theta^(-2H)`` and its inverse
  (a closed-form bracket, then ``scipy.optimize.brentq``).
* ``solve_g_kernel``: Nystrom solution of the second-kind integral equation
  ``g(s,t) + int_0^t g(r,t) kappa(r,s) dr = 1`` with the kernel
  ``kappa(r,s) = H(2H-1)(|r-s|^(2H-2) - (r+s)^(2H-2))``, whose solution
  defines the fundamental martingale, together with the diagonal
  ``g(s,s)`` and the bracket ``<M>_t = int_0^t g(s,s)^2 ds``.

This module is the only one that knows how g is discretized. ``mle``
takes from it ``_mesh_kernel``, which gives for an estimation mesh the
interpolant of g(., t_k) at every mesh time and the bracket <M> on the
mesh. The interpolant evaluates g(., t) at any sigma (``at``) and builds
operators that sum it against data on a uniform grid (``grid_sums``):
everything in those sums that depends on the grid alone is built with
the operator, so applying it to data costs a few prefix sums, gathers
and dot products. Both ``_mesh_kernel`` and ``solve_g_kernel`` take their
solves from ``_solve_kernel``, which caches nothing: each call assembles
and factors its systems anew, and ``mle`` caches what a grid's paths
repeat.

The kernel ``kappa`` is homogeneous of degree ``2H-2``, so ``g(t*sigma, t)``
as a function of ``sigma`` solves ``(I + t^(2H-1) K) G = 1`` on a fixed unit
mesh. One matrix assembly per ``(H, m)`` therefore serves every right
endpoint ``t``; changing ``t`` only rescales the system by ``c = t^(2H-1)``.
The diagonal values ``g(s_j, s_j)`` come from a batch of such rescaled
solves, one per right endpoint ``s_j``, each fully resolved on its own
scaled mesh. The batch factors ``K`` once, by one eigendecomposition per
call; each rescaled system is then a diagonal scaling in the
eigenbasis, O(m^2) per right endpoint, and its residual is checked
against the original system.

Solutions carry boundary layers in powers of ``s^rho`` and ``(t-s)^rho``
(rho = 2H-1) at the two ends of ``[0, t]``. Two Nystrom systems handle
them. The uniform unit mesh, which serves ``g(., t)``, uses quadratic
elements in the layer coordinate ``u = sigma^rho`` (resp.
``(1-sigma)^rho``) on the two outermost panel pairs -- capturing the
``u^2 = sigma^(2 rho)`` curvature that a single power pair misses -- and
linear hats in between. The diagonal uses linear hats throughout, on a
mesh graded toward both ends. All kernel moments are exact: both systems
take their linear-hat moments from one assembly of elementary power
antiderivatives (``_hat_panel_moments``); both edge elements take theirs
from one routine of incomplete-beta and Gauss hypergeometric closed forms
(``_edge_moments``). Integrals over a mesh of nodal values (the bracket,
``KernelSolution.integral_g``) share one power-pair quadrature
(``_power_pair_integrals``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate
from scipy import optimize as _opt
from scipy import special as _sp

from .noise import HurstParam

__all__ = [
    "KernelSolution",
    "gamma_fn",
    "correction_integral",
    "stationary_second_moment",
    "invert_p",
    "solve_g_kernel",
]

# Fallback interpolation exponent: below this rho the power basis
# {1, s^rho, ...} is numerically indistinguishable from constants and the
# solution is flat anyway, so plain polynomial panels are used instead.
_MIN_LAYER_RHO = 1e-3

# Number of panels merged into each boundary-layer element (polynomial
# degree in the layer coordinate u = sigma^rho).
_EDGE_ORDER = 2

_MAX_MESH = 4096

# Mesh points per block of the grid-sum operators, as they are built and
# as they run, so their (block x panels) temporaries stay near 256 KiB
# whatever the row count.
_ROW_BLOCK = 128


def _require_hurst(h) -> HurstParam:
    if not isinstance(h, HurstParam):
        raise TypeError(f"expected HurstParam, got {type(h).__name__}")
    return h


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0.

    Thin validated wrapper over the scipy implementation (relative error
    at machine-precision level, well inside the 1e-12 contract).
    """
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return float(_sp.gamma(x))


# ---------------------------------------------------------------------------
# stationary second moment p(theta) and its inverse
# ---------------------------------------------------------------------------


def stationary_second_moment(theta: float, h: HurstParam) -> float:
    """p(theta) = 1/(2 theta) + H Gamma(2H) theta^(-2H).

    Large-time limit of the time-averaged squared process for drift
    theta > 0; strictly decreasing in theta when H >= 1/2, which is what
    makes the moment estimator well defined.
    """
    _require_hurst(h)
    theta = float(theta)
    if not theta > 0.0:
        raise ValueError(f"stationary_second_moment requires theta > 0, got {theta}")
    return 0.5 / theta + h.h * gamma_fn(2.0 * h.h) * theta ** (-2.0 * h.h)


def _invert_p_impl(y: float, h: HurstParam) -> tuple[float, int]:
    """Invert p; returns (theta, root-finder iterations) for diagnostics.

    The root is bracketed in closed form. With a = max(1/(2y), (c/y)^(1/2H))
    and b = max(1/y, (2c/y)^(1/2H)), c = H Gamma(2H), one term of p alone
    reaches y at a and each term is at most y/2 at b. Halving a and doubling
    b gives p(lo) >= 2y and p(hi) <= y/2, a sign change that survives
    rounding. Brent's method finishes at relative tolerance 4 eps.
    """
    hh = h.h
    if hh == 0.5:
        # p(theta) = 1/theta exactly at H = 1/2
        return 1.0 / y, 0
    if not 1e-300 <= y <= 1e300:
        # keeps the bracket and p(lo) <= 6y finite in floating point
        raise ValueError(f"moment y={y} outside [1e-300, 1e300], where p is inverted")

    c = hh * gamma_fn(2.0 * hh)

    def excess(th: float) -> float:
        return 0.5 / th + c * th ** (-2.0 * hh) - y

    lo = 0.5 * max(0.5 / y, (c / y) ** (0.5 / hh))
    hi = 2.0 * max(1.0 / y, (2.0 * c / y) ** (0.5 / hh))
    # brentq's default absolute xtol (2e-12) would cap the relative accuracy
    # of a small theta; the smallest subnormal leaves only rtol
    theta, info = _opt.brentq(
        excess, lo, hi, xtol=5e-324, rtol=4.0 * np.finfo(float).eps, full_output=True
    )
    return theta, info.iterations


def invert_p(y: float, h: HurstParam) -> float:
    """Unique theta > 0 with p(theta) = y, to |p(theta) - y| <= 1e-10 max(1, y).

    Requires H >= 1/2 (p is strictly decreasing there) and y > 0; for
    H > 1/2, y must lie in [1e-300, 1e300].
    """
    _require_hurst(h)
    y = float(y)
    if not (np.isfinite(y) and y > 0.0):
        raise ValueError(f"invert_p requires finite y > 0, got {y}")
    if h.h < 0.5:
        raise ValueError("invert_p requires H >= 1/2 (monotone regime)")
    theta, _ = _invert_p_impl(y, h)
    return float(theta)


# ---------------------------------------------------------------------------
# correction integral (weakly singular double integral)
# ---------------------------------------------------------------------------


_CORRECTION_TOL = 1e-7


@functools.lru_cache(maxsize=64)
def _correction_info(theta: float, hh: float, big_t: float) -> tuple[float, float, int]:
    """Correction integral with (value, error estimate, quad subintervals).

    Fubini in the (t-s, t+s) variables collapses the double integral to

        I = int_0^T (T-u) e^(-theta u) u^(2H-2) du
          + (1/(2 rho)) * [ int_0^T (2T-u)^rho e^(-theta u) du
                            - int_0^T u^rho e^(-theta u) du ],  rho = 2H-1.

    With the lower incomplete gamma function
    gamma(s, x) = int_0^x v^(s-1) e^(-v) dv, the first part is
    T theta^(-rho) gamma(rho, theta T) - theta^(-rho-1) gamma(rho+1, theta T)
    and the last theta^(-rho-1) gamma(rho+1, theta T). The smooth middle
    part goes to adaptive Gauss-Kronrod quadrature, asked for an error
    estimate within _CORRECTION_TOL on I. Its integrand decays on the scale
    1/theta; on a long horizon (theta T = 1e5) quad without breakpoints
    samples only the flat tail, misses that decay and reports a tiny error
    estimate for a wrong value. Breakpoints at 1, 10 and 100 times the
    scale prevent it.
    """
    rho = 2.0 * hh - 1.0
    x = theta * big_t
    part_d = theta ** (-rho - 1.0) * (_sp.gammainc(rho + 1.0, x) * _sp.gamma(rho + 1.0))
    part_a = big_t * theta ** (-rho) * (_sp.gammainc(rho, x) * _sp.gamma(rho)) - part_d
    points = [k / theta for k in (1.0, 10.0, 100.0) if k / theta < big_t]
    part_c, err, info = _integrate.quad(
        lambda u: (2.0 * big_t - u) ** rho * math.exp(-theta * u),
        0.0,
        big_t,
        points=points or None,
        epsabs=2.0 * rho * _CORRECTION_TOL,
        epsrel=0.0,
        full_output=1,
    )[:3]
    err /= 2.0 * rho
    if err > _CORRECTION_TOL:
        raise RuntimeError(
            f"correction integral error estimate {err:.3e} exceeds "
            f"tol={_CORRECTION_TOL} after {info['last']} subintervals"
        )
    return part_a + (part_c - part_d) / (2.0 * rho), err, info["last"]


def correction_integral(theta: float, h: HurstParam, big_t: float) -> float:
    """int_0^T int_0^t e^(-theta(t-s)) ((t-s)^(2H-2) + (t+s)^(2H-2)) ds dt.

    Fubini leaves three one-dimensional parts. Two are incomplete gamma
    functions; the third goes to scipy's adaptive quadrature, whose error
    estimate, 1e-7 at most, bounds the error of the result. The singular
    exponent 2H-2 is taken from h. Requires theta > 0 and H > 1/2 so the
    (t-s)^(2H-2) singularity is integrable; raises RuntimeError if the
    quadrature's error estimate exceeds 1e-7.
    """
    _require_hurst(h)
    theta = float(theta)
    if not theta > 0.0:
        raise ValueError(f"correction_integral requires theta > 0, got {theta}")
    if h.h <= 0.5:
        raise ValueError("correction_integral requires H > 1/2")
    big_t = float(big_t)
    if big_t < 0.0:
        raise ValueError(f"correction_integral requires T >= 0, got {big_t}")
    if big_t == 0.0:
        return 0.0
    value, _, _ = _correction_info(theta, h.h, big_t)
    return float(value)


# ---------------------------------------------------------------------------
# kernel equation
# ---------------------------------------------------------------------------


def _edge_shape_matrix(exponent: float, hstep: float, order: int) -> np.ndarray:
    """Coefficients of the Lagrange shape functions on the layer nodes.

    Nodes sit at u_j = (j hstep)^exponent, j = 0..order; column j of the
    returned matrix holds the monomial coefficients (in powers of u) of the
    shape function that is 1 at node j and 0 at the others.
    """
    u = (np.arange(order + 1) * hstep) ** exponent
    return np.linalg.inv(np.vander(u, increasing=True))


def _edge_moments(rho: float, m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Moments of kappa-hat over the two edge elements, X = order/m.

    left[k, i] = int_0^X r^(k rho) kappa-hat(r, sigma_i) dr and
    right[k, i] = int_0^X w^(k rho) kappa-hat(1 - w, sigma_i) dw, where
    kappa-hat is the unit kernel WITHOUT the alpha prefactor,
    |r - sigma|^(rho-1) - (r + sigma)^(rho-1), and w = 1 - r maps the last
    ``order`` panels onto [0, X]. Both same-side parts are
    int_0^X w^(k rho) |c_i - w|^(rho-1) dw, with c_i = sigma_i on the left
    and c_i = 1 - sigma_i on the right: an incomplete beta function when
    c_i >= X, split at w = c_i when 0 < c_i < X (the tail in the Euler
    hypergeometric form), an elementary power at c_i = 0 (the final node).
    The cross part is a Gauss hypergeometric on the left and, as
    1 + sigma_i > X, an incomplete beta on the right.
    """
    hstep = 1.0 / m
    big_x = order * hstep
    idx = np.arange(1, m + 1)
    sig = idx * hstep
    xq = big_x / sig
    c_cross = 1.0 + sig
    left = np.empty((order + 1, m))
    right = np.empty((order + 1, m))
    for k in range(order + 1):
        ap = k * rho + 1.0
        b_full = _sp.beta(ap, rho)
        pw = (k + 1.0) * rho

        def same_side(c: np.ndarray, steps: np.ndarray) -> np.ndarray:
            # steps = m c, the panels between the node and w = 0
            out = np.empty(m)
            far = steps >= order
            ratio = np.minimum(big_x / c[far], 1.0)
            out[far] = c[far] ** pw * b_full * _sp.betainc(ap, rho, ratio)
            inside = (steps > 0) & ~far
            v = (big_x - c[inside]) / c[inside]
            tail = v**rho / rho * _sp.hyp2f1(-k * rho, rho, rho + 1.0, -v)
            out[inside] = c[inside] ** pw * (b_full + tail)
            out[steps == 0] = big_x ** (k * rho + rho) / (k * rho + rho)
            return out

        cross = sig**pw * xq**ap / ap * _sp.hyp2f1(1.0 - rho, ap, ap + 1.0, -xq)
        left[k] = same_side(sig, idx) - cross
        cross = c_cross**pw * b_full * _sp.betainc(ap, rho, big_x / c_cross)
        right[k] = same_side(1.0 - sig, m - idx) - cross
    return left, right


def _hat_panel_moments(
    a: np.ndarray, b: np.ndarray, sig: np.ndarray, rho: float, alpha: float, width
) -> tuple[np.ndarray, np.ndarray]:
    """Exact unit-kernel moments of the linear hats on panels [a_q, b_q].

    m0[i, q] = int_panel_q alpha kappa-hat(r, sig_i) dr
    u1[i, q] = int_panel_q ((r - a_q)/width_q) alpha kappa-hat(r, sig_i) dr

    The left node of panel q gets weight m0 - u1, the right node u1.
    ``width`` is the panel width as the caller's mesh defines it (the
    scalar step of a uniform mesh, else b - a).
    """
    a = a[None, :]
    b = b[None, :]
    col = sig[:, None]

    def f_same(x):
        # antiderivative of |x|^(rho-1)
        return np.sign(x) * np.abs(x) ** rho / rho

    def g_same(x):
        # antiderivative of x |x|^(rho-1)
        return np.abs(x) ** (rho + 1.0) / (rho + 1.0)

    d_f = f_same(b - col) - f_same(a - col)
    d_g = g_same(b - col) - g_same(a - col)
    cross_0 = ((b + col) ** rho - (a + col) ** rho) / rho
    cross_1 = ((b + col) ** (rho + 1.0) - (a + col) ** (rho + 1.0)) / (
        rho + 1.0
    ) - (a + col) * cross_0

    m0 = alpha * (d_f - cross_0)
    u1 = alpha * (d_g + (col - a) * d_f - cross_1) / width
    return m0, u1


def _unit_kernel_system(hh: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nystrom weight matrix W and anchor vector e on the unit mesh j/m.

    For any right endpoint t, the nodal values G_j ~ g(t*sigma_j, t) at
    sigma_j = j/m (j = 1..m) solve (I + c W) G = 1 - c e with c = t^(2H-1).
    The anchor vector carries the known boundary value g(0, t) = 1 through
    the left edge element. Interior panels are linear hats with elementary
    exact moments; the two edge elements are quadratic in the layer
    coordinate with beta/hypergeometric exact moments.
    """
    rho = 2.0 * hh - 1.0
    alpha = hh * rho
    order = _EDGE_ORDER
    hstep = 1.0 / m
    sig = np.arange(1, m + 1) * hstep
    a = np.arange(0, m) * hstep  # panel q = [a_q, a_q + hstep]
    m0, u1 = _hat_panel_moments(a, a + hstep, sig, rho, alpha, hstep)

    shape = _edge_shape_matrix(rho, hstep, order)  # (order+1, order+1)
    left, right = _edge_moments(rho, m, order)  # each (order+1, m)
    left_contrib = (alpha * left).T @ shape  # (m, order+1), column j <-> node sigma = j/m
    right_contrib = (alpha * right).T @ shape  # column j <-> node sigma = 1 - j/m

    weights = np.zeros((m, m))
    anchor = left_contrib[:, 0].copy()  # known node g(0, t) = 1
    for j in range(1, order + 1):
        weights[:, j - 1] += left_contrib[:, j]
    for j in range(order + 1):
        weights[:, m - 1 - j] += right_contrib[:, j]
    # interior hats: u1 to each panel's right node, then m0 - u1 to its left
    inner = slice(order, m - order)
    weights[:, inner] += u1[:, inner]
    weights[:, order - 1 : m - order - 1] += m0[:, inner] - u1[:, inner]
    return weights, anchor


def _batch_scaled_solve(
    weights: np.ndarray, anchor: np.ndarray, cs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve (I + c W) G = 1 - c e for each scale c; (solutions, max residual).

    Only c changes between the systems, so W is factored once as
    W = V diag(lam) V^-1 and every shift becomes a diagonal scaling,
    (I + c W)^-1 r = Re[V diag(1 / (1 + c lam)) V^-1 r]: O(m^3) for the
    factorization, then O(m^2) per shift. W is real, so its eigenpairs come
    in conjugate pairs and the imaginary parts cancel up to rounding. One
    step of iterative refinement with the same factorization removes the
    error the eigenbasis adds (without it, mle estimates move by a few
    1e-12 relative against a dense LU per shift). The residual is
    recomputed from the returned solutions against the original systems,
    so an ill-conditioned eigenbasis shows up there.
    """
    cs = np.asarray(cs, dtype=float)
    lam, vecs = np.linalg.eig(weights)
    inv_vecs = np.linalg.inv(vecs)
    scale = 1.0 / (1.0 + cs[:, None] * lam)
    rhs = 1.0 - cs[:, None] * anchor

    def shifted_solve(r: np.ndarray) -> np.ndarray:
        return (((r @ inv_vecs.T) * scale) @ vecs.T).real

    def gap(g: np.ndarray) -> np.ndarray:
        return rhs - g - cs[:, None] * (g @ weights.T)

    sols = shifted_solve(rhs)
    sols = sols + shifted_solve(gap(sols))
    residual = float(np.abs(gap(sols)).max())
    return sols, residual


def _graded_unit_system(hh: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Hat-basis Nystrom system on a mesh graded toward both endpoints.

    Node j sits at x^q / (x^q + (1-x)^q) with x = j/n and grading exponent
    q = 2/rho (capped), the classical grading that restores second-order
    convergence of piecewise-linear product integration in the presence of
    s^rho endpoint layers. Unknowns are the nodal values at j = 1..n; the
    known value G = 1 at node 0 feeds the anchor vector. Only the value at
    sigma = 1 is read off (diagonal solves), so no interpolant is built.
    """
    rho = 2.0 * hh - 1.0
    alpha = hh * rho
    # the end gap is n^(-q); keep it well above float spacing around 1.0
    qexp = min(2.0 / rho, -math.log(1e-13) / math.log(n))
    x = np.arange(n + 1) / n
    xa = x**qexp
    xb = (1.0 - x) ** qexp
    nodes = xa / (xa + xb)
    if np.any(np.diff(nodes) <= 0.0):
        raise RuntimeError(f"graded mesh collapsed at n={n} (grading {qexp:.2f})")
    a, b = nodes[:-1], nodes[1:]
    # collocation at the unknown nodes, which are the panels' right ends
    m0, u1 = _hat_panel_moments(a, b, b, rho, alpha, b - a)

    left = m0 - u1
    weights_mat = u1  # right node of panel q is unknown column q
    weights_mat[:, : n - 1] += left[:, 1:]  # left nodes of panels 1..n-1
    anchor = left[:, 0].copy()  # left node of panel 0 has known value 1
    return weights_mat, anchor


@dataclass(frozen=True, eq=False)
class _UnitInterpolant:
    """Piecewise coefficients of unit-mesh kernel solutions, one row each.

    Row r of an m-node solution G (nodes sigma_j = j/m, j = 1..m, and the
    known G(0) = 1) is interpolated, with u = sigma^exponent, as

    * left layer, sigma <= order/m: sum_p left[r, p] u^p, the Nystrom edge
      element (quadratic in u through G(0) and the first ``order`` nodes);
    * interior panel q, nodes[q] <= sigma <= nodes[q + 1]:
      1 - u (offset[r, q] + slope[r, q] sigma), i.e. the slowly varying
      layer factor w = (1 - G)/sigma^rho interpolated linearly, so the
      left boundary layer stays resolved between nodes;
    * right layer, sigma >= 1 - order/m: sum_p right[r, p] v^p with
      v = (1 - sigma)^exponent, the Nystrom edge element at sigma = 1.

    Where the two edge regions overlap (m <= 2 * order), the right one wins.
    Below ``_MIN_LAYER_RHO`` the exponent is 1 (plain polynomials).
    """

    exponent: float
    nodes: np.ndarray
    left: np.ndarray
    offset: np.ndarray
    slope: np.ndarray
    right: np.ndarray

    def at(self, rows, sigma) -> np.ndarray:
        """Value of row rows[i] at sigma[i] in [0, 1], elementwise (rows broadcasts)."""
        sig = np.asarray(sigma, dtype=float)
        rows = np.broadcast_to(rows, sig.shape)
        out = np.empty(sig.shape)
        edge = _EDGE_ORDER / self.nodes.size  # width of each edge layer
        right = sig >= 1.0 - edge
        left = (sig <= edge) & ~right
        mid = ~(left | right)
        out[left] = _power_series(self.left[rows[left]], sig[left] ** self.exponent)
        out[right] = _power_series(
            self.right[rows[right]], (1.0 - sig[right]) ** self.exponent
        )
        s_mid = sig[mid]
        q = np.clip(np.searchsorted(self.nodes, s_mid, side="right") - 1, 0, self.nodes.size - 2)
        r_mid = rows[mid]
        out[mid] = 1.0 - s_mid**self.exponent * (
            self.offset[r_mid, q] + self.slope[r_mid, q] * s_mid
        )
        return out

    def grid_sums(
        self, t: np.ndarray, grids: list[tuple[np.ndarray, list[np.ndarray]]]
    ) -> list[_GridSums]:
        """Operators a -> [sums over i < n[k] of g_k(s_i / t_k) a_i, for n in ns].

        One operator per (s, ns) in grids; g_k is row k, s a uniform grid
        from s_0 >= 0 with s_i <= t_k for i < n[k]. With sigma = s/t_k and
        e the exponent, the left layer (sum_p c_p sigma^(p e)) and each
        interior panel (1 - sigma^e (A_q + B_q sigma)) are separable, so
        their sums are t_k^(-p e) and t_k^(-e-1) times the prefix sums
        cumsum(a s^(p e)) and cumsum(a s^(e+1)), read where the panel
        boundaries cut s. Summed by parts, each boundary carries the jump
        of A_q or B_q across it. Only the right layer, where (1 - sigma)^e
        does not separate, is evaluated point by point. Everything but the
        prefix sums of a depends on (t, s, n) alone and is built here, once:
        the cuts, the jumps, the powers of t and s and the right layer's
        kernel values. The operators share the arrays that depend on t only.
        """
        e = self.exponent
        # the interior panels q, from sigma = order/m to 1 - order/m
        inner = slice(_EDGE_ORDER - 1, self.nodes.size - _EDGE_ORDER - 1)
        bounds = self.nodes[inner.start : inner.stop + 1]
        blocks = _row_blocks(t.size)
        grid_parts = []
        for s, ns in grids:
            u = s**e
            factors = tuple(u**p for p in range(self.left.shape[1])) + (u * s,)
            cuts = [np.empty((t.size, bounds.size), dtype=np.int32) for _ in ns]
            for block in blocks:
                # samples below each boundary; a sample within rounding of a
                # boundary may fall on either side, where the interpolant is continuous
                below = np.ceil((np.outer(t[block], bounds) - s[0]) / (s[1] - s[0]))
                below = np.clip(below, 0, s.size)
                for cut, n in zip(cuts, ns):
                    cut[block] = np.minimum(below, n[block, None])
            terms = tuple(self._right_layer(t, s, n, cut) for cut, n in zip(cuts, ns))
            grid_parts.append((factors, terms))
        jump_u, jump_us = (np.empty((t.size, bounds.size)) for _ in range(2))
        for block in blocks:
            jump_u[block] = -np.diff(self.offset[block, inner], axis=1, prepend=0.0, append=0.0)
            jump_us[block] = -np.diff(self.slope[block, inner], axis=1, prepend=0.0, append=0.0)
        t_e = t**-e
        lead = tuple(self.left[:, p] * t_e**p for p in range(self.left.shape[1]))
        return [
            _GridSums(factors, lead, t_e, t_e / t, jump_u, jump_us, terms)
            for factors, terms in grid_parts
        ]

    def _right_layer(
        self, t: np.ndarray, s: np.ndarray, n: np.ndarray, cut: np.ndarray
    ) -> _CutTerm:
        """The right-layer samples cut[k, -1] .. n[k] - 1 of each row k and g_k there."""
        length = np.maximum(n - cut[:, -1], 0)
        local = np.repeat(np.arange(t.size, dtype=np.int32), length)
        end = np.cumsum(length)  # where row k's samples end in pos
        shift = np.repeat(cut[:, -1] - (end - length), length)
        pos = (np.arange(local.size) + shift).astype(np.int32)
        g = np.empty(local.size)
        for block in _row_blocks(t.size):
            seg = slice(end[block][0] - length[block][0], end[block][-1])
            g[seg] = self.at(local[seg], s[pos[seg]] / t[local[seg]])
        return _CutTerm(cut, local, pos, g)


@dataclass(frozen=True, eq=False)
class _CutTerm:
    """The grid-only part of one upper limit n of a ``_GridSums``.

    cut[k, r]: samples of s below boundary r of row k, capped at n[k];
    the right layer's samples pos, their rows local and g_local(s_pos/t).
    The index arrays are int32, half the memory of numpy's default.
    """

    cut: np.ndarray
    local: np.ndarray
    pos: np.ndarray
    g: np.ndarray


@dataclass(frozen=True, eq=False)
class _GridSums:
    """Sums of every interpolant row against data on one grid; see ``grid_sums``.

    lead[p] = left[:, p] t^(-p e), t_e = t^(-e), t_e1 = t^(-e-1) and the
    jumps of the interior coefficients across each panel boundary; factors
    are s^(p e) and s^(e+1). All arrays are read-only once built.
    """

    factors: tuple[np.ndarray, ...]
    lead: tuple[np.ndarray, ...]
    t_e: np.ndarray
    t_e1: np.ndarray
    jump_u: np.ndarray
    jump_us: np.ndarray
    terms: tuple[_CutTerm, ...]

    def __post_init__(self) -> None:
        for arr in (*self.factors, *self.lead, self.t_e, self.t_e1, self.jump_u, self.jump_us):
            arr.setflags(write=False)
        for term in self.terms:
            for arr in (term.cut, term.local, term.pos, term.g):
                arr.setflags(write=False)

    def __call__(self, a: np.ndarray) -> list[np.ndarray]:
        """[sum over i < n[k] of g_k(s_i / t_k) a_i, for each n]: O(N + rows * panels)."""
        *powers, tail = (np.concatenate(([0.0], np.cumsum(a * f))) for f in self.factors)
        sums = []
        for term in self.terms:
            first, last = term.cut[:, 0], term.cut[:, -1]
            val = sum(c * pw[first] for c, pw in zip(self.lead, powers))
            val += powers[0][last] - powers[0][first]
            dots = np.empty((2, val.size))
            for block in _row_blocks(val.size):
                # numpy gathers by intp indices faster than by the stored int32
                cut = term.cut[block].astype(np.intp)
                dots[0, block] = np.einsum("kr,kr->k", powers[1][cut], self.jump_u[block])
                dots[1, block] = np.einsum("kr,kr->k", tail[cut], self.jump_us[block])
            val -= self.t_e * dots[0]
            val -= self.t_e1 * dots[1]
            pos = term.pos.astype(np.intp)
            sums.append(val + np.bincount(term.local, weights=term.g * a[pos], minlength=val.size))
        return sums


def _row_blocks(rows: int) -> list[slice]:
    """Consecutive slices of at most ``_ROW_BLOCK`` rows covering range(rows)."""
    return [slice(start, start + _ROW_BLOCK) for start in range(0, rows, _ROW_BLOCK)]


def _power_series(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_p coef[..., p] u^p."""
    return sum(coef[..., p] * u**p for p in range(coef.shape[-1]))


def _unit_interpolant(sols: np.ndarray, rho: float) -> _UnitInterpolant:
    """Interpolant coefficients of the solutions sols[r] (shape (rows, m))."""
    sols = np.atleast_2d(np.asarray(sols, dtype=float))
    m = sols.shape[-1]
    hstep = 1.0 / m
    order = _EDGE_ORDER
    nodes = np.arange(1, m + 1) * hstep
    exponent = rho if rho >= _MIN_LAYER_RHO else 1.0
    shape = _edge_shape_matrix(exponent, hstep, order)
    ones = np.ones((sols.shape[0], 1))
    left = np.concatenate((ones, sols[:, :order]), axis=1) @ shape.T
    right = sols[:, -1 : -order - 2 : -1] @ shape.T
    w = (1.0 - sols) / nodes**exponent
    slope = np.diff(w, axis=1) / np.diff(nodes)
    offset = w[:, :-1] - slope * nodes[:-1]
    return _UnitInterpolant(exponent, nodes, left, offset, slope, right)


def _fit_power_quadratics(x: np.ndarray, y: np.ndarray, exponent: float) -> np.ndarray:
    """Quadratic-in-u fits (u = s^exponent) through consecutive node triples.

    x, y must hold an odd number 2n+1 of nodes; returns (n, 3) coefficient
    rows [c0, c1, c2] with y ~ c0 + c1 u + c2 u^2 on each pair of panels.
    """
    u = x**exponent
    basis = np.stack([np.ones_like(u), u, u * u], axis=-1)
    vand = np.stack([basis[0:-2:2], basis[1:-1:2], basis[2::2]], axis=1)
    ys = np.stack([y[0:-2:2], y[1:-1:2], y[2::2]], axis=1)
    return np.linalg.solve(vand, ys[:, :, None])[:, :, 0]


def _power_poly_integral(
    coef: np.ndarray, s_lo, s_hi, exponent: float, squared: bool
):
    """Integrate (c0 + c1 u + c2 u^2) or its square over [s_lo, s_hi], u = s^exponent."""
    if squared:
        terms = (
            coef[..., 0] ** 2,
            2.0 * coef[..., 0] * coef[..., 1],
            coef[..., 1] ** 2 + 2.0 * coef[..., 0] * coef[..., 2],
            2.0 * coef[..., 1] * coef[..., 2],
            coef[..., 2] ** 2,
        )
    else:
        terms = (coef[..., 0], coef[..., 1], coef[..., 2])
    total = 0.0
    for k, ck in enumerate(terms):
        pw = k * exponent + 1.0
        total = total + ck * (s_hi**pw - s_lo**pw) / pw
    return total


def _power_pair_integrals(
    x: np.ndarray, y: np.ndarray, exponent: float, squared: bool
) -> tuple[np.ndarray, np.ndarray, float]:
    """Integrals of the panel fits to y at nodes x, in u = x^exponent.

    Consecutive panel pairs carry quadratic fits in u through their three
    nodes; an odd trailing panel carries the two-point power pair
    c0 + c1 u. Returns the integrals of each fit (or of its square) over
    the first panel of every pair, over every whole pair, and over the
    trailing panel (0.0 when the panel count is even).
    """
    n_pair = (x.size - 1) // 2
    stop = 2 * n_pair + 1
    first = whole = np.empty(0)
    if n_pair:
        coef = _fit_power_quadratics(x[:stop], y[:stop], exponent)
        lo, mid, hi = x[0 : stop - 1 : 2], x[1 : stop - 1 : 2], x[2:stop:2]
        first = _power_poly_integral(coef, lo, mid, exponent, squared)
        whole = _power_poly_integral(coef, lo, hi, exponent, squared)
    trailing = 0.0
    if x.size > stop:
        u0 = x[-2] ** exponent
        u1 = x[-1] ** exponent
        cb = (y[-1] - y[-2]) / (u1 - u0)
        ca = y[-2] - cb * u0
        coef = np.array([ca, cb, 0.0])
        trailing = float(_power_poly_integral(coef, x[-2], x[-1], exponent, squared))
    return first, whole, trailing


def _layer_cumulative_square_integral(
    nodes: np.ndarray, values: np.ndarray, rho: float
) -> np.ndarray:
    """Cumulative int_0^{s_j} y(u)^2 du for y given at nodes, y(0) = 1.

    The power-pair fits of ``_power_pair_integrals`` in u = s^rho (the
    boundary-layer coordinate near 0; plain quadratics when rho is
    negligible), squared and integrated in closed form.
    """
    x = np.concatenate(([0.0], nodes))
    y = np.concatenate(([1.0], values))
    exponent = rho if rho >= _MIN_LAYER_RHO else 1.0
    first, whole, trailing = _power_pair_integrals(x, y, exponent, squared=True)
    base = np.concatenate(([0.0], np.cumsum(whole)))
    out = np.empty(nodes.size)
    out[0 : 2 * whole.size : 2] = base[:-1] + first
    out[1 : 2 * whole.size : 2] = base[1:]
    if nodes.size % 2 == 1:
        out[-1] = base[-1] + trailing
    return out


def _solve_kernel(
    hh: float, unit: int, ends: np.ndarray, mesh: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Kernel solutions on unit meshes of ``unit`` nodes, uncached.

    Returns (rows, diagonal, bracket, residual): rows[k] holds g(t sigma_j,
    t) at t = ends[k] from the uniform system; diagonal[j] = g(s_j, s_j)
    and bracket[j] = <M>_{s_j} at s_j = mesh[j] (increasing, positive)
    from the graded system; residual is the larger of the two systems'.
    Raises RuntimeError when the residual exceeds 1e-6.
    """
    rho = 2.0 * hh - 1.0
    weights, anchor = _unit_kernel_system(hh, unit)
    rows, res_uniform = _batch_scaled_solve(weights, anchor, ends**rho)
    weights, anchor = _graded_unit_system(hh, unit)
    sols, res_graded = _batch_scaled_solve(weights, anchor, mesh**rho)
    residual = max(res_uniform, res_graded)
    if residual > 1e-6:
        raise RuntimeError(f"Nystrom linear-system residual {residual:.3e} > 1e-6")
    diagonal = sols[:, -1]
    bracket = _layer_cumulative_square_integral(mesh, diagonal, rho)
    return rows, diagonal, bracket, residual


def _mesh_kernel(hh: float, unit: int, t: np.ndarray) -> tuple[_UnitInterpolant, np.ndarray]:
    """Interpolant of g(., t_k) and <M> at (0,) + t, on unit meshes of ``unit`` nodes.

    Row k of the interpolant is g(., t_k) for t_k = t[k] (increasing,
    positive). Uncached, like the unit systems it assembles and solves:
    ``mle._grid_plan`` keeps what a grid needs of the result.
    Raises RuntimeError as ``_solve_kernel`` does.
    """
    rows, _, bracket, _ = _solve_kernel(hh, unit, t, t)
    return _unit_interpolant(rows, 2.0 * hh - 1.0), np.concatenate(([0.0], bracket))


@dataclass(frozen=True, eq=False)
class KernelSolution:
    """Discretized g(., t) plus derived quantities on the mesh s_j = j t/m.

    residual is the sup-norm residual of the dense Nystrom linear systems
    (solver tolerance); discretization error is probed separately through
    mesh refinement and the integral identity below.
    """

    t: float
    h: HurstParam
    mesh: np.ndarray
    g_values: np.ndarray
    g_diag: np.ndarray
    bracket_M: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        for name in ("mesh", "g_values", "g_diag", "bracket_M"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        m = self.mesh.size
        if m < 1:
            raise ValueError("mesh must be nonempty")
        if any(getattr(self, n).size != m for n in ("g_values", "g_diag", "bracket_M")):
            raise ValueError("mesh, g_values, g_diag, bracket_M must share a length")
        if self.mesh[0] <= 0.0 or np.any(np.diff(self.mesh) <= 0.0):
            raise ValueError("mesh must be strictly increasing within (0, t]")
        if abs(self.mesh[-1] - self.t) > 1e-12 * max(1.0, abs(self.t)):
            raise ValueError("mesh must end at the right endpoint t")
        if self.bracket_M[0] < 0.0 or np.any(np.diff(self.bracket_M) < 0.0):
            raise ValueError("bracket_M must be nonnegative and nondecreasing")

    def integral_g(self) -> float:
        """int_0^t g(s, t) ds with the edge-layer panel fits.

        Quadratic fits in s^rho over panel pairs (anchored at the exact
        value g(0, t) = 1), a quadratic fit in (t - s)^rho over the final
        panel pair; equals bracket_M[-1] in exact arithmetic (integral
        identity of the fundamental martingale).
        """
        rho = 2.0 * self.h.h - 1.0
        exponent = rho if rho >= _MIN_LAYER_RHO else 1.0
        x = np.concatenate(([0.0], self.mesh))
        y = np.concatenate(([1.0], self.g_values))
        m = self.mesh.size

        # panels 0 .. m-3 by the power-pair fits in s^rho
        _, whole, trailing = _power_pair_integrals(x[: m - 1], y[: m - 1], exponent, squared=False)
        total = float(np.sum(whole)) + trailing

        # final two panels: the quadratic fit in (t - s)^rho through the last
        # three nodes, taken on the reversed nodes t - s = [0, h_t, 2 h_t]
        _, whole, _ = _power_pair_integrals(
            self.t - x[m - 2 :][::-1], y[m - 2 :][::-1], exponent, squared=False
        )
        return total + float(whole[0])


def solve_g_kernel(t: float, h: HurstParam, m: int = 256) -> KernelSolution:
    """Solve the kernel equation on (0, t] with an m-point uniform mesh.

    Returns nodal g(s_j, t), the diagonal g(s_j, s_j) (each diagonal value
    from its own fully resolved solve at right endpoint s_j), and the
    bracket <M> accumulated from the squared diagonal. H = 1/2 short-
    circuits to the exact g = 1, <M>_t = t. The m diagonal solves share one
    eigendecomposition of the graded m x m system, O(m^3), after which each
    costs O(m^2); m is capped at 4096. Raises RuntimeError when a linear-
    system residual exceeds 1e-6.
    """
    _require_hurst(h)
    t = float(t)
    if not t > 0.0:
        raise ValueError(f"solve_g_kernel requires t > 0, got {t}")
    if not 8 <= m <= _MAX_MESH:
        raise ValueError(f"mesh size must lie in [8, {_MAX_MESH}], got {m}")
    mesh = np.arange(1, m + 1) * (t / m)
    mesh[-1] = t
    if h.h == 0.5:
        ones = np.ones(m)
        return KernelSolution(
            t=t,
            h=h,
            mesh=mesh,
            g_values=ones,
            g_diag=ones.copy(),
            bracket_M=mesh.copy(),
            residual=0.0,
        )
    if h.h < 0.5:
        raise ValueError("solve_g_kernel requires H >= 1/2")
    rows, g_diag, bracket, residual = _solve_kernel(h.h, m, mesh[-1:], mesh)
    return KernelSolution(
        t=t,
        h=h,
        mesh=mesh,
        g_values=rows[-1],
        g_diag=g_diag,
        bracket_M=bracket,
        residual=residual,
    )
