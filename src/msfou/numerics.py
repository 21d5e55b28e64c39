"""Numerical kernels shared across the library.

Four tools live here:

* ``gamma_fn``: validated gamma function (``math.gamma``).
* ``correction_integral``: the weakly singular double integral entering the
  Skorohod-corrected least-squares estimator, reduced by Fubini to three
  one-dimensional integrals, all in closed form: two lower incomplete
  gamma functions (a series, DLMF 8.7.1, or Legendre's continued fraction,
  DLMF 8.9.2) and two Kummer functions (a series after Kummer's
  transformation, DLMF 13.2.39, or the asymptotic series, DLMF 13.7.2),
  each summed with ``math`` to near full double precision.
* ``stationary_second_moment`` / ``invert_p``: the monotone moment map
  ``p(theta) = 1/(2 theta) + H Gamma(2H) theta^(-2H)`` and its inverse
  (Newton's method from a closed-form lower bound).
* ``solve_g_kernel``: Nystrom solution of the second-kind integral equation
  ``g(s,t) + int_0^t g(r,t) kappa(r,s) dr = 1`` with the kernel
  ``kappa(r,s) = H(2H-1)(|r-s|^(2H-2) - (r+s)^(2H-2))``, whose solution
  defines the fundamental martingale, together with the diagonal
  ``g(s,s)`` and the bracket ``<M>_t = int_0^t g(s,s)^2 ds``.

This module is the only one that knows how g is discretized. ``mle``
takes from it ``_mesh_kernel``, which gives for an estimation mesh the
interpolant of g(., t_k) at every mesh time and the bracket <M> on the
mesh. The interpolant evaluates g(., t) at any sigma (``at``), as a
sparse matrix over a window of samples of a grid (``window``), and as
operators that sum it against data on a uniform grid, one upper limit
per row (``grid_sums``): everything in those sums that depends on the
grid alone is built with the operator, so applying it to data costs a
few prefix sums and sparse matrix-vector products. Both ``_mesh_kernel``
and ``solve_g_kernel`` take their solves from ``_solve_kernel``, which
caches nothing: each call assembles and factors its systems anew, and
``mle`` caches what a grid's paths repeat.

The kernel ``kappa`` is homogeneous of degree ``2H-2``, so ``g(t*sigma, t)``
as a function of ``sigma`` solves ``(I + t^(2H-1) K) G = 1`` on a fixed unit
mesh. One matrix assembly per ``(H, m)`` therefore serves every right
endpoint ``t``; changing ``t`` only rescales the system by ``c = t^(2H-1)``.
The diagonal values ``g(s_j, s_j)`` come from a batch of such rescaled
solves, one per right endpoint ``s_j``, each fully resolved on its own
scaled mesh. Each system has a node at sigma = 0, whose row reads the
known value g(0, t) = 1, so every system of a batch has the right-hand
side 1. The batch factors no m x m matrix: the Krylov space of
``I + c K`` is that of ``K`` for every ``c``, so one Arnoldi basis of a
few dozen vectors serves every rescaled system (shifted FOM), each of
which then costs a small projected solve and one combination of the
basis, and its residual is checked against the original system.

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
(``_edge_moments``), summed with numpy as Gauss series (DLMF 15.2.1) after
Pfaff's transformation (DLMF 15.8.1) and the incomplete beta function's
hypergeometric form (DLMF 8.17.7) and reflection (DLMF 8.17.4). The
bracket integrates the squared diagonal by quadratic fits in the layer
coordinate, in closed form (``_layer_cumulative_square_integral``).

No scipy special function is used: the only scipy module this one
imports is ``scipy.sparse``, for the grid-sum operators, on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .noise import HurstParam, _count, _finite, _frozen_vectors, _hurst, _in_float_range, _positive

if TYPE_CHECKING:
    from scipy import sparse as _sparse

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


# ---------------------------------------------------------------------------
# gamma function
# ---------------------------------------------------------------------------


@_in_float_range
def gamma_fn(x: float) -> float:
    """Gamma function for x > 0.

    Thin validated wrapper over ``math.gamma`` (relative error at
    machine-precision level, well inside the 1e-12 contract); ValueError
    past the float range (x above about 171.6 or below about 5.6e-309).
    """
    return math.gamma(_positive("x", x))


# ---------------------------------------------------------------------------
# stationary second moment p(theta) and its inverse
# ---------------------------------------------------------------------------


@_in_float_range
def stationary_second_moment(theta: float, h: HurstParam) -> float:
    """p(theta) = 1/(2 theta) + H Gamma(2H) theta^(-2H).

    Large-time limit of the time-averaged squared process for drift
    theta > 0; strictly decreasing in theta when H >= 1/2, which is what
    makes the moment estimator well defined. ValueError past the float range.
    """
    _hurst("stationary_second_moment", h)
    theta = _positive("theta", theta)
    return 0.5 / theta + h.h * gamma_fn(2.0 * h.h) * theta ** (-2.0 * h.h)


# Newton's method inverts p in at most 9 steps on [1e-300, 1e300]; a NaN
# never meets its stopping test, so the cap turns one into an error.
_NEWTON_RTOL = 4.0 * np.finfo(float).eps
_NEWTON_CAP = 64


def _invert_p_impl(y: float, h: HurstParam) -> tuple[float, int]:
    """Invert p; returns (theta, Newton steps) for diagnostics.

    With c = H Gamma(2H), lo = max(1/(2y), (c/y)^(1/2H)) / 2 has p(lo) >= 2y:
    one term of p alone reaches y at twice lo. p is convex and decreasing,
    so Newton's method from lo climbs monotonically to the root. Each step
    is written theta (p - y) / (1/(2 theta) + 2H c theta^(-2H)), which is
    -(p - y)/p' without the squares of theta that would overflow; the
    iteration stops after a step of at most 4 eps theta, and raises
    RuntimeError if it has not stopped after _NEWTON_CAP steps.
    """
    hh = h.h
    if not 1e-300 <= y <= 1e300:
        # keeps lo and every Newton step finite in floating point
        raise ValueError(f"moment y={y} outside [1e-300, 1e300], where p is inverted")
    if hh == 0.5:
        # p(theta) = 1/theta exactly at H = 1/2
        return 1.0 / y, 0

    c = hh * gamma_fn(2.0 * hh)
    theta = 0.5 * max(0.5 / y, (c / y) ** (0.5 / hh))
    for steps in range(1, _NEWTON_CAP + 1):
        half = 0.5 / theta
        power = c * theta ** (-2.0 * hh)
        step = theta * (half + power - y) / (half + 2.0 * hh * power)
        theta += step
        if step <= _NEWTON_RTOL * theta:
            return theta, steps
    raise RuntimeError(f"Newton's method did not invert p at y={y}, H={hh}")


def invert_p(y: float, h: HurstParam) -> float:
    """Unique theta > 0 with p(theta) = y, to |p(theta) - y| <= 1e-10 max(1, y).

    Requires H >= 1/2 (p is strictly decreasing there) and a finite y > 0
    ("y must be finite, got inf", "y must be positive, got 0.0") in
    [1e-300, 1e300].
    """
    _hurst("invert_p", h, "H >= 1/2")
    y = _positive("y", y)
    theta, _ = _invert_p_impl(y, h)
    return float(theta)


# ---------------------------------------------------------------------------
# correction integral (weakly singular double integral)
# ---------------------------------------------------------------------------


_EPS = float(np.finfo(float).eps)

# From here on the asymptotic series of M(1, b, -x) is summed instead of its
# power series: its error, e^(-x) relative, is then below 1e-17.
_KUMMER_ASYMPTOTIC_X = 40.0


def _lower_gamma(s: float, x: float) -> float:
    """Lower incomplete gamma function gamma(s, x) = int_0^x v^(s-1) e^(-v) dv, s, x > 0.

    For x <= s + 1, the series x^s e^(-x) sum_n x^n / (s (s+1) ... (s+n))
    (DLMF 8.7.1), whose terms fall by x/(s+n+1) each. Above, Gamma(s) less
    Gamma(s, x) from Legendre's continued fraction (DLMF 8.9.2), summed by
    the modified Lentz method; it converges in fewer steps the larger x is,
    about 90 at x = s + 1. Both keep full double precision.
    """
    if x <= s + 1.0:
        term = total = 1.0 / s
        n = 0
        while term > _EPS * total:
            n += 1
            term *= x / (s + n)
            total += term
        return x**s * math.exp(-x) * total
    b = x + 1.0 - s
    d = 1.0 / b
    c = math.inf  # so that the first c is b
    fraction = d
    n = 0
    while True:
        n += 1
        an = -n * (n - s)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        fraction *= c * d
        if abs(c * d - 1.0) <= _EPS:
            # e^(-x) x^s, written so that a large x underflows instead of overflowing
            return math.gamma(s) - math.exp(s * math.log(x) - x) * fraction


def _kummer_negative(b: float, x: float) -> float:
    """Kummer function M(1, b, -x) for x >= 0, 2 <= b <= 3.

    Below ``_KUMMER_ASYMPTOTIC_X``, Kummer's transformation (DLMF 13.2.39)
    gives the positive series e^(-x) sum_n (b-1)/(b-1+n) x^n/n!. From
    there on, the asymptotic series (b-1)/x sum_k (2-b)_k x^(-k) (DLMF
    13.7.2), whose terms fall at least 40-fold at first and reach the
    float spacing long before they would grow again, so the cost does not
    grow with x.
    """
    term = total = 1.0
    n = 0
    if x < _KUMMER_ASYMPTOTIC_X:
        while term > _EPS * total:
            n += 1
            term *= x / n * (b - 2.0 + n) / (b - 1.0 + n)
            total += term
        return math.exp(-x) * total
    while abs(term) > _EPS * total:
        term *= (2.0 - b + n) / x
        n += 1
        total += term
    return (b - 1.0) / x * total


@functools.lru_cache(maxsize=64, typed=True)
@_in_float_range
def correction_integral(theta: float, h: HurstParam, big_t: float) -> float:
    """int_0^T int_0^t e^(-theta(t-s)) ((t-s)^(2H-2) + (t+s)^(2H-2)) ds dt.

    Requires H > 1/2 so the (t-s)^(2H-2) singularity is integrable, a
    finite theta > 0 ("theta must be positive, got 0.0") and a finite
    T >= 0 ("T must be finite, got inf"); T = 0 gives 0, and theta = 1e-300
    or T = 1e300, past the float range, ValueError, as does a theta T past
    it. Results are cached per (theta, h, T), so an unhashable argument
    raises TypeError from the cache before it is checked.

    Fubini in the (t-s, t+s) variables collapses the double integral to

        I = int_0^T (T-u) e^(-theta u) u^(2H-2) du
          + (1/(2 rho)) * [ int_0^T (2T-u)^rho e^(-theta u) du
                            - int_0^T u^rho e^(-theta u) du ],  rho = 2H-1.

    With the lower incomplete gamma function
    gamma(s, x) = int_0^x v^(s-1) e^(-v) dv, the first part is
    T theta^(-rho) gamma(rho, theta T) - theta^(-rho-1) gamma(rho+1, theta T)
    and the last theta^(-rho-1) gamma(rho+1, theta T). The middle part is
    e^(-2 theta T) int_T^2T v^rho e^(theta v) dv; since
    int_0^a v^rho e^(theta v) dv = a^(rho+1) e^(theta a) M(1, rho+2, -theta a)
    / (rho+1) (DLMF 8.5.1 with Kummer's transformation, DLMF 13.2.39), it is

        ((2T)^(rho+1) M(1, rho+2, -2 theta T)
         - e^(-theta T) T^(rho+1) M(1, rho+2, -theta T)) / (rho+1),

    M the Kummer function. The two terms are e^(-2 theta T) times the
    integral of an increasing function over [0, 2T] and [0, T], so the
    first is at least twice the second and their difference loses at most
    one bit. The four function values come from ``_lower_gamma`` and
    ``_kummer_negative`` to near full double precision, which the division
    by 2 rho needs as H nears 1/2 (2500-fold at H = 0.5001), and at a cost
    that does not grow with theta T.
    """
    _hurst("correction_integral", h, "H > 1/2")
    theta = _positive("theta", theta)
    big_t = _finite("T", big_t)
    if big_t < 0.0:
        raise ValueError(f"correction_integral requires T >= 0, got {big_t}")
    if big_t == 0.0:
        return 0.0
    rho = 2.0 * h.h - 1.0
    x = theta * big_t
    if math.isinf(x):
        raise OverflowError  # refused by name through _in_float_range
    part_d = theta ** (-rho - 1.0) * _lower_gamma(rho + 1.0, x)
    part_a = big_t * theta ** (-rho) * _lower_gamma(rho, x) - part_d
    part_c = (
        (2.0 * big_t) ** (rho + 1.0) * _kummer_negative(rho + 2.0, 2.0 * x)
        - math.exp(-x) * big_t ** (rho + 1.0) * _kummer_negative(rho + 2.0, x)
    ) / (rho + 1.0)
    return part_a + (part_c - part_d) / (2.0 * rho)


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


# Terms of a Gauss series summed between two convergence checks.
_GAUSS_CHECK_EVERY = 8


def _gauss_2f1(a, b, c, z: np.ndarray) -> np.ndarray:
    """Gauss hypergeometric function 2F1(a_k, b_k; c_k; z_i), shape (rows k, z.size).

    a, b and c broadcast to one parameter per row, and 0 <= z_i <= 2/3.
    Every use here has |(a+n)(b+n) / ((c+n)(n+1))| < 1, so the terms of the
    Gauss series (DLMF 15.2.1) fall by at least a factor z each, and once
    the last is below the float spacing of the sum the rest add less than
    twice that. The series is summed for all entries at once: they are
    sorted by z, and every ``_GAUSS_CHECK_EVERY`` terms those whose last
    term is below the float spacing of their sum in every row are dropped
    from the end, so each entry takes about the terms it needs (90 at
    z = 2/3, 8 at z = 2e-3).
    """
    a, b, c = (np.reshape(v, (-1, 1)) for v in np.broadcast_arrays(a, b, c))
    order = np.argsort(z)[::-1]
    z = z[order]
    total = np.ones((a.size, z.size))
    term = np.ones((a.size, z.size))
    n = np.arange(_GAUSS_CHECK_EVERY, dtype=float)
    live = z.size
    while live:
        ratio = ((a + n) * (b + n) / ((c + n) * (n + 1.0)))[:, :, None] * z[:live]
        block = np.zeros_like(term)
        for j in range(n.size):
            term *= ratio[:, j]
            block += term
        total[:, :live] += block
        open_ = np.flatnonzero(np.any(np.abs(term) > _EPS * np.abs(total[:, :live]), axis=0))
        live = open_[-1] + 1 if open_.size else 0
        term = term[:, :live]
        n += n.size
    out = np.empty_like(total)
    out[:, order] = total
    return out


def _incomplete_beta(a: np.ndarray, b: float, x: np.ndarray, full: np.ndarray) -> np.ndarray:
    """B_x(a_k, b) = int_0^x t^(a_k-1) (1-t)^(b-1) dt, shape (rows k, x.size), 0 <= x <= 1.

    a and full = B(a, b) are columns, one row per a_k. Up to x = 2/3,
    x^a/a 2F1(a, 1-b; a+1; x) (DLMF 8.17.7), a positive series; above, the
    reflection B(a, b) - B_(1-x)(b, a) (DLMF 8.17.4). The reflection would
    lose digits to cancellation at small b already at x = 2/3, where the
    series is still quick.
    """
    out = np.empty((a.size, x.size))
    flip = x > 2.0 / 3.0
    y = x[~flip]
    out[:, ~flip] = y**a / a * _gauss_2f1(a, 1.0 - b, a + 1.0, y)
    y = 1.0 - x[flip]
    out[:, flip] = full - y**b / b * _gauss_2f1(b, 1.0 - a, b + 1.0, y)
    return out


def _edge_moments(rho: float, m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Moments of kappa-hat over the two edge elements, X = order/m.

    left[k, i] = int_0^X r^(k rho) kappa-hat(r, sigma_i) dr and
    right[k, i] = int_0^X w^(k rho) kappa-hat(1 - w, sigma_i) dw, where
    kappa-hat is the unit kernel WITHOUT the alpha prefactor,
    |r - sigma|^(rho-1) - (r + sigma)^(rho-1), and w = 1 - r maps the last
    ``order`` panels onto [0, X]. Both same-side parts are
    int_0^X w^(k rho) |c_i - w|^(rho-1) dw, with c_i = sigma_i on the left
    and c_i = 1 - sigma_i, taken as (m - i)/m, on the right (so that
    c_i = X exactly at the element's inner node): c_i^((k+1) rho) times an
    incomplete beta function B_(X/c_i)(k rho + 1, rho) when c_i >= X,
    split at w = c_i when 0 < c_i < X (the tail in the Euler
    hypergeometric form), an elementary power at c_i = 0 (the final
    node). The cross part is a Gauss hypergeometric function of -X/sigma_i
    on the left and, as 1 + sigma_i > X, an incomplete beta function on
    the right. Pfaff's transformation (DLMF 15.8.1) takes each Gauss
    function of -v to one of v/(1+v) <= 2/3, and ``_incomplete_beta`` and
    ``_gauss_2f1`` sum the series, all rows k at once. B(a, b) = Gamma(a)
    Gamma(b) / Gamma(a + b) from ``math.gamma``, to about 3 ulps; through
    ``math.lgamma`` the largest moments, near the element, came out twice
    as far from mpmath.
    """
    hstep = 1.0 / m
    big_x = order * hstep
    idx = np.arange(1, m + 1)
    sig = idx * hstep
    k = np.arange(order + 1)[:, None]  # one row per power of the layer coordinate
    ap = k * rho + 1.0
    pw = (k + 1.0) * rho
    b_full = np.array([[math.gamma(a) * math.gamma(rho) / math.gamma(a + rho)] for a in ap[:, 0]])
    # the same-side parts, left then right: the node's distance c from w = 0
    # and the panels between them
    c = np.concatenate((sig, (m - idx) * hstep))
    steps = np.concatenate((idx, m - idx))
    far = steps >= order
    inside = (steps > 0) & ~far
    # one incomplete beta call for the far same-side parts and the right cross part
    ends = np.concatenate((c[far], 1.0 + sig))
    betas = ends**pw * _incomplete_beta(ap, rho, np.minimum(big_x / ends, 1.0), b_full)
    same = np.empty((order + 1, 2 * m))
    same[:, far] = betas[:, :-m]
    # 2F1(-k rho, rho; rho+1; -v) = (1+v)^(k rho) 2F1(-k rho, 1; rho+1; v/(1+v))
    v = (big_x - c[inside]) / c[inside]
    tail = (
        v**rho / rho * (1.0 + v) ** (k * rho)
        * _gauss_2f1(-k * rho, 1.0, rho + 1.0, v / (1.0 + v))
    )
    same[:, inside] = c[inside] ** pw * (b_full + tail)
    same[:, steps == 0] = big_x**pw / pw
    # 2F1(1-rho, ap; ap+1; -xq) = (1+xq)^(rho-1) 2F1(1-rho, 1; ap+1; xq/(1+xq))
    xq = big_x / sig
    cross = (
        sig**pw * xq**ap / ap * (1.0 + xq) ** (rho - 1.0)
        * _gauss_2f1(1.0 - rho, 1.0, ap + 1.0, xq / (1.0 + xq))
    )
    return same[:, :m] - cross, same[:, m:] - betas[:, -m:]


def _hat_panel_moments(
    nodes: np.ndarray, rho: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact unit-kernel moments of the linear hats on the panels between nodes.

    Panel q runs from a_q = nodes[q] to b_q = nodes[q + 1], and row i
    collocates at sig_i = nodes[i + 1]:

    m0[i, q] = int_panel_q alpha kappa-hat(r, sig_i) dr
    u1[i, q] = int_panel_q ((r - a_q)/(b_q - a_q)) alpha kappa-hat(r, sig_i) dr

    The left node of panel q gets weight m0 - u1, the right node u1.
    Panel ends and collocation points are the same floats, so a panel
    end at the collocation point puts |x|^rho at x = 0, exactly.
    """
    a = nodes[None, :-1]
    b = nodes[None, 1:]
    col = nodes[1:, None]

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
    u1 = alpha * (d_g + (col - a) * d_f - cross_1) / (b - a)
    return m0, u1


def _unit_kernel_system(hh: float, m: int) -> np.ndarray:
    """Nystrom matrix W on the unit mesh sigma_j = j/m, j = 0..m, one column per node.

    For any right endpoint t, the nodal values G_j ~ g(t*sigma_j, t) solve
    (I + c W) G = 1 with c = t^(2H-1). Row 0 is zero: the node sigma = 0
    carries the known value g(0, t) = 1, which that row reads as G_0 = 1,
    and column 0 feeds it to the other rows through the left edge element.
    Interior panels are linear hats with elementary exact moments; the two
    edge elements are quadratic in the layer coordinate with
    beta/hypergeometric exact moments.
    """
    rho = 2.0 * hh - 1.0
    alpha = hh * rho
    order = _EDGE_ORDER
    hstep = 1.0 / m
    m0, u1 = _hat_panel_moments(np.arange(m + 1) * hstep, rho, alpha)

    shape = _edge_shape_matrix(rho, hstep, order)  # (order+1, order+1)
    left, right = _edge_moments(rho, m, order)  # each (order+1, m)
    weights = np.zeros((m + 1, m + 1))
    weights[1:, : order + 1] = (alpha * left).T @ shape  # column j <-> node j
    weights[1:, m - order :] += ((alpha * right).T @ shape)[:, ::-1]  # node m - j
    # interior hats: u1 to each panel's right node, then m0 - u1 to its left
    inner = slice(order, m - order)
    weights[1:, order + 1 : m - order + 1] += u1[:, inner]
    weights[1:, inner] += m0[:, inner] - u1[:, inner]
    return weights


# Arnoldi steps taken between two convergence checks of the shifted solves.
_KRYLOV_CHECK_EVERY = 8


def _balance(weights: np.ndarray) -> np.ndarray:
    """Powers of two d such that D W D^-1 has matched off-diagonal row and column norms.

    One pass of diagonal balancing (Parlett & Reinsch 1969): the edge
    elements make a few rows of W large (entries of 300 beside a diagonal
    near 1 at H = 0.5002, m = 9), and an orthogonal Krylov basis of the
    unbalanced W loses those rows' equations to rounding (errors of 1e-10
    against a dense LU, where the balanced basis keeps 1e-13). A diagonal
    similarity keeps every shifted system a shifted system, and powers of
    two scale without rounding.
    """
    sq = weights * weights
    np.fill_diagonal(sq, 0.0)
    col, row = sq.sum(axis=0), sq.sum(axis=1)
    scale = np.ones(len(weights))
    ok = (col > 0.0) & (row > 0.0)
    scale[ok] = np.exp2(np.round(0.25 * np.log2(col[ok] / row[ok])))
    return scale


def _projected_solve(hess: np.ndarray, beta: float, cs: np.ndarray) -> np.ndarray:
    """y(c) solving (I + c H) y = beta e_1 for each scale c, one row each.

    H is the small Hessenberg matrix of a Krylov basis, factored once as
    H = V diag(lam) V^-1, so every shift is a diagonal scaling in the
    eigenbasis. H is real, so its eigenpairs come in conjugate pairs and
    the imaginary parts cancel up to rounding. One step of iterative
    refinement with the same factorization removes the error an
    ill-conditioned eigenbasis adds (3e-10 against a dense LU without it,
    near H = 1/2).
    """
    lam, vecs = np.linalg.eig(hess)
    inv_vecs = np.linalg.inv(vecs)
    scale = 1.0 / (1.0 + cs[:, None] * lam)
    rhs = np.zeros((cs.size, len(hess)))
    rhs[:, 0] = beta

    def shifted_solve(r: np.ndarray) -> np.ndarray:
        return (((r @ inv_vecs.T) * scale) @ vecs.T).real

    y = shifted_solve(rhs)
    return y + shifted_solve(rhs - y - cs[:, None] * (y @ hess.T))


def _shifted_fom(
    balanced: np.ndarray, scale: np.ndarray, b: np.ndarray, cs: np.ndarray
) -> np.ndarray:
    """x(c) solving (I + c W) x = b for each scale c, one row each, on one Krylov basis.

    ``balanced`` is D W D^-1 with D = diag(scale). The Krylov space of
    I + c D W D^-1 started at D b is that of D W D^-1 for every c, so one
    Arnoldi basis V_k (classical Gram-Schmidt, twice) with
    D W D^-1 V_k = V_k H_k + h_{k+1,k} v_{k+1} e_k^T serves all shifts: the
    full orthogonalization method takes x(c) = D^-1 V_k y(c),
    (I + c H_k) y(c) = |D b| e_1 (Frommer & Glaessner, SIAM J. Sci.
    Comput. 19(1), 1998), and its residual in the original system is
    -c h_{k+1,k} y_k(c) D^-1 v_{k+1}. The basis grows by
    ``_KRYLOV_CHECK_EVERY`` vectors until every shift's residual norm is
    at most 4 eps |b|, or until it spans the whole space. The residual is
    measured unbalanced because D spans six decades or more near H = 1/2:
    a balanced residual at rounding level can still leave 1e-11 in the
    nodes that D shrinks (H = 0.501, m = 65).
    """
    m = b.size
    beta = float(np.linalg.norm(scale * b))
    target = 4.0 * _EPS * float(np.linalg.norm(b))
    basis = (scale * b / beta)[None, :]
    hess = np.zeros((1, 0))
    k = 0
    while True:
        grow = min(_KRYLOV_CHECK_EVERY, m - k)
        basis = np.vstack((basis, np.zeros((grow, m))))
        hess = np.pad(hess, ((0, grow), (0, grow)))
        for j in range(k, k + grow):
            w = balanced @ basis[j]
            for _ in range(2):
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                hess[: j + 1, j] += h
            hess[j + 1, j] = np.linalg.norm(w)
            if hess[j + 1, j] > 0.0:  # else the basis spans an invariant subspace
                basis[j + 1] = w / hess[j + 1, j]
        k += grow
        y = _projected_solve(hess[:k, :k], beta, cs)
        tail = hess[k, k - 1] * float(np.linalg.norm(basis[k] / scale))
        if k == m or tail * np.max(np.abs(cs * y[:, -1])) <= target:
            x = y @ basis[:k]
            x /= scale
            return x


def _batch_scaled_solve(weights: np.ndarray, cs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve (I + c W) G = 1 for each scale c; (solutions, max residual).

    Only c changes between the systems, so one shifted Krylov solve
    (``_shifted_fom``) of the balanced D W D^-1 (``_balance``) serves them
    all, on one basis of k = 8-40 vectors: O(k m^2 + S k m) for S shifts,
    and no m x m matrix is factored. The residual is recomputed from the
    returned solutions against the original systems, one O(S m^2) matrix
    product.
    """
    scale = _balance(weights)
    balanced = weights * scale[:, None] / scale
    sols = _shifted_fom(balanced, scale, np.ones(len(weights)), cs)
    gap = 1.0 - sols - cs[:, None] * (sols @ weights.T)
    return sols, float(np.abs(gap).max())


def _graded_unit_system(hh: float, n: int) -> np.ndarray:
    """Hat-basis Nystrom matrix on a mesh graded toward both endpoints.

    Node j sits at x^q / (x^q + (1-x)^q) with x = j/n and grading exponent
    q = 2/rho (capped), the classical grading that restores second-order
    convergence of piecewise-linear product integration in the presence of
    s^rho endpoint layers. Column j is node j = 0..n, and row j > 0
    collocates there; row 0 is zero, so that (I + c W) G = 1 reads the
    known value G_0 = g(0, t) = 1 there. Only the value at sigma = 1 is
    read off (diagonal solves), so no interpolant is built.
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
    m0, u1 = _hat_panel_moments(nodes, rho, alpha)
    weights = np.zeros((n + 1, n + 1))
    weights[1:, 1:] = u1  # the right node of panel q is node q + 1
    weights[1:, :-1] += m0 - u1
    return weights


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
        rows = np.broadcast_to(rows, sigma.shape)
        out = np.empty(sigma.shape)
        edge = _EDGE_ORDER / self.nodes.size  # width of each edge layer
        right = sigma >= 1.0 - edge
        left = (sigma <= edge) & ~right
        mid = ~(left | right)
        out[left] = _power_series(self.left[rows[left]], sigma[left] ** self.exponent)
        out[right] = _power_series(
            self.right[rows[right]], (1.0 - sigma[right]) ** self.exponent
        )
        s_mid = sigma[mid]
        q = np.clip(np.searchsorted(self.nodes, s_mid, side="right") - 1, 0, self.nodes.size - 2)
        r_mid = rows[mid]
        out[mid] = 1.0 - s_mid**self.exponent * (
            self.offset[r_mid, q] + self.slope[r_mid, q] * s_mid
        )
        return out

    def grid_sums(
        self, t: np.ndarray, grids: list[tuple[np.ndarray, np.ndarray]]
    ) -> list[_GridSums]:
        """Operators a -> [sum over i < n[k] of g_k(s_i / t_k) a_i, for each row k].

        One operator per (s, n) in grids, n its upper limit; g_k is row k,
        s a uniform grid from s_0 >= 0 with s_i <= t_k for i < n[k]. With
        sigma = s/t_k and e the exponent, the left layer (sum_p c_p
        sigma^(p e)) and each interior panel (1 - sigma^e (A_q + B_q sigma))
        are separable, so their sums are t_k^(-p e) and t_k^(-e-1) times
        the prefix sums cumsum(a s^(p e)) and cumsum(a s^(e+1)), read where
        the panel boundaries cut s. Summed by parts, each boundary carries
        the jump of A_q or B_q across it: a sparse matrix with one row per
        t_k and one entry per boundary, applied to a prefix sum. Only the
        right layer, where (1 - sigma)^e does not separate, is evaluated
        point by point, as a ``window`` applied to a. Everything but the
        prefix sums of a depends on (t, s, n) alone and is built here,
        once: the cuts, the jumps, the powers of t and s and the right
        layer's kernel values. The operators share the arrays that depend
        on t only. Each array is built whole, over all rows; the cuts and
        right layers come before the jumps, so that the two phases'
        temporaries never overlap.
        """
        e = self.exponent
        # the interior panels q, from sigma = order/m to 1 - order/m
        inner = slice(_EDGE_ORDER - 1, self.nodes.size - _EDGE_ORDER - 1)
        bounds = self.nodes[inner.start : inner.stop + 1]
        grid_parts = []
        for s, n in grids:
            u = s**e
            factors = tuple(u**p for p in range(self.left.shape[1])) + (u * s,)
            # samples below each boundary; a sample within rounding of a
            # boundary may fall on either side, where the interpolant is continuous
            below = np.ceil((np.outer(t, bounds) - s[0]) / (s[1] - s[0]))
            cut = np.clip(below, 0, n[:, None]).astype(np.int32)
            del below  # so that it does not sit under the later temporaries
            right = self.window(t, s, cut[:, -1], n)
            # the prefix sums of a, which start at 0, have one column more than s
            grid_parts.append((factors, (t.size, s.size + 1), cut, right))
        jump_u, jump_us = (
            -np.diff(coef[:, inner], axis=1, prepend=0.0, append=0.0)
            for coef in (self.offset, self.slope)
        )
        # each row of a jump matrix holds one entry per boundary
        rows_at = np.arange(0, jump_u.size + 1, bounds.size, dtype=np.int32)
        t_e = t**-e
        lead = tuple(self.left[:, p] * t_e**p for p in range(self.left.shape[1]))
        ops = []
        for factors, shape, cut, right in grid_parts:
            jumps = (_csr(jump, cut, rows_at, shape) for jump in (jump_u, jump_us))
            ops.append(_GridSums(factors, lead, t_e, t_e / t, cut, *jumps, right))
        return ops

    def window(
        self, t: np.ndarray, s: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> _sparse.csr_array:
        """CSR matrix whose row k sums a_lo[k] .. a_hi[k]-1 against g_k(s_i / t_k).

        The kernel values come from one ``at`` call; a row with hi[k] <=
        lo[k] is empty, and the index arrays are int32.
        """
        length = np.maximum(hi - lo, 0)
        local = np.repeat(np.arange(t.size, dtype=np.int32), length)
        end = np.cumsum(length)  # where row k's samples end in pos
        shift = np.repeat(lo - (end - length), length)
        pos = (np.arange(local.size) + shift).astype(np.int32)
        g = self.at(local, s[pos] / t[local])
        rows_at = np.concatenate(([0], end)).astype(np.int32)
        return _csr(g, pos, rows_at, (t.size, s.size))


def _csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]
) -> _sparse.csr_array:
    """CSR matrix over the given int32 index arrays and float data, raveled, not copied.

    A row may repeat a column; the matrix-vector product sums its entries.
    """
    from scipy import sparse as _sparse  # imported on first use, so that import msfou needs numpy alone

    return _sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=shape, copy=False)


@dataclass(frozen=True, eq=False)
class _GridSums:
    """Sums of every interpolant row against data on one grid; see ``grid_sums``.

    lead[p] = left[:, p] t^(-p e), t_e = t^(-e), t_e1 = t^(-e-1); factors
    are s^(p e) and s^(e+1). cut[k, r]: samples of s below boundary r of
    row k, capped at n[k]. jump_u and jump_us are CSR matrices over the
    cuts and the jumps, shared, not copied; the operators of one
    ``grid_sums`` call share the jumps. right is the ``window`` of row k's
    right layer, samples cut[k, -1] .. n[k] - 1. Index arrays are int32;
    all arrays, those of the matrices too, are read-only once built.
    """

    factors: tuple[np.ndarray, ...]
    lead: tuple[np.ndarray, ...]
    t_e: np.ndarray
    t_e1: np.ndarray
    cut: np.ndarray
    jump_u: _sparse.csr_array
    jump_us: _sparse.csr_array
    right: _sparse.csr_array

    def __post_init__(self) -> None:
        arrays = [*self.factors, *self.lead, self.t_e, self.t_e1, self.cut]
        for mat in (self.jump_u, self.jump_us, self.right):
            arrays += (mat.data, mat.indices, mat.indptr)
        for arr in arrays:
            arr.setflags(write=False)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        """Sum over i < n[k] of g_k(s_i / t_k) a_i, for each row k: O(N + rows * panels)."""
        *powers, tail = (np.concatenate(([0.0], np.cumsum(a * f))) for f in self.factors)
        first, last = self.cut[:, 0], self.cut[:, -1]
        val = sum(c * pw[first] for c, pw in zip(self.lead, powers))
        val += powers[0][last] - powers[0][first]
        val -= self.t_e * (self.jump_u @ powers[1])
        val -= self.t_e1 * (self.jump_us @ tail)
        return val + self.right @ a


def _power_series(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_p coef[..., p] u^p."""
    return sum(coef[..., p] * u**p for p in range(coef.shape[-1]))


def _unit_interpolant(sols: np.ndarray, rho: float) -> _UnitInterpolant:
    """Interpolant coefficients of the solutions sols[r] (shape (rows, m))."""
    sols = np.atleast_2d(sols)
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


def _power_poly_square_integral(coef: np.ndarray, s_lo, s_hi, exponent: float):
    """Integrate (c0 + c1 u + c2 u^2)^2 over [s_lo, s_hi], u = s^exponent."""
    terms = (
        coef[..., 0] ** 2,
        2.0 * coef[..., 0] * coef[..., 1],
        coef[..., 1] ** 2 + 2.0 * coef[..., 0] * coef[..., 2],
        2.0 * coef[..., 1] * coef[..., 2],
        coef[..., 2] ** 2,
    )
    total = 0.0
    for k, ck in enumerate(terms):
        pw = k * exponent + 1.0
        total = total + ck * (s_hi**pw - s_lo**pw) / pw
    return total


def _layer_cumulative_square_integral(
    nodes: np.ndarray, values: np.ndarray, rho: float
) -> np.ndarray:
    """Cumulative int_0^{s_j} y(s)^2 ds for y given at nodes, y(0) = 1.

    Consecutive panel pairs from s = 0 carry quadratic fits in u = s^rho
    (the boundary-layer coordinate near 0; plain quadratics when rho is
    negligible) through their three nodes, and an odd trailing panel the
    two-point fit c0 + c1 u. Each fit is squared and integrated in closed
    form: over the first panel and the whole of each pair, and over the
    trailing panel.
    """
    x = np.concatenate(([0.0], nodes))
    y = np.concatenate(([1.0], values))
    exponent = rho if rho >= _MIN_LAYER_RHO else 1.0
    stop = 2 * (nodes.size // 2) + 1
    coef = _fit_power_quadratics(x[:stop], y[:stop], exponent)
    lo, mid, hi = x[0 : stop - 1 : 2], x[1 : stop - 1 : 2], x[2:stop:2]
    base = np.concatenate(([0.0], np.cumsum(_power_poly_square_integral(coef, lo, hi, exponent))))
    out = np.empty(nodes.size)
    out[0 : stop - 1 : 2] = base[:-1] + _power_poly_square_integral(coef, lo, mid, exponent)
    out[1 : stop - 1 : 2] = base[1:]
    if x.size > stop:
        u0 = x[-2] ** exponent
        u1 = x[-1] ** exponent
        cb = (y[-1] - y[-2]) / (u1 - u0)
        ca = y[-2] - cb * u0
        coef = np.array([ca, cb, 0.0])
        out[-1] = base[-1] + float(_power_poly_square_integral(coef, x[-2], x[-1], exponent))
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
    rows, res_uniform = _batch_scaled_solve(_unit_kernel_system(hh, unit), ends**rho)
    sols, res_graded = _batch_scaled_solve(_graded_unit_system(hh, unit), mesh**rho)
    residual = max(res_uniform, res_graded)
    if residual > 1e-6:
        raise RuntimeError(f"Nystrom linear-system residual {residual:.3e} > 1e-6")
    diagonal = sols[:, -1]
    bracket = _layer_cumulative_square_integral(mesh, diagonal, rho)
    return rows[:, 1:], diagonal, bracket, residual


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
    mesh refinement and the integral identity int_0^t g(s, t) ds = <M>_t
    of the fundamental martingale.
    """

    t: float
    h: HurstParam
    mesh: np.ndarray
    g_values: np.ndarray
    g_diag: np.ndarray
    bracket_M: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        if _frozen_vectors(self, ("mesh", "g_values", "g_diag", "bracket_M")) < 1:
            raise ValueError("mesh must be nonempty")
        if self.mesh[0] <= 0.0 or np.any(np.diff(self.mesh) <= 0.0):
            raise ValueError("mesh must be strictly increasing within (0, t]")
        if abs(self.mesh[-1] - self.t) > 1e-12 * max(1.0, abs(self.t)):
            raise ValueError("mesh must end at the right endpoint t")
        if self.bracket_M[0] < 0.0 or np.any(np.diff(self.bracket_M) < 0.0):
            raise ValueError("bracket_M must be nonnegative and nondecreasing")


def solve_g_kernel(t: float, h: HurstParam, m: int = 256) -> KernelSolution:
    """Solve the kernel equation on (0, t] with an m-point uniform mesh.

    Returns nodal g(s_j, t), the diagonal g(s_j, s_j) (each diagonal value
    from its own fully resolved solve at right endpoint s_j), and the
    bracket <M> accumulated from the squared diagonal. H = 1/2 short-
    circuits to the exact g = 1, <M>_t = t. The m diagonal solves share one
    Krylov basis of the graded system of order m + 1, of k = 8-40 vectors,
    O(k m^2), after which each costs O(k m), and O(m^2) to check its
    residual. t must be finite and positive ("t must be positive, got
    0.0"), and m a whole number ("m must be a whole number, got 8.5"; 256.0
    reads as 256) in [8, 4096]. Raises RuntimeError when a linear-system
    residual exceeds 1e-6.
    """
    _hurst("solve_g_kernel", h, "H >= 1/2")
    t = _positive("t", t)
    m = _count("m", m, 8, _MAX_MESH)
    mesh = np.arange(1, m + 1) * (t / m)
    mesh[-1] = t
    if h.h == 0.5:
        g_values = g_diag = np.ones(m)
        bracket, residual = mesh, 0.0
    else:
        rows, g_diag, bracket, residual = _solve_kernel(h.h, m, mesh[-1:], mesh)
        g_values = rows[-1]
    return KernelSolution(
        t=t, h=h, mesh=mesh, g_values=g_values, g_diag=g_diag, bracket_M=bracket, residual=residual
    )
