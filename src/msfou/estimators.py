"""Drift estimators for the mixed sub-fractional OU process.

Three of the four estimators live here (the likelihood-based one needs the
martingale machinery and has its own module):

* ``lse_skorohod``: the Skorohod-corrected least-squares estimator. Its
  correction term contains the true drift, so a reference value must be
  supplied; it is a theory-verification tool for simulations, not a
  data-facing estimator.
* ``practical_estimator``: inverts the ergodic second-moment map
  ``p(theta) = 1/(2 theta) + H Gamma(2H) theta^(-2H)`` at the empirical
  mean of the squared discrete samples.
* ``nonergodic_estimator``: ``-X_T^2 / (2 int X^2 dt)``, the Young-integral
  least squares for negative drift.

The asymptotic-law helpers ``sigma_H`` (limit standard deviation of the
corrected LSE for 1/2 < H < 3/4), ``boundary_variance`` (its H = 3/4
analogue) and ``phi_statistic`` (the standardized error of the practical
estimator, asymptotically standard normal) complete the module.

Both limit laws rest on the fluctuations of A_T = (1/T) int_0^T X^2 dt
around p(theta): sqrt(T)(A_T - p) -> N(0, V) with

    V = 4 pi int f(lambda)^2 dlambda,
    f(lambda) = (1/(2 pi) + c_H |lambda|^(1-2H)) / (theta^2 + lambda^2),

the spectral density of the stationary solution. V is the sum of a
Brownian part 1/(2 theta^3), a fractional part and the cross part
8 pi int f_W f_S = 4 H^2 Gamma(2H) theta^(-2-2H) of the two independent
noise components. The corrected LSE behaves as -(theta/p)(A_T - p), so
sigma_H = theta sqrt(V) / p; the moment estimator is p^-1(A_T), so by the
delta method its error scale is sqrt(V) / |p'(theta)|.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .noise import HurstParam, _as_float, _count, _finite, _hurst, _in_float_range, _positive
from .numerics import _invert_p_impl, correction_integral, gamma_fn, stationary_second_moment
from .paths import SamplePath

__all__ = [
    "Method",
    "EstimateResult",
    "integral_X2",
    "lse_skorohod",
    "practical_estimator",
    "nonergodic_estimator",
    "sigma_H",
    "boundary_variance",
    "phi_statistic",
]


class Method(enum.Enum):
    """Estimator selector; values double as the CLI spellings."""

    MLE = "mle"
    LSE_SKOROHOD = "lse"
    PRACTICAL = "practical"
    NONERGODIC = "nonergodic"


@dataclass(frozen=True)
class EstimateResult:
    """Point estimate of the drift with method tag and diagnostics.

    denominator is the normalizing integral of the method (int X^2 dt for
    the least-squares family, the empirical second moment for the moment
    estimator, int Q^2 d<M> for the MLE); it is positive for any returned
    estimate. diagnostics carries named reals such as root-finder iteration
    counts ("diagnostic iterations must be a number, got '3'").
    """

    theta_hat: float
    method: Method
    denominator: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.method, Method):
            raise TypeError(f"method must be a Method, got {self.method!r}")
        object.__setattr__(self, "theta_hat", _finite("theta_hat", self.theta_hat))
        object.__setattr__(self, "denominator", _positive("denominator", self.denominator))
        object.__setattr__(
            self,
            "diagnostics",
            {str(k): _as_float(f"diagnostic {k}", v) for k, v in self.diagnostics.items()},
        )


def integral_X2(x: SamplePath) -> float:
    """Trapezoidal int_0^T X_t^2 dt on the sampling grid (t_0 included)."""
    if x.n < 2:
        raise ValueError(f"integral_X2 needs at least 2 sampled points, got {x.n}")
    vals = x.full_values()
    return float(np.trapezoid(vals * vals, dx=x.d))


def lse_skorohod(x: SamplePath, h: HurstParam, theta_ref: float) -> EstimateResult:
    """Skorohod-corrected least-squares estimate of the drift.

    theta_bar = -X_T^2/(2 int X^2) + alpha_H I(theta_ref, H, T)/int X^2
                + T/(2 int X^2),
    alpha_H = H(2H-1), I the correction integral. theta_ref must be the
    (known) drift used to generate the path: the correction term depends on
    it, which is exactly why this estimator is usable only in simulation.
    It must be finite and positive ("theta_ref must be finite, got inf").

    diagnostics holds the correction integral I (``correction``), and
    ``correction_error`` and ``correction_panels``, which read 0: I is
    evaluated in closed form, with no quadrature error estimate or panels.
    """
    _hurst("lse_skorohod", h, "H > 1/2")
    theta_ref = _positive("theta_ref", theta_ref)
    den = _positive("int X^2 dt", integral_X2(x))
    big_t = x.span
    alpha = h.h * (2.0 * h.h - 1.0)
    corr = correction_integral(theta_ref, h, big_t)
    x_t = x.values[-1]
    theta_bar = (-0.5 * x_t * x_t + alpha * corr + 0.5 * big_t) / den
    return EstimateResult(
        theta_hat=theta_bar,
        method=Method.LSE_SKOROHOD,
        denominator=den,
        diagnostics={
            "correction": corr,
            "correction_error": 0.0,
            "correction_panels": 0,
        },
    )


def practical_estimator(x: SamplePath, h: HurstParam) -> EstimateResult:
    """Moment estimate: invert p at the mean of the squared discrete samples.

    The samples are the path's values at t_1..t_N, the initial point
    excluded. Permutation-invariant by construction.
    """
    _hurst("practical_estimator", h, "H >= 1/2")
    moment = _positive("empirical second moment", np.mean(x.values * x.values))
    theta, iters = _invert_p_impl(moment, h)
    return EstimateResult(
        theta_hat=theta,
        method=Method.PRACTICAL,
        denominator=moment,
        diagnostics={"moment": moment, "iterations": iters},
    )


def nonergodic_estimator(x: SamplePath) -> EstimateResult:
    """Young-integral least squares: theta = -X_T^2 / (2 int_0^T X^2 dt).

    Negative for any path with X_T != 0 (the natural regime is negative
    drift); invariant under rescaling of the whole path.
    """
    den = _positive("int X^2 dt", integral_X2(x))
    x_t = x.values[-1]
    return EstimateResult(
        theta_hat=-x_t * x_t / (2.0 * den),
        method=Method.NONERGODIC,
        denominator=den,
    )


@_in_float_range
def sigma_H(theta: float, h: HurstParam) -> float:
    """Limit standard deviation of sqrt(T)(theta_bar - theta), 1/2 < H < 3/4.

    sigma_H = theta sqrt(V) / p(theta)
            = sqrt(theta^(1-4H) H^2 (4H-1) (Gamma(2H)^2
                   + Gamma(2H) Gamma(3-4H) Gamma(4H-1) / Gamma(2-2H))
                   + 4 H^2 Gamma(2H) theta^(-2H)
                   + 1/(2 theta))
              / (theta^(-2H) H Gamma(2H) + 1/(2 theta)).

    The three terms under the root are theta^2 times the fractional, cross
    and Brownian parts of V (see the module docstring). As H -> 1/2 the
    constant tends to the classical sqrt(2 theta). Diverges as H -> 3/4
    (Gamma(3-4H) pole); the boundary case has its own constant, see
    boundary_variance. ValueError past the float range (theta = 1e-200).
    """
    _hurst("sigma_H", h, "1/2 < H < 3/4")
    theta = _positive("theta", theta)
    hh = h.h
    g2h = gamma_fn(2.0 * hh)
    bracket = g2h * g2h + g2h * gamma_fn(3.0 - 4.0 * hh) * gamma_fn(4.0 * hh - 1.0) / gamma_fn(
        2.0 - 2.0 * hh
    )
    num = (
        theta ** (1.0 - 4.0 * hh) * hh * hh * (4.0 * hh - 1.0) * bracket
        + 4.0 * hh * hh * g2h * theta ** (-2.0 * hh)
        + 0.5 / theta
    )
    den = theta ** (-2.0 * hh) * hh * g2h + 0.5 / theta
    return math.sqrt(num) / den


@_in_float_range
def boundary_variance(theta: float) -> float:
    """Limit variance of sqrt(T/log T)(theta_bar - theta) at H = 3/4.

    At H = 3/4 the fractional part of the spectral density behaves as
    c_H |lambda|^(-1/2) / theta^2 near 0, so the variance of the time
    average grows logarithmically: T Var(A_T) ~ (9/16) theta^(-4) log T.
    Through the linearization -(theta/p)(A_T - p) of the corrected LSE,

        boundary_variance = 9 / (16 (theta p(theta))^2),   p at H = 3/4,

    which is also the residue lim_{H -> 3/4} (3 - 4H) sigma_H(theta, H)^2
    of sigma_H's Gamma(3-4H) pole. ValueError past the float range.
    """
    theta = _positive("theta", theta)
    theta_p = theta * stationary_second_moment(theta, HurstParam(0.75))
    return 9.0 / (16.0 * theta_p * theta_p)


@_in_float_range
def phi_statistic(
    theta_tilde: float, theta: float, h: HurstParam, n: int, d: float
) -> float:
    """Standardized error of the moment estimator over N samples at step d.

    Phi = sqrt(N d) (theta_tilde - theta) |p'(theta)| / sqrt(V)
        = sqrt(N d) (theta_tilde - theta) (1/2 + 2 H^2 Gamma(2H) theta^(1-2H))
          / (sigma_H (H Gamma(2H) theta^(1-2H) + 1/2)),

    using theta^2 |p'(theta)| = 1/2 + 2 H^2 Gamma(2H) theta^(1-2H) and
    sqrt(V) = sigma_H p / theta. Asymptotically standard normal for
    1/2 < H < 3/4 once theta N d >> 1. Affine in theta_tilde and zero
    exactly at theta_tilde = theta. N must be a whole number >= 1 (100.0 reads as 100).
    ValueError where |p'(theta)| or sqrt(V) is past the float range (theta = 1e-200).
    """
    _hurst("phi_statistic", h, "1/2 < H < 3/4")
    theta_tilde = _finite("theta_tilde", theta_tilde)
    theta = _positive("theta", theta)
    n = _count("n", n, 1)
    d = _positive("d", d)
    hh = h.h
    g2h_theta = gamma_fn(2.0 * hh) * theta ** (1.0 - 2.0 * hh)
    slope = 0.5 + 2.0 * hh * hh * g2h_theta
    scale = sigma_H(theta, h) * (hh * g2h_theta + 0.5)
    # slope and scale are theta^2 |p'(theta)| and theta^2 sqrt(V)
    if not math.isfinite(max(slope, scale) / (theta * theta)):
        raise OverflowError("|p'(theta)| or sqrt(V) is past the float range")
    return slope * math.sqrt(n * d) * (theta_tilde - theta) / scale
