"""The exact likelihood of the simulated Euler model, in dense form.

``euler_msfou`` builds X_i = (1 - theta d) X_{i-1} + e_i on t_i = i d,
where e_i is the increment over [t_{i-1}, t_i] of a sub-fractional
Brownian motion plus an independent Brownian motion. The sfBm increment
is the average of two fBm increments, one on each half-line, i + j - 1
lags apart, so e is centered Gaussian with covariance

    Sigma_ij = d^(2H) (gamma(|i - j|) - gamma(i + j - 1)) + d delta_ij,

gamma the unit fGn autocovariance. The likelihood of e = dX + theta d X_-
is greatest at

    theta_N = -X_-' Sigma^-1 dX / (d X_-' Sigma^-1 X_-),

with X_- = (X_0, ..., X_{N-1}) and dX its steps. ``mle`` approximates
this estimate through the fundamental martingale and the kernel equation;
here it is solved directly, by a Cholesky factorization of Sigma. That
costs O(N^3) time and O(N^2) memory, so N is capped at ``MAX_STEPS``: this
is a yardstick for the kernel discretization, not an estimator.
"""

import numpy as np
from scipy import linalg

from msfou import HurstParam, SamplePath, fgn_autocovariance

MAX_STEPS = 2000


def noise_covariance(n: int, d: float, h: HurstParam) -> np.ndarray:
    """Sigma, the n x n covariance of the Euler model's noise increments on step d."""
    i = np.arange(1, n + 1)
    near = fgn_autocovariance(np.abs(i[:, None] - i[None, :]), h)
    far = fgn_autocovariance(i[:, None] + i[None, :] - 1, h)
    sigma = d ** (2.0 * h.h) * (near - far)
    sigma[np.diag_indices(n)] += d
    return sigma


def exact_theta(x: SamplePath, h: HurstParam) -> float:
    """theta_N of the exact Euler-model likelihood; ValueError past ``MAX_STEPS`` steps."""
    if x.n > MAX_STEPS:
        raise ValueError(f"the dense likelihood takes at most {MAX_STEPS} steps, got {x.n}")
    full = x.full_values()
    left, step = full[:-1], np.diff(full)
    weights = linalg.cho_solve(linalg.cho_factor(noise_covariance(x.n, x.d, h)), left)
    return -float(weights @ step) / (x.d * float(weights @ left))
