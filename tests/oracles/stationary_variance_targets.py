"""Reference values for the stationary-second-moment map and its inverse.

p(theta) = 1/(2*theta) + H * theta**(-2H) * Gamma(2H) is the large-time limit
of the time-averaged squared process A_T = (1/T) int_0^T X^2 dt. Its
fluctuations have the limit variance

    V = lim T Var(A_T) = 4 pi int f(lambda)^2 dlambda,
    f(lambda) = (1/(2 pi) + c_H |lambda|^(1-2H)) / (theta^2 + lambda^2),
    c_H = Gamma(2H+1) sin(pi H) / (2 pi),

the spectral density of the stationary solution (Brownian part f_W plus
fractional part f_S; int f = p). V splits into a Brownian part
1/(2 theta^3), a fractional part and a cross part
8 pi int f_W f_S = 4 H^2 Gamma(2H) theta^(-2-2H). This oracle produces:

  * y = p(1) at H = 0.55 through 50-digit mpmath arithmetic (the inversion
    test feeds this y to the library and expects theta = 1 back);
  * the asymptotic-variance constant sigma_H = theta sqrt(V) / p of the
    corrected LSE at three (theta, H) points, evaluated with the closed-form
    parts expanded term by term (a different association order than the
    library's factored form), and checked against mpmath.quad of
    4 pi int f^2 to rel 1e-10;
  * the delta-method sdev sqrt(V/T)/|p'| and convexity bias
    (1/2) (p^-1)''(p) V/T of the moment estimator for acceptance cells 5
    and 6 (T = 20);
  * one reference value of the standardized statistic
    Phi = sqrt(N d) (theta_tilde - theta) |p'(theta)| / sqrt(V), with V
    from quadrature;
  * the H = 3/4 log-coefficient of the corrected LSE, the limit variance
    of sqrt(T/log T)(theta_bar - theta). There f_S^2 ~ c_H^2 |lambda|^-1
    / theta^4 near 0, so T Var(A_T) grows as 8 pi c_H^2 theta^-4 log T and
    the coefficient is theta^2 8 pi c_H^2 theta^-4 / p^2. It is checked
    against the closed form 9 / (16 theta^2 p^2) and against the residue
    (3 - 4H) sigma_H^2 of sigma_h_expanded just below H = 3/4.

Run:

    python tests/oracles/stationary_variance_targets.py
"""

import mpmath

mpmath.mp.dps = 50


def p_of_theta(theta, h):
    theta = mpmath.mpf(str(theta))
    h = mpmath.mpf(str(h))
    return 1 / (2 * theta) + h * theta ** (-2 * h) * mpmath.gamma(2 * h)


def sigma_h_expanded(theta, h):
    """Expanded-term evaluation of the CLT scale constant for H in (1/2, 3/4)."""
    theta = mpmath.mpf(str(theta))
    h = mpmath.mpf(str(h))
    g2h = mpmath.gamma(2 * h)
    term_a = theta ** (1 - 4 * h) * h**2 * (4 * h - 1) * g2h**2
    term_b = (
        theta ** (1 - 4 * h)
        * h**2
        * (4 * h - 1)
        * g2h
        * mpmath.gamma(3 - 4 * h)
        * mpmath.gamma(4 * h - 1)
        / mpmath.gamma(2 - 2 * h)
    )
    term_cross = 4 * h**2 * g2h * theta ** (-2 * h)
    numerator = mpmath.sqrt(term_a + term_b + term_cross + 1 / (2 * theta))
    denominator = theta ** (-2 * h) * h * g2h + 1 / (2 * theta)
    return numerator / denominator


def spectral_variance(theta, h):
    """V = 4 pi int f^2 by quadrature, returned as (Brownian, fractional, cross).

    The substitution lambda = theta u^k, k = 2/(3-4H), turns the
    |lambda|^(2-4H) singularity of f_S^2 at the origin into a smooth factor,
    so tanh-sinh quadrature converges to full precision.
    """
    theta = mpmath.mpf(str(theta))
    h = mpmath.mpf(str(h))
    c_h = mpmath.gamma(2 * h + 1) * mpmath.sin(mpmath.pi * h) / (2 * mpmath.pi)
    k = 2 / (3 - 4 * h)

    def part(integrand):
        def g(u):
            lam = theta * u**k
            return integrand(lam) * theta * k * u ** (k - 1)

        # even integrand: 4 pi int_R = 8 pi int_0^inf
        return 8 * mpmath.pi * mpmath.quad(g, [0, 1, mpmath.inf])

    f_w = lambda lam: 1 / (2 * mpmath.pi) / (theta**2 + lam**2)
    f_s = lambda lam: c_h * lam ** (1 - 2 * h) / (theta**2 + lam**2)
    return (
        part(lambda lam: f_w(lam) ** 2),
        part(lambda lam: f_s(lam) ** 2),
        2 * part(lambda lam: f_w(lam) * f_s(lam)),
    )


def p_derivatives(theta, h):
    """(p'(theta), p''(theta)) in closed form."""
    theta = mpmath.mpf(str(theta))
    h = mpmath.mpf(str(h))
    g2h = mpmath.gamma(2 * h)
    d1 = -1 / (2 * theta**2) - 2 * h**2 * g2h * theta ** (-2 * h - 1)
    d2 = 1 / theta**3 + 2 * h**2 * (2 * h + 1) * g2h * theta ** (-2 * h - 2)
    return d1, d2


def moment_cell_targets(theta, h, big_t):
    """Delta-method sdev and convexity bias of the moment estimator at T."""
    v = sum(spectral_variance(theta, h))
    d1, d2 = p_derivatives(theta, h)
    sdev = mpmath.sqrt(v / big_t) / abs(d1)
    # (p^-1)''(p(theta)) = -p''/p'^3
    bias = -d2 / d1**3 * v / (2 * big_t)
    return sdev, bias


def boundary_log_coefficient(theta):
    """Limit variance of sqrt(T/log T)(theta_bar - theta) at H = 3/4."""
    theta = mpmath.mpf(str(theta))
    h = mpmath.mpf(3) / 4
    c_h = mpmath.gamma(2 * h + 1) * mpmath.sin(mpmath.pi * h) / (2 * mpmath.pi)
    # lim lambda f_S(lambda)^2 as lambda -> 0 is c_H^2 / theta^4
    log_growth = 8 * mpmath.pi * c_h**2 / theta**4
    return theta**2 * log_growth / p_of_theta(theta, "0.75") ** 2


def phi_reference(theta_tilde, theta, h, n, d):
    """Phi = sqrt(N d)(theta_tilde - theta)|p'(theta)| / sqrt(V), V by quadrature."""
    v = sum(spectral_variance(theta, h))
    d1, _ = p_derivatives(theta, h)
    delta = mpmath.mpf(str(theta_tilde)) - mpmath.mpf(str(theta))
    return mpmath.sqrt(n * mpmath.mpf(str(d))) * delta * abs(d1) / mpmath.sqrt(v)


if __name__ == "__main__":
    y = p_of_theta(1, "0.55")
    print(f"p(1; H=0.55)            = {mpmath.nstr(y, 20)}")
    print(f"p(1; H=0.6)             = {mpmath.nstr(p_of_theta(1, '0.6'), 20)}")
    for theta, h in ((1, "0.6"), ("0.5", "0.65"), (2, "0.7")):
        closed = sigma_h_expanded(theta, h)
        v_w, v_s, v_x = spectral_variance(theta, h)
        t, hh = mpmath.mpf(str(theta)), mpmath.mpf(h)
        cross = 4 * hh**2 * mpmath.gamma(2 * hh) * t ** (-2 - 2 * hh)
        quad = t * mpmath.sqrt(v_w + v_s + v_x) / p_of_theta(theta, h)
        rel = abs(quad / closed - 1)
        assert rel < 1e-10, f"sigma_H({theta}, {h}): quadrature off by {rel}"
        assert abs(v_x / cross - 1) < 1e-10, f"cross term ({theta}, {h}) off"
        print(
            f"{f'sigma_H({theta}, {h})':<24}= {mpmath.nstr(closed, 20)}  "
            f"(V = {mpmath.nstr(v_w, 6)} + {mpmath.nstr(v_s, 6)} + {mpmath.nstr(v_x, 6)}; "
            f"quadrature rel gap {mpmath.nstr(rel, 2)})"
        )
    for label, theta, h in (("cell 5", "0.5", "0.55"), ("cell 6", 1, "0.65")):
        sdev, bias = moment_cell_targets(theta, h, 20)
        print(
            f"{label} (theta={theta}, H={h}, T=20): predicted sdev "
            f"{mpmath.nstr(sdev, 12)}, bias {mpmath.nstr(bias, 12)}"
        )
    phi = phi_reference("1.1", 1, "0.6", 500, "0.02")
    print(f"Phi(1.1; 1, 0.6, N=500, d=0.02) = {mpmath.nstr(phi, 20)}")
    for theta in ("0.5", 1, 2, 4):
        coef = boundary_log_coefficient(theta)
        closed = 9 / (16 * mpmath.mpf(str(theta)) ** 2 * p_of_theta(theta, "0.75") ** 2)
        assert abs(coef / closed - 1) < mpmath.mpf("1e-40"), f"closed form ({theta}) off"
        below = mpmath.mpf(3) / 4 - mpmath.mpf("1e-20")
        residue = (3 - 4 * below) * sigma_h_expanded(theta, below) ** 2
        assert abs(residue / coef - 1) < mpmath.mpf("1e-15"), f"residue ({theta}) off"
        print(f"{f'boundary_variance({theta})':<24}= {mpmath.nstr(coef, 20)}")
