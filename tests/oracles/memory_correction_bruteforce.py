"""Brute-force tensor quadrature for the drift-memory double integral.

Target:

    I(theta, H, T) = int_0^T int_0^t exp(-theta*(t-s))
                     * ((t-s)**(2H-2) + (t+s)**(2H-2)) ds dt

The library evaluates this after a Fubini rearrangement into one-dimensional
integrals; the brute-force oracle never rearranges. It attacks the double
integral directly on a tensor grid:

  * inner |t-s| part: substitute z = (t-s)**(2H-1), which absorbs the
    endpoint singularity exactly; single-interval Gauss-Legendre in z.
  * inner (t+s) part: substitute u = t-s and integrate with panels graded
    toward u = 0 so the exponential scale 1/theta is resolved.
  * outer: composite Gauss-Legendre graded toward t = 0 (the inner
    integrals behave like t**(2H-1) there).

Every resolution knob is doubled once and both values printed; the finest
values are frozen into the numerics tests.

A second, high-precision reference (``mpmath_reference``) uses mpmath
only, no scipy: after the Fubini rearrangement, the two power-weighted
parts are mpmath lower incomplete gamma functions and the smooth part is
one mp.quad call. It runs at 30 digits and prints the relative change
at 45 digits; its values are frozen into the numerics tests as well. Run:

    python tests/oracles/memory_correction_bruteforce.py

With ``--sweep`` the script instead checks the library's closed form,
``msfou.correction_integral``, against ``mpmath_reference`` at 30 digits
over a grid of 203 cases (theta from 0.01 to 100, H from 0.5001 to 0.99,
T from 1e-3 to 1e6, theta T <= 1e7) and prints the worst relative error.
This mode imports msfou (from ``src`` of this checkout); the frozen
values never come from it. It takes a few seconds:

    python tests/oracles/memory_correction_bruteforce.py --sweep
"""

import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy.special import gamma as gamma_fn


def graded_gauss(a, b, n_panels, n_nodes, grade):
    """Composite Gauss-Legendre nodes/weights on [a, b], graded toward a."""
    k = np.arange(n_panels + 1) / n_panels
    edges = a + (b - a) * k**grade
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def inner_same_side(t, theta, h, n_nodes):
    """int_0^t exp(-theta*u) u^(2H-2) du via z = u^(2H-1), vectorized in t."""
    rho = 2.0 * h - 1.0
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    top = t**rho
    z = top[:, None] * (x[None, :] + 1.0) / 2.0
    wz = top[:, None] * w[None, :] / 2.0
    vals = np.exp(-theta * z ** (1.0 / rho))
    return (vals * wz).sum(axis=1) / rho


def inner_cross_side(t, theta, h, n_panels, n_nodes, chunk=2048):
    """int_0^t exp(-theta*u) (2t-u)^(2H-2) du, graded panels toward u = 0."""
    rho = 2.0 * h - 1.0
    out = np.empty_like(t)
    for lo in range(0, t.size, chunk):
        tt = t[lo : lo + chunk]
        k = np.arange(n_panels + 1) / n_panels
        edges = tt[:, None] * (k[None, :] ** 3)
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        u = mid[:, :, None] + half[:, :, None] * x[None, None, :]
        wu = half[:, :, None] * w[None, None, :]
        vals = np.exp(-theta * u) * (2.0 * tt[:, None, None] - u) ** (rho - 1.0)
        out[lo : lo + chunk] = (vals * wu).sum(axis=(1, 2))
    return out


def bruteforce(theta, h, big_t, outer_panels, outer_nodes, inner_nodes, inner_panels):
    t, wt = graded_gauss(0.0, big_t, outer_panels, outer_nodes, grade=3.0)
    f = inner_same_side(t, theta, h, inner_nodes) + inner_cross_side(
        t, theta, h, inner_panels, 24
    )
    return float((f * wt).sum())


def mpmath_reference(theta, h, big_t, dps):
    """I after Fubini, at dps digits:

    I = int_0^T (T-u) e^(-theta u) u^(2H-2) du
        + (int_0^T (2T-u)^rho e^(-theta u) du - int_0^T u^rho e^(-theta u) du) / (2 rho)
    """
    with mp.workdps(dps):
        theta, rho, big_t = mp.mpf(theta), 2 * mp.mpf(h) - 1, mp.mpf(big_t)
        x = theta * big_t
        power = theta ** (-rho - 1) * mp.gammainc(rho + 1, 0, x)
        part_a = big_t * theta ** (-rho) * mp.gammainc(rho, 0, x) - power
        # the integrand decays on the scale 1/theta; split there for mp.quad
        cuts = [k / theta for k in (1, 10, 100) if k / theta < big_t]
        part_c = mp.quad(
            lambda u: (2 * big_t - u) ** rho * mp.exp(-theta * u), [0, *cuts, big_t]
        )
        return part_a + (part_c - power) / (2 * rho)


MPMATH_CASES = [
    (1.0, 0.65, 500.0),
    (0.5, 0.501, 10.0),
    (2.0, 0.99, 50.0),
    (10.0, 0.65, 1e4),
    (0.01, 0.99, 1e6),
    (1.0, 0.5001, 100.0),
    (10.0, 0.75, 1e6),
    # the horizons of the benchmark's mc-rate run
    (1.0, 0.6, 125.0),
    (1.0, 0.6, 250.0),
    (1.0, 0.6, 500.0),
    # either side of each branch switch of the library's special functions:
    # gamma(s, theta T) at theta T = s + 1 for s = rho (H = 0.5001) and
    # s = rho + 1 (H = 0.75), then M(1, rho + 2, -x) at x = 40 for x = 2 theta T
    # and x = theta T
    (1.0, 0.5001, 0.999),
    (1.0, 0.5001, 1.001),
    (1.0, 0.75, 2.49),
    (1.0, 0.75, 2.51),
    (2.0, 0.6, 9.99),
    (2.0, 0.6, 10.01),
    (0.5, 0.9, 79.9),
    (0.5, 0.9, 80.1),
]

SWEEP_THETAS = (0.01, 0.1, 1.0, 10.0, 100.0)
SWEEP_HURSTS = (0.5001, 0.51, 0.6, 0.7, 0.75, 0.9, 0.99)
SWEEP_HORIZONS = (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6)


def sweep():
    """Worst relative error of msfou.correction_integral over the sweep grid."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from msfou import HurstParam, correction_integral

    worst, worst_case, count = 0.0, None, 0
    for theta in SWEEP_THETAS:
        for h in SWEEP_HURSTS:
            for big_t in SWEEP_HORIZONS:
                if theta * big_t > 1e7:
                    continue
                count += 1
                ref = mpmath_reference(theta, h, big_t, 30)
                got = correction_integral(theta, HurstParam(h), big_t)
                rel = float(abs(got - ref) / ref)
                if rel >= worst:
                    worst, worst_case = rel, (theta, h, big_t)
    print(f"{count} cases, worst relative error {worst:.2e} at (theta, H, T) = {worst_case}")


CASES = [
    (1.0, 0.75, 2.0),
    (1.0, 0.6, 2.0),
    (1.0, 0.6, 200.0),
]

if __name__ == "__main__" and "--sweep" in sys.argv[1:]:
    sweep()
elif __name__ == "__main__":
    for theta, h, big_t in CASES:
        coarse = bruteforce(theta, h, big_t, 200, 16, 256, 32)
        fine = bruteforce(theta, h, big_t, 400, 24, 512, 64)
        print(f"I(theta={theta}, H={h}, T={big_t}):")
        print(f"  coarse = {coarse:.12f}")
        print(f"  fine   = {fine:.12f}   (|diff| = {abs(fine - coarse):.3e})")
        print(f"  mpmath = {mp.nstr(mpmath_reference(theta, h, big_t, 30), 17)}")
        alpha = h * (2.0 * h - 1.0)
        scaled = alpha * fine / big_t
        limit = h * gamma_fn(2.0 * h) * theta ** (1.0 - 2.0 * h)
        print(f"  alpha_H*I/T = {scaled:.9f}  vs  H*Gamma(2H)*theta^(1-2H) = {limit:.9f}")
    for theta, h, big_t in MPMATH_CASES:
        digits30 = mpmath_reference(theta, h, big_t, 30)
        digits45 = mpmath_reference(theta, h, big_t, 45)
        rel = abs(digits30 - digits45) / digits45
        print(f"I(theta={theta}, H={h}, T={big_t}) by mpmath:")
        print(f"  30 digits = {mp.nstr(digits30, 17)}   (rel diff to 45 digits {mp.nstr(rel, 3)})")
