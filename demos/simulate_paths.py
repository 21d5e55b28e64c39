"""Simulate mixed sub-fractional OU paths across the three drift regimes.

Walks through the simulation stack bottom-up: raw fractional Gaussian
noise, a sub-fractional Brownian motion assembled from a two-sided fBm,
and finally Euler paths of the mixed OU process for ergodic (theta > 0),
driftless and non-ergodic (theta < 0) parameter choices. Prints summary
numbers and a CSV excerpt; no files are written.

Run:  python3 demos/simulate_paths.py
"""

import io

import numpy as np

from msfou import (
    HurstParam,
    NoiseSpec,
    euler_msfou,
    sample_fgn,
    sfbm_covariance,
    sfbm_path,
    two_sided_fbm,
    write_path_csv,
)


def main() -> None:
    h = HurstParam(0.65)

    # -----------------------------------------------------------------------
    # fractional Gaussian noise
    # -----------------------------------------------------------------------
    print("== fractional Gaussian noise ==")
    spec = NoiseSpec(n=4096, seed=2024)
    y = sample_fgn(spec, h)
    lag1 = float(np.mean(y[:-1] * y[1:]))
    print(f"H = {h.h}, n = {y.size}, regime = {h.regime.name}")
    print(f"sample variance {float(np.var(y)):.4f} (target 1.0000)")
    print(f"sample lag-1 autocovariance {lag1:.4f} "
          f"(target {2.0 ** (2 * h.h - 1) - 1:.4f})")

    # -----------------------------------------------------------------------
    # sub-fractional Brownian motion
    # -----------------------------------------------------------------------
    print()
    print("== sub-fractional Brownian motion ==")
    d = 0.25
    s = sfbm_path(two_sided_fbm(sample_fgn(NoiseSpec(n=64, seed=7), h), d=d, H=h))
    print(f"grid step {s.d}, horizon {s.span}, S(T) = {s.values[-1]:+.4f}")
    print(f"closed-form Var S(1) = {sfbm_covariance(1.0, 1.0, h):.4f}, "
          f"Var S(2) = {sfbm_covariance(2.0, 2.0, h):.4f}")

    # -----------------------------------------------------------------------
    # mixed OU paths, three regimes
    # -----------------------------------------------------------------------
    print()
    print("== mixed sub-fractional OU process ==")
    for theta, label in ((1.0, "ergodic"), (0.0, "driftless"), (-0.5, "explosive")):
        x = euler_msfou(theta=theta, H=h, d=0.01, N=1000, seed=99)
        v = x.full_values()
        print(f"theta = {theta:+.1f} ({label:9s}): "
              f"max |X| = {float(np.max(np.abs(v))):8.3f}, "
              f"X(T) = {v[-1]:+8.3f}")

    # -----------------------------------------------------------------------
    # CSV round trip (the CLI speaks the same format)
    # -----------------------------------------------------------------------
    print()
    print("== path CSV excerpt ==")
    x = euler_msfou(theta=1.0, H=h, d=0.5, N=4, seed=5)
    buf = io.StringIO()
    write_path_csv(x, buf)
    for line in buf.getvalue().splitlines():
        print(f"  {line}")


if __name__ == "__main__":
    main()
