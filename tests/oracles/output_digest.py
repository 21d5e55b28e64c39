"""One sha256 per layer over the deterministic outputs of a fixed grid.

A change that must leave every output byte-identical runs this script on
its tree and on a copy of the parent commit (``git archive``), and the
two must print the same lines:

    PYTHONPATH=src python tests/oracles/output_digest.py > new.txt
    PYTHONPATH=/path/to/parent/src python tests/oracles/output_digest.py > old.txt
    diff old.txt new.txt

The path of the ``msfou`` that was imported goes to stderr, so ``diff``
prints nothing exactly when the outputs are byte-identical.

The script reads only the public API, so it runs against older trees too.
The grid covers H near 1/2 (where the layer exponent falls back to 1), odd
and even estimation meshes, and the README scale N = 20000, m = 1024. It
takes about 7 s on two cores; it is not part of the test suite.

Layers:

* ``noise``: ``sample_fgn`` values, every H on a few (n, seed, stream), so
  a change of the fGn synthesis shows apart from the paths built on it;
* ``paths``: ``euler_msfou`` values, every (H, theta, seed);
* ``estimators``: theta_hat, denominator and diagnostics of the practical,
  corrected LSE and nonergodic estimators on those paths;
* ``mle``: ``decompose`` Z, Q and <M>, and ``mle`` theta_hat, on every
  (H, N, m) and two seeds;
* ``numerics``: ``solve_g_kernel`` g, diagonal, <M> and residual on odd and
  even m;
* ``constants``: ``gamma_fn``, p and its inverse, the correction integral,
  ``sigma_H``, ``boundary_variance`` and ``phi_statistic`` on a small
  (theta, H, T) grid;
* ``cli``: the bytes of every file that ``msfou.cli.main`` writes for
  ``simulate``, ``estimate`` by each method on that path, and small
  ``mc-table``, ``mc-clt`` and ``mc-rate`` runs, so the command line's
  number formatting is compared too.

The README theta_hat is printed as well, to the last digit.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

import msfou
from msfou import (
    HurstParam,
    NoiseSpec,
    boundary_variance,
    correction_integral,
    decompose,
    euler_msfou,
    gamma_fn,
    invert_p,
    lse_skorohod,
    mle,
    nonergodic_estimator,
    phi_statistic,
    practical_estimator,
    sample_fgn,
    sigma_H,
    solve_g_kernel,
    stationary_second_moment,
)
from msfou.cli import main as cli_main

HURSTS = (0.5, 0.5002, 0.501, 0.55, 0.65, 0.9)
SEEDS = (11, 12)
# (n, seed, stream): the smallest lengths, where the spectrum is a few
# frequencies, and an even and an odd long one
NOISE_SPECS = ((2, 11, 0), (3, 12, 1), (1000, 11, 0), (10001, 12, 1))
# (N, d, m): README scale, even and odd meshes, and the smallest mesh
MLE_GRIDS = ((20000, 0.01, 1024), (5000, 0.01, 250), (5001, 0.01, 251), (999, 0.01, 33),
             (64, 0.05, 8))
KERNEL_MESHES = (8, 9, 64, 65, 256, 257)
THETAS = (0.05, 1.0, 7.5)
HORIZONS = (0.0, 0.5, 20.0, 400.0)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.items = 0

    def add(self, *values):
        for value in values:
            self.sha.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
        self.items += 1

    def add_result(self, result):
        self.add(result.theta_hat, result.denominator)
        self.sha.update(json.dumps(result.diagnostics, sort_keys=True).encode())


# (estimate method, its extra arguments)
CLI_METHODS = (("mle", ("--hurst", "0.65", "--mesh", "64")),
               ("lse", ("--hurst", "0.65", "--theta-ref", "1")),
               ("practical", ("--hurst", "0.65")),
               ("nonergodic", ()))
CLI_CONFIG = {"theta_true": 1.0, "H": 0.65, "d": 0.05, "T": 10.0, "replications": 16,
              "master_seed": 7}


def cli_digest() -> Digest:
    """Hash the files written by one small run of each CLI subcommand."""
    digest = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        def run(*argv):
            if cli_main(list(argv)) != 0:
                raise SystemExit(f"msfou {' '.join(argv)} failed")

        def config(**fields):
            path = os.path.join(tmp, f"{fields['estimator']}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**CLI_CONFIG, **fields}, fh)
            return path

        files = [os.path.join(tmp, "path.csv")]
        run("simulate", "--theta", "1", "--hurst", "0.65", "--d", "0.01", "--T", "20",
            "--seed", "314", "--out", files[0])
        for method, extra in CLI_METHODS:
            files.append(os.path.join(tmp, f"{method}.out.json"))
            run("estimate", "--method", method, *extra, "--in", files[0], "--out", files[-1])
        files.append(os.path.join(tmp, "table.csv"))
        run("mc-table", "--config", config(estimator="mle", mle_mesh=32), "--out", files[-1])
        files += [os.path.join(tmp, "clt.csv"), os.path.join(tmp, "clt.json")]
        run("mc-clt", "--config", config(estimator="practical", H=0.6), "--out", files[-2],
            "--stats", files[-1])
        files.append(os.path.join(tmp, "rate.csv"))
        run("mc-rate", "--config", config(estimator="lse"), "--T-grid", "5,10",
            "--out", files[-1])
        for path in files:
            with open(path, "rb") as fh:
                digest.sha.update(fh.read())
            digest.items += 1
    return digest


def main() -> None:
    fgn, paths, estimators, likelihood, kernel = Digest(), Digest(), Digest(), Digest(), Digest()
    constants = Digest()
    for hh in HURSTS:
        h = HurstParam(hh)
        for n, seed, stream in NOISE_SPECS:
            fgn.add(sample_fgn(NoiseSpec(n=n, seed=seed, stream=stream), h))
        for theta in THETAS:
            p = stationary_second_moment(theta, h)
            constants.add(gamma_fn(theta), gamma_fn(2.0 * hh), p, boundary_variance(theta))
            constants.add(invert_p(p, h), invert_p(theta, h))
            if hh > 0.5:
                constants.add([correction_integral(theta, h, big_t) for big_t in HORIZONS])
            if 0.5 < hh < 0.75:
                constants.add(sigma_H(theta, h), phi_statistic(1.1 * theta, theta, h, 400, 0.05))
        for theta in (1.0, -0.5):
            for seed in SEEDS:
                x = euler_msfou(theta=theta, H=h, d=0.05, N=400, seed=seed)
                paths.add(x.values)
                if theta > 0.0:
                    estimators.add_result(practical_estimator(x, h))
                    if hh > 0.5:
                        estimators.add_result(lse_skorohod(x, h, theta))
                else:
                    estimators.add_result(nonergodic_estimator(x))
        for n, d, m in MLE_GRIDS:
            for seed in SEEDS:
                x = euler_msfou(theta=1.0, H=h, d=d, N=n, seed=seed)
                dec = decompose(x, h, m)
                likelihood.add(dec.mesh, dec.Z, dec.Q, dec.bracket_M, mle(x, h, m).theta_hat)
        for m in KERNEL_MESHES:
            for t in (0.5, 20.0):
                sol = solve_g_kernel(t, h, m)
                kernel.add(sol.mesh, sol.g_values, sol.g_diag, sol.bracket_M, sol.residual)
    h = HurstParam(0.65)
    readme = mle(euler_msfou(theta=1.0, H=h, d=0.01, N=20000, seed=314), h, m=1024)
    cli = cli_digest()
    print(f"msfou from {msfou.__file__}", file=sys.stderr)
    for name, digest in (("noise", fgn), ("paths", paths), ("estimators", estimators),
                         ("mle", likelihood), ("numerics", kernel), ("constants", constants),
                         ("cli", cli)):
        print(f"{name:<10} {digest.sha.hexdigest()}  ({digest.items} items)")
    print(f"README theta_hat {readme.theta_hat!r}")


if __name__ == "__main__":
    main()
