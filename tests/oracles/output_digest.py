"""One sha256 per layer over the deterministic outputs of a fixed grid.

A change that must leave every output byte-identical runs this script on
its tree and on a copy of the parent commit (``git archive``), and the
two must print the same lines:

    PYTHONPATH=src python tests/oracles/output_digest.py > new.txt
    PYTHONPATH=/path/to/parent/src python tests/oracles/output_digest.py > old.txt
    diff old.txt new.txt

The path of the ``msfou`` that was imported goes to stderr, so ``diff``
prints nothing exactly when the outputs are byte-identical.

A change that moves outputs by rounding states by how much from one run
on each tree: ``--save FILE`` writes every layer's arrays to an ``.npz``,
and ``--against FILE`` prints, per layer, the largest relative difference
from the saved arrays:

    PYTHONPATH=/path/to/parent/src python tests/oracles/output_digest.py --save old.npz
    PYTHONPATH=src python tests/oracles/output_digest.py --against old.npz

An array's difference is max|new - old| / max|old| (0 where both are 0,
and NaNs in the same places count as equal); for the ``cli`` layer and the
estimators' diagnostics the arrays are the numbers read from the written
text. The command line prints numbers with %.15g, so a move of one ulp
can change the 15th digit of a written number and read as up to 5e-15
relative: a number written with at most 15 significant digits that moved
by at most one unit of its 15th digit is counted as print rounding, and
left out of the largest difference. A layer whose arrays changed in
number or shape says so instead. The ``solve_g_kernel`` residuals are
hashed with the ``numerics`` layer but compared apart: a solver's residual
is a rounding-level number whose relative move says nothing of the
outputs, so ``--against`` prints the largest residual on each tree.

The script reads only the public API, so it runs against older trees too.
The grid covers H near 1/2 (where the layer exponent falls back to 1), odd
and even estimation meshes, and the README scale N = 20000, m = 1024. It
takes about 7 s on two cores; it is not part of the test suite.

Layers:

* ``noise``: ``sample_fgn`` values, every H on a few (n, seed, stream), so
  a change of the fGn synthesis shows apart from the paths built on it,
  and ``fgn_autocovariance`` at scalar lags and an integer lag array;
* ``paths``: ``euler_msfou`` values, every (H, theta, seed), and
  ``sfbm_covariance`` at scalar times and on a broadcast time grid;
* ``estimators``: theta_hat, denominator and diagnostics of the practical,
  corrected LSE and nonergodic estimators on those paths;
* ``mle``: ``decompose`` Z, Q and <M>, and ``mle`` theta_hat, on every
  (H, N, m) and two seeds;
* ``numerics``: ``solve_g_kernel`` g, diagonal, <M> and residual on odd and
  even m (the residual hashed, not compared: see above);
* ``constants``: ``gamma_fn``, p and its inverse, the correction integral,
  ``sigma_H``, ``boundary_variance`` and ``phi_statistic`` on a small
  (theta, H, T) grid;
* ``cli``: the bytes of every file that ``msfou.cli.main`` writes for
  ``simulate``, ``estimate`` by each method on that path, and small
  ``mc-table``, ``mc-clt`` and ``mc-rate`` runs, so the command line's
  number formatting is compared too;
* ``surface``: each name of ``msfou.__all__``, in sorted order, with its
  kind and its ``inspect.signature`` (an enum's members, a constant's
  value), so a change that claims no API change can show it.

The README theta_hat is printed as well, to the last digit.
"""

import argparse
import enum
import hashlib
import inspect
import json
import math
import os
import re
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
    fgn_autocovariance,
    gamma_fn,
    invert_p,
    lse_skorohod,
    mle,
    nonergodic_estimator,
    phi_statistic,
    practical_estimator,
    sample_fgn,
    sfbm_covariance,
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
# lags and times of the covariance functions: scalars (an int, a float and
# zero), an integer lag array with negative lags, and a time grid whose
# column broadcasts against its row
LAGS = (0, 1, 2.5, np.arange(-3, 300))
TIMES = ((0.0, 1.0), (1, 2.5), (np.linspace(0.0, 5.0, 41)[:, None], np.linspace(0.0, 5.0, 41)))
HORIZONS = (0.0, 0.5, 20.0, 400.0)


# a number in written text, such as 0.65, -1e-05, 20000, nan or Infinity
NUMBER = re.compile(rb"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf|NaN|Infinity)\b)")


def _print_units(tokens: list) -> np.ndarray:
    """One unit of the 15th significant digit of each number written with at most 15, else 0."""
    units = np.zeros(len(tokens))
    for i, token in enumerate(tokens):
        mantissa = re.split(rb"[eE]", token.lstrip(b"+-"))[0].replace(b".", b"").lstrip(b"0")
        value = abs(float(token))
        if mantissa.isdigit() and len(mantissa) <= 15 and 0.0 < value < math.inf:
            units[i] = 10.0 ** (math.floor(math.log10(value)) - 14)
    return units


class Digest:
    """sha256 over a layer's outputs, and the arrays it hashed (for --save).

    units[i] holds, for an array read from text, the print unit of each of
    its numbers (``_print_units``); None for an array hashed as it is.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.items = 0
        self.arrays = []
        self.units = []
        self.residuals = []

    def add(self, *values):
        for value in values:
            arr = np.ascontiguousarray(value, dtype=np.float64)
            self.sha.update(arr.tobytes())
            self.arrays.append(arr)
            self.units.append(None)
        self.items += 1

    def add_residual(self, value: float):
        """Hash a solver residual like ``add``, but keep it out of the compared arrays."""
        self.sha.update(np.float64(value).tobytes())
        self.residuals.append(float(value))

    def add_text(self, text: bytes):
        self.sha.update(text)
        tokens = NUMBER.findall(text)
        self.arrays.append(np.array([float(m) for m in tokens]))
        self.units.append(_print_units(tokens))

    def add_result(self, result):
        self.add(result.theta_hat, result.denominator)
        self.add_text(json.dumps(result.diagnostics, sort_keys=True).encode())


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
                digest.add_text(fh.read())
            digest.items += 1
    return digest


def surface_digest() -> Digest:
    """Hash the public names of msfou, each with its kind and signature."""
    digest = Digest()
    for name in sorted(msfou.__all__):
        obj = getattr(msfou, name)
        if isinstance(obj, enum.EnumMeta):
            detail = [(member.name, member.value) for member in obj]
        elif callable(obj):
            detail = inspect.signature(obj)
        else:
            detail = repr(obj)
        kind = "class" if isinstance(obj, type) else type(obj).__name__
        digest.add_text(f"{name} {kind} {detail}\n".encode())
        digest.items += 1
    return digest


def largest_relative_difference(new: list, old: list, units: list) -> str:
    if len(new) != len(old) or any(a.shape != b.shape for a, b in zip(new, old)):
        return "arrays differ in number or shape"
    worst, rounded = 0.0, 0
    for a, b, unit in zip(new, old, units):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        if unit is not None:
            # a 1e-9 margin for the binary value of each decimal number read
            printing = ~same & (np.abs(a - b) <= unit * (1.0 + 1e-9))
            rounded += int(printing.sum())
            same |= printing
        if same.all():
            continue
        scale = np.max(np.abs(b[np.isfinite(b)]), initial=0.0)
        diff = np.max(np.abs(a[~same] - b[~same]))
        worst = max(worst, diff / scale if scale > 0.0 and np.isfinite(diff) else np.inf)
    note = f" ({rounded} written numbers moved by print rounding)" if rounded else ""
    return f"{worst:.3g}{note}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="FILE", help="write every layer's arrays to an .npz")
    parser.add_argument("--against", metavar="FILE",
                        help="print each layer's largest relative difference from a --save file")
    args = parser.parse_args()

    fgn, paths, estimators, likelihood, kernel = Digest(), Digest(), Digest(), Digest(), Digest()
    constants = Digest()
    for hh in HURSTS:
        h = HurstParam(hh)
        for n, seed, stream in NOISE_SPECS:
            fgn.add(sample_fgn(NoiseSpec(n=n, seed=seed, stream=stream), h))
        fgn.add(*(fgn_autocovariance(k, h) for k in LAGS))
        paths.add(*(sfbm_covariance(s, t, h) for s, t in TIMES))
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
                kernel.add(sol.mesh, sol.g_values, sol.g_diag, sol.bracket_M)
                kernel.add_residual(sol.residual)
    h = HurstParam(0.65)
    readme = mle(euler_msfou(theta=1.0, H=h, d=0.01, N=20000, seed=314), h, m=1024)
    cli, surface = cli_digest(), surface_digest()
    print(f"msfou from {msfou.__file__}", file=sys.stderr)
    layers = {"noise": fgn, "paths": paths, "estimators": estimators, "mle": likelihood,
              "numerics": kernel, "constants": constants, "cli": cli, "surface": surface}
    for name, digest in layers.items():
        print(f"{name:<10} {digest.sha.hexdigest()}  ({digest.items} items)")
    print(f"README theta_hat {readme.theta_hat!r}")
    arrays = {name: digest.arrays for name, digest in layers.items()}
    arrays["README"] = [np.array(readme.theta_hat)]
    units = {name: digest.units for name, digest in layers.items()}
    units["README"] = [None]
    if args.save:
        np.savez(args.save, residuals=np.array(kernel.residuals),
                 **{f"{name}_{i:05d}": arr
                    for name, layer in arrays.items() for i, arr in enumerate(layer)})
    if args.against:
        with np.load(args.against) as saved:
            for name, layer in arrays.items():
                old = [saved[key] for key in sorted(saved.files) if key.rsplit("_", 1)[0] == name]
                print(f"{name:<10} largest relative difference "
                      f"{largest_relative_difference(layer, old, units[name])}")
            print(f"numerics   largest solve_g_kernel residual {max(saved['residuals']):.3g}"
                  f" -> {max(kernel.residuals):.3g}")


if __name__ == "__main__":
    main()
