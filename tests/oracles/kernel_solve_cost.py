"""Krylov basis sizes, accuracy and time of the kernel's shifted solves.

For each unit system (``uniform``, ``graded``), each H and each unit mesh
the script solves the README's 1024 shifts, c = t^(2H-1) at t = k T / 1024
(T = N d = 200, k = 1..1024), with ``numerics._batch_scaled_solve`` and
prints

* ``basis``: the Krylov basis sizes of its two solves, in the order
  they run (right-hand sides: the anchor e, then 1);
* ``residual``: the residual it reports against the original systems;
* ``vs LU``: the largest difference from a dense LU solve of every 64th
  shift (``np.linalg.solve`` per shift);
* ``solve``: the median wall time of three solves, the system's
  assembly not included.

It is the figure to read before choosing a finer unit mesh than 256:

    PYTHONPATH=src python tests/oracles/kernel_solve_cost.py [unit ...]

The default units are 256, 1024 and 2048; they take about 2 minutes on
two cores, most of it the dense reference solves and the assembly of the
unit-2048 systems. The script is not part of the test suite.
"""

import statistics
import sys
import time

import numpy as np

from msfou import numerics

HURSTS = (0.5002, 0.501, 0.65, 0.85, 0.99)
SYSTEMS = (("uniform", numerics._unit_kernel_system), ("graded", numerics._graded_unit_system))
ENDS = np.arange(1, 1025) * (200.0 / 1024)


def _basis_sizes(weights, anchor, cs) -> list[int]:
    """Sizes of the Krylov bases that one batch solve ends with, one per right-hand side."""
    sizes = []
    project = numerics._projected_solve

    def record(hess, beta, cs):
        if len(hess) <= numerics._KRYLOV_CHECK_EVERY:  # a new basis starts
            sizes.append(0)
        sizes[-1] = len(hess)
        return project(hess, beta, cs)

    numerics._projected_solve = record
    try:
        numerics._batch_scaled_solve(weights, anchor, cs)
    finally:
        numerics._projected_solve = project
    return sizes


def main(units: list[int]) -> None:
    print(f"{'system':<8} {'H':>6} {'unit':>5} {'basis':>8} {'residual':>9} {'vs LU':>8} "
          f"{'solve':>7}")
    for name, system in SYSTEMS:
        for hh in HURSTS:
            cs = ENDS ** (2.0 * hh - 1.0)
            for unit in units:
                weights, anchor = system(hh, unit)
                times = []
                for _ in range(3):
                    start = time.perf_counter()
                    sols, residual = numerics._batch_scaled_solve(weights, anchor, cs)
                    times.append(time.perf_counter() - start)
                eye = np.eye(unit)
                picks = range(0, cs.size, 64)
                dense = np.array([np.linalg.solve(eye + cs[i] * weights, 1.0 - cs[i] * anchor)
                                  for i in picks])
                gap = float(np.max(np.abs(sols[list(picks)] - dense)))
                sizes = "/".join(str(k) for k in _basis_sizes(weights, anchor, cs))
                print(f"{name:<8} {hh:>6} {unit:>5} {sizes:>8} {residual:>9.1e} {gap:>8.1e} "
                      f"{statistics.median(times):>6.3f}s", flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [256, 1024, 2048])
