"""Krylov basis sizes, accuracy and time of the kernel's shifted solves.

For each unit system (``uniform``, ``graded``), each H and each unit mesh
the script solves the README's 1024 shifts, c = t^(2H-1) at t = k T / 1024
(T = N d = 200, k = 1..1024), with ``numerics._batch_scaled_solve`` and
prints

* ``basis``: the size of the one Krylov basis that its solve ends with;
* ``rows``: the row-integral defect of the system's matrix, the largest
  gap between a row's sum and the kernel's exact integral over [0, 1],
  relative to the largest integral (``nystrom_rows``);
* ``residual``: the residual it reports against the original systems;
* ``vs LU``: the largest difference from a dense LU solve of every 64th
  shift (``np.linalg.solve`` per shift);
* ``solve``: the median wall time of three solves, the system's
  assembly not included.

It is the figure to read before choosing a finer unit mesh than 256:

    PYTHONPATH=src python tests/oracles/kernel_solve_cost.py [unit ...]

A unit is the number of panels of the unit mesh, any whole number from 8
up, a power of two or not.
The default units are 256, 1024 and 2048; they take about 2 minutes on
two cores, most of it the dense reference solves and the assembly of the
unit-2048 systems. The script is not part of the test suite.
"""

import statistics
import sys
import time

import numpy as np

from msfou import numerics
from nystrom_rows import row_integral_defect

HURSTS = (0.5002, 0.501, 0.65, 0.85, 0.99)
SYSTEMS = (("uniform", numerics._unit_kernel_system), ("graded", numerics._graded_unit_system))
ENDS = np.arange(1, 1025) * (200.0 / 1024)


def _basis_size(weights, cs) -> int:
    """Size of the Krylov basis that one batch solve ends with."""
    sizes = []
    project = numerics._projected_solve

    def record(hess, beta, cs):
        sizes.append(len(hess))
        return project(hess, beta, cs)

    numerics._projected_solve = record
    try:
        numerics._batch_scaled_solve(weights, cs)
    finally:
        numerics._projected_solve = project
    return sizes[-1]


def main(units: list[int]) -> None:
    print(f"{'system':<8} {'H':>6} {'unit':>5} {'basis':>5} {'rows':>8} {'residual':>9} "
          f"{'vs LU':>8} {'solve':>7}")
    for name, system in SYSTEMS:
        for hh in HURSTS:
            cs = ENDS ** (2.0 * hh - 1.0)
            for unit in units:
                weights = system(hh, unit)
                times = []
                for _ in range(3):
                    start = time.perf_counter()
                    sols, residual = numerics._batch_scaled_solve(weights, cs)
                    times.append(time.perf_counter() - start)
                # the dense reference solves for the nodes j > 0, with G_0 = 1 known
                inner, known = weights[1:, 1:], weights[1:, 0]
                eye = np.eye(unit)
                picks = range(0, cs.size, 64)
                dense = np.array([np.linalg.solve(eye + cs[i] * inner, 1.0 - cs[i] * known)
                                  for i in picks])
                gap = float(np.max(np.abs(sols[list(picks), 1:] - dense)))
                gap = max(gap, float(np.max(np.abs(sols[:, 0] - 1.0))))
                rows = row_integral_defect(name, hh, weights)
                print(f"{name:<8} {hh:>6} {unit:>5} {_basis_size(weights, cs):>5} {rows:>8.1e} "
                      f"{residual:>9.1e} {gap:>8.1e} {statistics.median(times):>6.3f}s",
                      flush=True)


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [256, 1024, 2048])
