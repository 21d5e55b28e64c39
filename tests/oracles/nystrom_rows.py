"""Row sums of the unit Nystrom matrices against the kernel's exact integral.

Row i > 0 of either unit system (``numerics._unit_kernel_system``,
``numerics._graded_unit_system``) collocates the kernel equation at its
node sigma_i, and its weights integrate the unit kernel kappa(., sigma_i)
against shape functions that sum to 1. The row therefore sums to

    int_0^1 kappa(r, sigma) dr = H (2 sigma^rho + (1 - sigma)^rho - (1 + sigma)^rho),

rho = 2H - 1, up to rounding. The nodes are written out here as the
builders place them: sigma_j = j/m, and x^q / (x^q + (1 - x)^q) at
x = j/m on the graded mesh.
"""

import math

import numpy as np


def unit_nodes(system: str, hh: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_j, 1 - sigma_j) at the nodes j = 0..m of the "uniform" or "graded" system.

    On the uniform mesh 1 - sigma_j is (m - j)/m, as the right edge element
    takes it, so that sigma_m sits at 1 exactly whatever m * (1/m) rounds to.
    """
    if system == "uniform":
        j = np.arange(m + 1)
        return j * (1.0 / m), (m - j) * (1.0 / m)
    qexp = min(2.0 / (2.0 * hh - 1.0), -math.log(1e-13) / math.log(m))
    x = np.arange(m + 1) / m
    xa = x**qexp
    xb = (1.0 - x) ** qexp
    nodes = xa / (xa + xb)
    return nodes, 1.0 - nodes


def row_integral_defect(system: str, hh: float, weights: np.ndarray) -> float:
    """Largest |row sum - exact integral| over rows i > 0, over the largest integral."""
    sig, rest = unit_nodes(system, hh, len(weights) - 1)
    rho = 2.0 * hh - 1.0
    want = hh * (2.0 * sig**rho + rest**rho - (1.0 + sig) ** rho)[1:]
    return float(np.max(np.abs(weights[1:].sum(axis=1) - want)) / np.max(np.abs(want)))
