"""Memory and time of the cached MLE grid plan and of one kernel solve.

For each estimation mesh m the script prints, on the README path:

* ``retained``: what a cold ``mle`` call leaves allocated (the cached plan);
* ``peak``: the cold call's peak allocation;
* ``build``: the peak of the plan's build alone, through the uncached
  function that ``functools.lru_cache`` keeps as
  ``mle._grid_plan.__wrapped__``;
* ``cold``: the median time of three cold calls, after a warm-up call;
* the build's peak within each of its phases: the assembly of the two
  unit systems (``_unit_kernel_system``, ``_graded_unit_system``), their
  shifted solves (``_batch_scaled_solve``), the interpolant
  (``_unit_interpolant``) and the grid-sum operators (``grid_sums`` and
  ``window``). A phase's peak counts what was allocated when it began, so
  a memory change shows in the phase whose temporaries it saves.

Then, for each unit given to ``--units`` (1024 and 2048 unless asked for
others), ``solve_g_kernel(1, HurstParam(0.65), unit)``: the time of one
untraced call, its traced peak and the peaks of its two phases (assembly
and solves). Unit 4096 takes about 3 s and a few hundred MiB.

Memory is traced with ``tracemalloc``, so it counts numpy's buffers and not
the interpreter's own. Run it on a tree and on a copy of its parent commit
to compare a change to the kernel's or the plan's build:

    PYTHONPATH=src python tests/oracles/plan_memory.py [m ...] [--units unit ...]

The default meshes are 128, 1024 (the README scale) and 4096; any m up to
N = 20000 may be given. The defaults take about 8 s on two cores; the
script is not part of the test suite.
"""

import argparse
import importlib
import statistics
import time
import tracemalloc

from msfou import HurstParam, euler_msfou, mle, solve_g_kernel

mle_module = importlib.import_module("msfou.mle")  # msfou.mle is also the function
numerics = importlib.import_module("msfou.numerics")

MIB = 2**20

# phase: the functions whose calls make it up
PHASES = {
    "assembly": ((numerics, "_unit_kernel_system"), (numerics, "_graded_unit_system")),
    "solves": ((numerics, "_batch_scaled_solve"),),
    "interpolant": ((numerics, "_unit_interpolant"),),
    "operators": ((numerics._UnitInterpolant, "grid_sums"), (numerics._UnitInterpolant, "window")),
}


def _traced(fn) -> tuple[float, float]:
    """(retained, peak) MiB allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / MIB, peak / MIB


def _phase_peaks(fn) -> tuple[float, dict[str, float]]:
    """(peak, {phase: peak within its calls}) MiB allocated while fn runs.

    Each phase function is wrapped for the call; a call made from within
    another phase's call counts to the outer phase.
    """
    peaks = dict.fromkeys(PHASES, 0.0)
    overall = 0
    inside = []

    def wrap(phase, real):
        def traced(*args, **kwargs):
            nonlocal overall
            if inside:
                return real(*args, **kwargs)
            overall = max(overall, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            inside.append(phase)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
                peak = tracemalloc.get_traced_memory()[1]
                peaks[phase] = max(peaks[phase], peak / MIB)
                overall = max(overall, peak)

        return traced

    saved = [
        (owner, name, getattr(owner, name)) for calls in PHASES.values() for owner, name in calls
    ]
    tracemalloc.start()
    try:
        for phase, calls in PHASES.items():
            for owner, name in calls:
                setattr(owner, name, wrap(phase, getattr(owner, name)))
        fn()
        overall = max(overall, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        for owner, name, real in saved:
            setattr(owner, name, real)
    return overall / MIB, peaks


def _phases_line(peaks: dict[str, float]) -> str:
    return "  ".join(f"{phase} {peak:.2f}Mi" for phase, peak in peaks.items() if peak)


def plans(meshes: list[int]) -> None:
    h = HurstParam(0.65)
    x = euler_msfou(1.0, H=h, d=0.01, N=20000, seed=314)
    cold = mle_module._grid_plan.cache_clear
    print(f"{'m':>6} {'retained':>9} {'peak':>8} {'build':>8} {'cold':>7}   build phases")
    for m in meshes:
        cold()
        retained, peak = _traced(lambda: mle(x, h, m))
        cold()
        build, phases = _phase_peaks(lambda: mle_module._grid_plan.__wrapped__(h.h, x.n, x.d, m))
        mle(x, h, m)  # warm-up
        times = []
        for _ in range(3):
            cold()
            start = time.perf_counter()
            mle(x, h, m)
            times.append(time.perf_counter() - start)
        print(
            f"{m:>6} {retained:>7.2f}Mi {peak:>6.2f}Mi {build:>6.2f}Mi "
            f"{statistics.median(times):>6.3f}s   {_phases_line(phases)}"
        )
    cold()


def kernels(units: list[int]) -> None:
    h = HurstParam(0.65)
    print(f"\n{'unit':>6} {'time':>7} {'peak':>9}   solve_g_kernel(1, H(0.65), unit) phases")
    for unit in units:
        peak, phases = _phase_peaks(lambda: solve_g_kernel(1.0, h, unit))
        start = time.perf_counter()
        solve_g_kernel(1.0, h, unit)
        elapsed = time.perf_counter() - start
        print(f"{unit:>6} {elapsed:>6.3f}s {peak:>7.2f}Mi   {_phases_line(phases)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("meshes", nargs="*", type=int, default=[128, 1024, 4096])
    parser.add_argument("--units", nargs="*", type=int, default=[1024, 2048])
    args = parser.parse_args()
    plans(args.meshes)
    kernels(args.units)
