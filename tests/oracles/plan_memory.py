"""Memory and time of the cached MLE grid plan on the README path.

For each estimation mesh m the script prints

* ``retained``: what a cold ``mle`` call leaves allocated (the cached plan);
* ``peak``: the cold call's peak allocation;
* ``build``: the peak of the plan's build alone, through the uncached
  function that ``functools.lru_cache`` keeps as
  ``mle._grid_plan.__wrapped__``;
* ``cold``: the median time of three cold calls, after a warm-up call.

Memory is traced with ``tracemalloc``, so it counts numpy's buffers and not
the interpreter's own. Run it on a tree and on a copy of its parent commit
to compare a change to the plan's build:

    PYTHONPATH=src python tests/oracles/plan_memory.py [m ...]

The default meshes are 128, 1024 (the README scale) and 4096; any m up to
N = 20000 may be given. The defaults take about 5 s on two cores; the
script is not part of the test suite.
"""

import importlib
import statistics
import sys
import time
import tracemalloc

from msfou import HurstParam, euler_msfou, mle

mle_module = importlib.import_module("msfou.mle")  # msfou.mle is also the function

MIB = 2**20


def _traced(fn) -> tuple[float, float]:
    """(retained, peak) MiB allocated while fn runs."""
    tracemalloc.start()
    try:
        fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / MIB, peak / MIB


def main(meshes: list[int]) -> None:
    h = HurstParam(0.65)
    x = euler_msfou(1.0, H=h, d=0.01, N=20000, seed=314)
    cold = mle_module._grid_plan.cache_clear
    print(f"{'m':>6} {'retained':>9} {'peak':>8} {'build':>8} {'cold':>7}")
    for m in meshes:
        cold()
        retained, peak = _traced(lambda: mle(x, h, m))
        cold()
        _, build = _traced(lambda: mle_module._grid_plan.__wrapped__(h.h, x.n, x.d, m))
        mle(x, h, m)  # warm-up
        times = []
        for _ in range(3):
            cold()
            start = time.perf_counter()
            mle(x, h, m)
            times.append(time.perf_counter() - start)
        print(
            f"{m:>6} {retained:>7.2f}Mi {peak:>6.2f}Mi {build:>6.2f}Mi "
            f"{statistics.median(times):>6.3f}s"
        )
    cold()


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [128, 1024, 4096])
