"""Time and minor page faults per simulated path, alone and in a table loop.

For each N in 1250, 2500, 5000 and 20000 (d = 0.01, H = 0.65, theta = 1)
a fresh interpreter simulates paths two ways:

* one-off: ``paths.euler_msfou`` called on its own, path after path, as
  ``msfou simulate``, the demos and a likelihood run call it;
* in a table loop: ``run_table_experiment`` of the practical estimator,
  with ``harness.euler_msfou`` wrapped so that each replication's path is
  measured alone and the estimator is left out.

Each path is timed with ``time.perf_counter`` and its minor faults read
from ``getrusage(RUSAGE_SELF).ru_minflt`` of the process before and after
the call. The first path of each kind is left out: it fills the spectrum
and filter caches, and in a loop it allocates the loop's buffers. The
script prints the median time and the mean faults per path. Faults count
pages that the process touched afresh: memory the allocator returned to
the system and took back for the next path shows up here.

To size a change against its parent commit, run it on a copy of the
parent (``git archive``) as well:

    python tests/oracles/path_cost.py [--paths P] [--against DIR]

DIR is the root of the second tree; its ``src`` is imported for its rows.
Runs alternate between the trees, each first in turn. The default 200
paths per case take about 15 s per tree on two cores; the script is not
part of the test suite.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SIZES = (1250, 2500, 5000, 20000)
D, H, THETA = 0.01, 0.65, 1.0


def _measure(fn, samples: list) -> None:
    """Call fn(); append (seconds, minor faults) of the call to samples."""
    import resource
    import time

    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    fn()
    samples.append((time.perf_counter() - start,
                    resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))


def child(n: int, paths: int) -> dict:
    """{"one-off": [(s, faults), ...], "loop": [...]} for paths at N = n."""
    from msfou import ExperimentConfig, HurstParam, Method, harness
    from msfou import paths as paths_module

    h, out = HurstParam(H), {"one-off": [], "loop": []}
    for seed in range(paths + 1):
        _measure(lambda: paths_module.euler_msfou(THETA, h, D, n, seed), out["one-off"])

    simulate = harness.euler_msfou

    def measured(**kwargs):
        samples = []
        _measure(lambda: samples.append(simulate(**kwargs)), out["loop"])
        return samples[0]

    harness.euler_msfou = measured
    cfg = ExperimentConfig(theta_true=THETA, H=H, d=D, T=n * D, replications=paths + 1,
                           master_seed=1, estimator=Method.PRACTICAL)
    harness.run_table_experiment(cfg)
    return {kind: rows[1:] for kind, rows in out.items()}


def _run(tree: Path, n: int, paths: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, __file__, "--child", str(n), "--paths", str(paths)],
                         env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(paths: int, against: Path | None) -> None:
    trees = {"this": ROOT} if against is None else {"this": ROOT, "against": against}
    print(f"{'N':>6} {'tree':<8} {'one-off ms':>11} {'faults':>8} {'loop ms':>9} {'faults':>8}")
    for i, n in enumerate(SIZES):
        rows = {name: _run(tree, n, paths)
                for name, tree in list(trees.items())[:: 1 if i % 2 == 0 else -1]}
        for name in trees:
            cells = []
            for kind in ("one-off", "loop"):
                cells.append(statistics.median(t for t, _ in rows[name][kind]) * 1e3)
                cells.append(statistics.fmean(f for _, f in rows[name][kind]))
            print(f"{n:>6} {name:<8} {cells[0]:>11.3f} {cells[1]:>8.1f} "
                  f"{cells[2]:>9.3f} {cells[3]:>8.1f}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--paths", type=int, default=200, help="measured paths per case")
    parser.add_argument("--against", type=Path, help="root of a second tree, such as a parent copy")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(child(args.child, args.paths)))
    else:
        main(args.paths, args.against)
