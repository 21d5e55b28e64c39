"""Start-up cost of short msfou processes: wall time, peak RSS, scipy loaded.

Each case runs in a fresh interpreter:

* ``import msfou`` and ``import msfou.cli``;
* ``msfou simulate`` of one path at N = 5000 (d = 0.01, T = 50);
* ``msfou mc-table`` of the practical estimator, 200 replications at
  N = 5000, one worker;
* ``msfou mc-rate`` of the corrected least-squares estimator, 300
  replications at each of T = 125, 250 and 500 (d = 0.1), two workers,
  as the benchmark's ``cli_mc_rate`` runs it: the one case that evaluates
  correction integrals.

For each case and tree the script prints the median wall time of the
process (interpreter start and exit included), the median peak resident
set size (``VmHWM``, which the process reads from ``/proc/self/status`` as
it ends, so Linux only) and the scipy subpackages the process had loaded.
Runs alternate between the trees, case by case and each tree first in
turn, so a drift of the machine falls on both alike. To size a change
against its parent commit, run it on a copy of the parent (``git
archive``) as well:

    python tests/oracles/startup_cost.py [--runs R] [--against DIR]

DIR is the root of the second tree; its ``src`` is imported for its rows.
The default 9 runs take about 35 s per tree on two cores; the script is
not part of the test suite.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

CONFIG = {"theta_true": 1.0, "H": 0.65, "d": 0.01, "T": 50.0, "replications": 200,
          "master_seed": 1, "estimator": "practical"}
LSE_CONFIG = {"theta_true": 1.0, "H": 0.6, "d": 0.1, "T": 125.0, "replications": 300,
              "master_seed": 1, "estimator": "lse"}

# "<case>": the code a fresh process runs, with {out}, {config} and
# {lse_config} filled in
CASES = {
    "import msfou": "import msfou",
    "import msfou.cli": "import msfou.cli",
    "msfou simulate": (
        "from msfou.cli import main; main(['simulate', '--theta', '1', '--hurst', '0.65', "
        "'--d', '0.01', '--T', '50', '--seed', '1', '--out', {out!r}])"
    ),
    "msfou mc-table": "from msfou.cli import main; main(['mc-table', '--config', {config!r}, "
                      "'--out', {out!r}])",
    "msfou mc-rate lse": (
        "from msfou.cli import main; main(['mc-rate', '--config', {lse_config!r}, "
        "'--T-grid', '125,250,500', '--workers', '2', '--out', {out!r}])"
    ),
}

# appended to each case: prints [VmHWM in KiB, the scipy subpackages loaded]
REPORT = """
import json, sys
with open("/proc/self/status") as fh:
    hwm = int(fh.read().split("VmHWM:")[1].split()[0])
loaded = {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
print(json.dumps([hwm, sorted(name for name in loaded if not name.startswith("_"))]))
"""


def _run(tree: Path, code: str) -> tuple[float, float, list[str]]:
    """(wall s, peak RSS MiB, scipy subpackages) of one process running code on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code + REPORT], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    wall = time.perf_counter() - start
    hwm, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    return wall, hwm / 1024, loaded


def main(runs: int, against: Path | None) -> None:
    trees = {"this": ROOT} if against is None else {"this": ROOT, "against": against}
    with tempfile.TemporaryDirectory() as tmp:
        config, lse_config = Path(tmp) / "config.json", Path(tmp) / "lse.json"
        config.write_text(json.dumps(CONFIG), encoding="utf-8")
        lse_config.write_text(json.dumps(LSE_CONFIG), encoding="utf-8")
        codes = {case: body.format(out=str(Path(tmp) / "out.csv"), config=str(config),
                                   lse_config=str(lse_config))
                 for case, body in CASES.items()}
        samples = {(case, name): [] for case in CASES for name in trees}
        for i in range(runs):
            for case, code in codes.items():
                for name, tree in list(trees.items())[:: 1 if i % 2 == 0 else -1]:
                    samples[case, name].append(_run(tree, code))
    print(f"{'case':<18} {'tree':<8} {'wall':>7} {'peak RSS':>10}  scipy loaded")
    for (case, name), rows in samples.items():
        wall = statistics.median(row[0] for row in rows)
        peak = statistics.median(row[1] for row in rows)
        loaded = ",".join(rows[-1][2]) or "-"
        print(f"{case:<18} {name:<8} {wall:>6.3f}s {peak:>7.2f}MiB  {loaded}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="processes per case and tree")
    parser.add_argument("--against", type=Path, help="root of a second tree, such as a parent copy")
    args = parser.parse_args()
    main(args.runs, args.against)
