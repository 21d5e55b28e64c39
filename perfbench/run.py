"""Benchmark of msfou: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (inputs are derived from --seed; the package is a black box that
is imported from ``src/`` and called through its public modules):

* ``mc_practical``: Monte Carlo tables of the practical (moment) estimator,
  theta=1, H=0.65, d=0.01, T=50 (N=5000), MC_REPS replications per table,
  one worker. Time goes to noise (circulant fGn) and paths; numerics only
  inverts p.
* ``mle_readme``: the README path (N=20000, seed 314) and mle at m=1024
  with cold caches, then mle on further paths on the same grid, warm.
  Dominated by the kernel solves (cold) and mle.decompose (warm).
* ``cli_mc_rate``: ``python -m msfou.cli mc-rate --workers 2``, LSE at
  theta=1, H=0.6, d=0.1, T in 125,250,500. The only workload through the
  CLI and the process pool, in a short-lived process.

Every workload runs in fresh interpreters (children, see child.py). One
unit of work is one such session, and each end-to-end metric means the
same for every workload, so all three report all of them:

* ``setup_s``: spawn of a fresh interpreter until ``import msfou`` returns.
* ``session_s``: one session, spawn to exit. mc_practical: four tables
  (the first cold, the last repeating the first seed); mle_readme: the
  README path, a cold mle and MLE_WARM_PATHS warm ones; cli_mc_rate: one
  CLI run.
* ``reps_per_s``: paths simulated and estimated per second, per table,
  per warm mle call, or per CLI run.
* ``peak_rss_mb``: peak RSS of the session's process.

The workload's own figures (mc_reps_per_s, mc_cold_table_s, mle_cold_s,
mle_warm_s, cli_wall_s, fail_frac) are printed and kept in the report.
Sessions are spread over the run, whose speed drifts with the machine.

With ``--trace 0`` the run repeats sessions for --seconds and prints the
end-to-end metrics as medians with their sample counts. With ``--trace 1``
it runs one session untraced and one traced (spans in memory, written out
at the end; the difference is the tracing overhead), then the per-layer
probes, and prints the per-layer metrics. Outputs are checked in both modes; every
failed check, failed replication and nonzero exit counts in ``failed``.

Library threading is left at its defaults: no thread-count variable is set.
Results, spans and child logs go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
from tracing import LAYERS, self_times  # noqa: E402

clock = time.perf_counter

CHILD_TIMEOUT_S = 150.0
IMPORTTIME_RUNS = 3
MIN_UNITS = 2

MC = {"theta": 1.0, "H": 0.65, "d": 0.01, "T": 50.0}
MC_REPS = 500
# Mean of the practical estimator over 20000 replications at the MC config
# (master seed 20181906), with its standard error.
MC_REFERENCE_MEAN = 1.0700874541900272
MC_REFERENCE_SE = 0.21269429963798098 / math.sqrt(20000)

README = {"theta": 1.0, "H": 0.65, "d": 0.01, "N": 20000, "readme_seed": 314, "mesh": 1024}
MLE_README_THETA = 0.9925235842650837
MLE_WARM_PATHS = 4

RATE = {"theta": 1.0, "H": 0.6, "d": 0.1, "T": 125.0, "reps": 300,
        "t_grid": [125.0, 250.0, 500.0], "workers": 2}

# per-layer probes (same in every workload's traced run)
PROBE_N = 5000
PROBE_REPEAT = 40
PROBE_TABLE_REPS = 200
KERNEL_MESHES = (128, 256, 512)
KERNEL_T = 200.0
MSFOU_MODULES = ("msfou", "msfou.noise", "msfou.paths", "msfou.numerics",
                 "msfou.estimators", "msfou.mle", "msfou.harness", "msfou.cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def derive_seed(seed: int, *tags) -> int:
    """Deterministic 63-bit seed for one generated input of a run."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Run:
    """Samples, checks and failure counts of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.checks: list[dict] = []
        self.tables: list[dict] = []  # distinct mc_practical SummaryStats
        self.reps = 0
        self.failed_reps = 0
        self.launches = 0
        self.bad_exits = 0
        self.stem = f"{workload}_seed{seed}"
        self.log = RESULTS / f"{self.stem}.log"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr, flush=True)
        return bool(ok)

    def launch(self, cmd: list[str], ready_line: bool) -> tuple[float, list[str], int, float]:
        """Run cmd to completion: (wall s, stdout lines, exit code, peak RSS MiB).

        With ready_line, spawn until the first stdout line is one set-up
        sample. Stderr goes to the run's log.
        """
        self.launches += 1
        with open(self.log, "a", encoding="utf-8") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                    env=self.env, text=True, start_new_session=True)
            # a hung child is killed with its own children (the CLI's pool)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                first = proc.stdout.readline()
                if ready_line and first == "ready\n":
                    self.samples["setup_s"].append(clock() - t0)
                rest = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = clock() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
        rc = proc.returncode
        if rc != 0:
            self.bad_exits += 1
            print(f"FAILED: {' '.join(cmd[:3])} exited with {rc}; see {self.log}",
                  file=sys.stderr, flush=True)
        return wall, (first + rest).splitlines(), rc, usage.ru_maxrss / 1024.0

    def child(self, job: str, args: dict) -> dict | None:
        wall, lines, rc, _ = self.launch(
            [sys.executable, str(CHILD), job, json.dumps(args)], ready_line=True
        )
        if rc != 0 or not lines:
            return None
        out = json.loads(lines[-1])
        out["wall_s"] = wall
        return out


# ---------------------------------------------------------------------------
# workload units: one fresh process each, outputs checked
# ---------------------------------------------------------------------------


def mc_unit(run: Run, unit: int, spans: str | None = None) -> float | None:
    """Four tables in one process: seeds s0, s1, s2 and s0 again."""
    s0, s1, s2 = (derive_seed(run.seed, "mc", unit, k) for k in range(3))
    res = run.child("mc", dict(MC, reps=MC_REPS, seeds=[s0, s1, s2, s0], spans=spans))
    if res is None:
        return None
    walls, stats = res["walls"], res["stats"]
    run.reps += MC_REPS * len(stats)
    failed = sum(st["n_failed"] for st in stats)
    run.failed_reps += failed
    run.check("mc_practical: n_failed == 0", failed == 0, f"{failed} failed replications")
    run.check("mc_practical: same seed gives identical SummaryStats", stats[0] == stats[-1],
              f"{stats[0]} != {stats[-1]}")
    run.tables += stats[:-1]
    run.samples["session_s"].append(res["wall_s"])
    run.samples["mc_cold_table_s"].append(walls[0])
    run.samples["reps_per_s"] += [MC_REPS / w for w in walls]
    run.samples["mc_reps_per_s"] = run.samples["reps_per_s"]
    run.samples["peak_rss_mb"].append(res["rss_mb"])
    return res["wall_s"]


def mle_unit(run: Run, unit: int, spans: str | None = None) -> float | None:
    warm = [derive_seed(run.seed, "mle", unit, k) for k in range(MLE_WARM_PATHS)]
    res = run.child("mle", dict(README, warm_seeds=warm, spans=spans))
    if res is None:
        return None
    walls, thetas = res["walls"], res["thetas"]
    run.reps += len(walls)
    rel = abs(thetas[0] - MLE_README_THETA) / abs(MLE_README_THETA)
    run.check("mle_readme: README theta_hat within 1e-6 relative", rel <= 1e-6,
              f"theta_hat {thetas[0]!r}, reference {MLE_README_THETA!r}, rel {rel:.3e}")
    run.check("mle_readme: warm theta_hat finite", all(map(math.isfinite, thetas[1:])),
              repr(thetas[1:]))
    run.samples["session_s"].append(res["wall_s"])
    run.samples["mle_cold_s"].append(walls[0])
    run.samples["mle_warm_s"] += walls[1:]
    run.samples["reps_per_s"] += [1.0 / w for w in walls[1:]]
    run.samples["peak_rss_mb"].append(res["rss_mb"])
    return res["wall_s"]


def _rate_files(run: Run, unit: int) -> tuple[Path, Path]:
    cfg = {"theta_true": RATE["theta"], "H": RATE["H"], "d": RATE["d"], "T": RATE["T"],
           "replications": RATE["reps"], "master_seed": derive_seed(run.seed, "cli", unit),
           "estimator": "lse"}
    path = RESULTS / f"{run.stem}_rate{unit}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, RESULTS / f"{run.stem}_rate{unit}.csv"


def _rate_argv(cfg: Path, out: Path, workers: int) -> list[str]:
    grid = ",".join(format(t, "g") for t in RATE["t_grid"])
    return ["mc-rate", "--config", str(cfg), "--T-grid", grid, "--out", str(out),
            "--workers", str(workers)]


def _check_rate_csv(run: Run, out: Path) -> None:
    try:
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
    except OSError as exc:
        run.check("cli_mc_rate: CSV written", False, str(exc))
        return
    run.reps += RATE["reps"] * len(rows)
    failed = sum(int(r.split(",")[2]) for r in rows)
    run.failed_reps += failed
    run.check("cli_mc_rate: three rows with n_failed 0", len(rows) == 3 and failed == 0,
              repr(rows))


def cli_unit(run: Run, unit: int, spans: str | None = None,
             compare_workers1: bool = False) -> float | None:
    cfg, out = _rate_files(run, unit)
    if spans:
        res = run.child("cli_traced",
                        {"argv": _rate_argv(cfg, out, RATE["workers"]), "spans": spans})
        ok = res is not None and res["rc"] == 0
        run.check("cli_mc_rate: exit code 0", ok)
        if ok:
            _check_rate_csv(run, out)
        return res["wall_s"] if ok else None
    wall, _, rc, rss = run.launch(
        [sys.executable, "-m", "msfou.cli"] + _rate_argv(cfg, out, RATE["workers"]),
        ready_line=False,
    )
    if not run.check("cli_mc_rate: exit code 0", rc == 0, f"exit code {rc}"):
        return None
    _check_rate_csv(run, out)
    if compare_workers1:
        ref = out.with_suffix(".workers1.csv")
        _, _, rc1, _ = run.launch(
            [sys.executable, "-m", "msfou.cli"] + _rate_argv(cfg, ref, 1), ready_line=False
        )
        same = rc1 == 0 and ref.read_bytes() == out.read_bytes()
        run.check("cli_mc_rate: CSV byte-identical to a workers=1 run", same)
    total = RATE["reps"] * len(RATE["t_grid"])
    run.samples["session_s"].append(wall)
    run.samples["cli_wall_s"].append(wall)
    run.samples["reps_per_s"].append(total / wall)
    run.samples["peak_rss_mb"].append(rss)
    return wall


def check_mc_reference(run: Run) -> None:
    """One check per run on the mean of all its distinct tables.

    Pooling keeps the false-alarm rate of a 4 SE test at one draw per run
    rather than one per table.
    """
    n = MC_REPS * len(run.tables)
    mean = statistics.fmean(st["mean"] for st in run.tables)
    var = statistics.fmean(st["sdev"] ** 2 for st in run.tables)
    z = (mean - MC_REFERENCE_MEAN) / math.hypot(math.sqrt(var / n), MC_REFERENCE_SE)
    run.check("mc_practical: mean within 4 SE of reference", abs(z) <= 4.0,
              f"mean {mean!r} over {n} replications, reference {MC_REFERENCE_MEAN!r}, "
              f"z = {z:.2f}")


UNITS = {"mc_practical": mc_unit, "mle_readme": mle_unit, "cli_mc_rate": cli_unit}


def measure(run: Run, seconds: float) -> None:
    """Untraced: units until the time is used.

    Each mc or mle unit is a fresh child whose import is a set-up sample;
    the CLI gives none, so a bare-import child precedes every other CLI unit.
    Samples are spread over the run because the machine's speed drifts.
    """
    start = clock()
    unit, last = 0, 0.0
    # stop when the next unit would end more than half a unit past the time
    while unit < MIN_UNITS or clock() - start + 0.5 * last < seconds:
        t0 = clock()
        if run.workload == "cli_mc_rate":
            if unit % 2 == 0:
                run.child("setup", {})
            cli_unit(run, unit, compare_workers1=unit == 0)
        else:
            UNITS[run.workload](run, unit)
        last = clock() - t0
        unit += 1


# ---------------------------------------------------------------------------
# traced run: one unit untraced and traced, then the per-layer probes
# ---------------------------------------------------------------------------


def _import_times(run: Run) -> None:
    per_module = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        run.launches += 1
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import msfou.cli"],
            cwd=ROOT, env=run.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            run.bad_exits += 1
            continue
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in MSFOU_MODULES:
                per_module[parts[2]].append(int(parts[1]) * 1e-6)
    for name in MSFOU_MODULES:
        if per_module[name]:
            run.values[f"{name}.import_s"] = statistics.median(per_module[name])


def traced(run: Run) -> None:
    unit_fn = UNITS[run.workload]
    spans_file = RESULTS / f"{run.stem}_spans.json"
    untraced_wall = unit_fn(run, 0)
    traced_wall = unit_fn(run, 0, spans=str(spans_file))
    if untraced_wall is not None and traced_wall is not None:
        run.values["trace.overhead_s"] = traced_wall - untraced_wall
        spans = json.loads(spans_file.read_text(encoding="utf-8"))
        layer_self = self_times(spans)
        for layer in LAYERS:
            run.values[f"trace.{layer}.self_s"] = layer_self.get(layer, 0.0)

    _import_times(run)
    seeds = [derive_seed(run.seed, "probe", k) for k in range(PROBE_REPEAT)]

    num = run.child("probe_numerics", {
        "rate_H": RATE["H"], "t_grid": RATE["t_grid"], "H": MC["H"],
        "repeat": PROBE_REPEAT * 5, "meshes": list(KERNEL_MESHES), "kernel_T": KERNEL_T,
    })
    if num is not None:
        run.values["numerics.correction_ms"] = num["correction_s"] * 1e3
        run.values["numerics.invert_p_us"] = num["invert_p_s"] * 1e6
        for m in KERNEL_MESHES:
            run.values[f"numerics.solve_g_kernel_s.m{m}"] = num["kernel_s"][str(m)]
        run.values["numerics.kernel_residual"] = num["residual"]
        run.check("numerics: kernel residual <= 1e-6", num["residual"] <= 1e-6,
                  f"residual {num['residual']:.3e}")

    mle = run.child("probe_mle", README)
    if mle is not None:
        run.values["numerics.kernel_fill_s"] = mle["cold_s"] - mle["warm_s"]
        run.values["numerics.kernel_solves"] = mle["solves"]
        run.values["numerics.kernel_flops"] = mle["flops"]
        run.values["mle.decompose_warm_s"] = mle["decompose_s"]

    lay = run.child("probe_layers", dict(MC, N=PROBE_N, repeat=PROBE_REPEAT, seeds=seeds,
                                         table_reps=PROBE_TABLE_REPS, rate=RATE))
    if lay is not None:
        run.values["noise.sample_fgn_ms"] = lay["sample_fgn_s"] * 1e3
        run.values["noise.autocov_ms"] = lay["autocov_s"] * 1e3
        run.values["noise.normals_per_path"] = lay["normals_per_path"]
        run.values["paths.euler_ms"] = lay["euler_s"] * 1e3
        run.values["paths.euler_self_ms"] = lay["euler_self_s"] * 1e3
        run.values["paths.fold_ms"] = lay["fold_s"] * 1e3
        run.values["numerics.correction_panels"] = lay["correction_panels"]
        run.values["numerics.invert_p_iters"] = lay["invert_p_iters"]
        run.values["estimators.practical_us"] = lay["practical_s"] * 1e6
        run.values["estimators.lse_cold_ms"] = lay["lse_cold_s"] * 1e3
        run.values["estimators.lse_warm_us"] = lay["lse_warm_s"] * 1e6
        run.values["harness.self_s"] = lay["harness_self_s"]
        run.values["harness.parallel_eff"] = lay["parallel_eff"]
        run.values["harness.failed_reps"] = lay["failed_reps"]
        run.reps += 3 * PROBE_TABLE_REPS
        run.failed_reps += lay["failed_reps"]
        run.check("harness: probe tables have no failed replications",
                  lay["failed_reps"] == 0, f"{lay['failed_reps']} failed")

    cli_wall = (untraced_wall if run.workload == "cli_mc_rate"
                else cli_unit(run, 1))
    if cli_wall is not None and lay is not None and run.samples["setup_s"]:
        run.values["cli.self_s"] = (
            cli_wall - statistics.median(run.samples["setup_s"]) - lay["rate_inproc_s"]
        )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "msfou").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "threading": "library defaults: the benchmark sets no thread-count variable",
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def summarize(run: Run, trace: bool) -> tuple[dict, dict, list[str]]:
    """(final metrics, every metric with sample counts, missing names)."""
    values = dict(run.values)
    counts = {name: 1 for name in values}
    for name, samples in run.samples.items():
        values[name] = statistics.median(samples)
        counts[name] = len(samples)
    final, missing = {}, []
    for m in metric_specs(trace):
        if m["name"] in values:
            final[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    detail = {name: {"value": values[name], "n": counts[name]} for name in sorted(values)}
    return final, detail, missing


# units of the workload-specific metrics kept beside the end-to-end ones
EXTRA_UNITS = {"mc_reps_per_s": "1/s", "mc_cold_table_s": "s", "mle_cold_s": "s",
               "mle_warm_s": "s", "cli_wall_s": "s", "fail_frac": "failed/attempted"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msfou" / "__init__.py").is_file():
        print(f"error: no msfou package under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed)
    trace = bool(args.trace)
    t0 = clock()
    if trace:
        traced(run)
    else:
        measure(run, args.seconds)
    if run.tables:
        check_mc_reference(run)
    wall = clock() - t0

    final, detail, missing = summarize(run, trace)
    failed_checks = sum(not c["ok"] for c in run.checks)
    attempted = run.reps + len(run.checks) + run.launches
    failed = run.failed_reps + failed_checks + run.bad_exits
    detail["fail_frac"] = {"value": failed / max(attempted, 1), "n": 1}
    report = {
        "workload": run.workload, "seed": run.seed, "trace": int(trace),
        "seconds": args.seconds, "wall_s": wall, "environment": environment(run.seed),
        "metrics": detail, "checks": run.checks, "attempted": attempted, "failed": failed,
        "samples": run.samples,
    }
    out = RESULTS / f"{run.stem}_trace{int(trace)}.json"
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {run.workload}  seed {run.seed}  trace {int(trace)}  wall {wall:.1f} s")
    units = dict(EXTRA_UNITS, **{m["name"]: m["unit"] for m in metric_specs(trace)})
    for name, d in detail.items():
        count = f"  (median of {d['n']})" if d["n"] > 1 else ""
        print(f"  {name:34s} {d['value']:<14.6g} {units.get(name, '')}{count}")
    print(f"  failed/attempted: {failed}/{attempted}; "
          f"checks: {len(run.checks) - failed_checks}/{len(run.checks)} passed; "
          f"report: {out.relative_to(ROOT)}")
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
