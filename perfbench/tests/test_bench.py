"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest perfbench/tests -q

They run real children against src/msfou, so each takes a few seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload and probe so a run takes seconds."""
    monkeypatch.setattr(bench, "IMPORTTIME_RUNS", 1)
    monkeypatch.setattr(bench, "MIN_UNITS", 1)
    monkeypatch.setattr(bench, "MC_REPS", 30)
    monkeypatch.setattr(bench, "MLE_WARM_PATHS", 1)
    monkeypatch.setattr(bench, "README", dict(bench.README, N=2000, mesh=32))
    monkeypatch.setattr(bench, "RATE", dict(bench.RATE, reps=12))
    monkeypatch.setattr(bench, "PROBE_N", 500)
    monkeypatch.setattr(bench, "PROBE_REPEAT", 3)
    monkeypatch.setattr(bench, "PROBE_TABLE_REPS", 10)
    # the README reference belongs to the full-size path
    readme_theta = _small_readme_theta()
    monkeypatch.setattr(bench, "MLE_README_THETA", readme_theta)


def _small_readme_theta() -> float:
    code = (
        "from msfou import HurstParam, euler_msfou, mle\n"
        "h = HurstParam(0.65)\n"
        "x = euler_msfou(theta=1.0, H=h, d=0.01, N=2000, seed=314)\n"
        "print(repr(mle(x, h, m=32).theta_hat))\n"
    )
    env = bench.Run("mle_readme", 0).env
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def _result(capsys, argv) -> tuple[int, dict | None, str]:
    rc = bench.main(argv)
    out = capsys.readouterr()
    lines = out.out.strip().splitlines()
    result = json.loads(lines[-1]) if rc == 0 else None
    return rc, result, out.err


def _argv(workload: str, seed: int, trace: int = 0) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.UNITS)


def test_workload_seed_reaches_the_inputs(small):
    bench.RESULTS.mkdir(parents=True, exist_ok=True)
    means, master_seeds = {}, {}
    for seed in (1, 2):
        run = bench.Run("mc_practical", seed)
        tables = [bench.derive_seed(seed, "mc", 0, k) for k in range(2)]
        res = run.child("mc", dict(bench.MC, reps=bench.MC_REPS, seeds=tables))
        means[seed] = [st["mean"] for st in res["stats"]]
        cfg, _ = bench._rate_files(run, 0)
        master_seeds[seed] = json.loads(cfg.read_text())["master_seed"]
    assert bench.derive_seed(1, "mc", 0, 0) == bench.derive_seed(1, "mc", 0, 0)
    assert means[1] != means[2]
    assert master_seeds[1] != master_seeds[2]


@pytest.mark.parametrize("workload", sorted(bench.UNITS))
def test_second_seed_runs_clean_and_prints_every_metric(small, capsys, workload):
    rc, result, err = _result(capsys, _argv(workload, 7))
    assert rc == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads((bench.RESULTS / f"{workload}_seed7_trace0.json").read_text())
    named = {"mc_practical": "mc_reps_per_s", "mle_readme": "mle_warm_s",
             "cli_mc_rate": "cli_wall_s"}[workload]
    for metric in ("setup_s", "peak_rss_mb", "fail_frac", named):
        assert metric in report["metrics"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "thread_env", "git_commit",
                "workload_seed"):
        assert key in report["environment"]


def test_traced_run_prints_every_per_layer_metric(small, capsys):
    rc, result, err = _result(capsys, _argv("mle_readme", 3, trace=1))
    assert rc == 0, err
    assert result["correct"], err
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    spans = json.loads((bench.RESULTS / "mle_readme_seed3_spans.json").read_text())
    assert {"mle.mle", "mle.decompose", "paths.euler_msfou"} <= {s["name"] for s in spans}
    assert result["metrics"]["trace.mle.self_s"]["value"] > 0


def test_wrong_reference_fails_loudly_and_counts(small, capsys, monkeypatch):
    monkeypatch.setattr(bench, "MC_REFERENCE_MEAN", 2.0)
    rc, result, err = _result(capsys, _argv("mc_practical", 5))
    assert rc == 0
    assert not result["correct"]
    assert result["failed"] == 1
    assert "CHECK FAILED: mc_practical: mean within 4 SE of reference" in err

    monkeypatch.setattr(bench, "MLE_README_THETA", 0.5)
    rc, result, err = _result(capsys, _argv("mle_readme", 5))
    assert not result["correct"] and result["failed"] >= 1
    assert "CHECK FAILED: mle_readme: README theta_hat" in err


def test_without_the_package_exits_nonzero_and_prints_no_result():
    bare = bench.RESULTS / "bare_checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py"] + _argv("mc_practical", 1),
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
