"""Tests for the command-line interface.

Covers:
  1. simulate: CSV output identical to the library call.
  2. estimate: JSON payload identical to the direct estimator result for
     every method, per-method argument requirements.
  3. mc-table / mc-clt / mc-rate: headers, payloads, agreement with the
     harness, and byte determinism across reruns and worker counts.
  4. Argument errors exit non-zero; user errors in input files, configs,
     experiment preconditions and argument values print one line and exit
     2 before anything is simulated; an unwritable output file prints one
     line and exits 2 before anything is simulated, and a run that fails
     leaves no output file behind.

All commands run in-process through main(argv).
"""

import io
import json
import math

import numpy as np
import pytest

from msfou import (
    ExperimentConfig,
    HurstParam,
    euler_msfou,
    lse_skorohod,
    mle,
    nonergodic_estimator,
    practical_estimator,
    SamplePath,
    read_path_csv,
    run_clt_experiment,
    run_table_experiment,
    write_path_csv,
)
from msfou import cli, harness, paths
from msfou.cli import main


def _write_config(path, **overrides):
    raw = {
        "theta_true": 1.0,
        "H": 0.6,
        "d": 0.1,
        "T": 5.0,
        "replications": 5,
        "master_seed": 404,
        "estimator": "practical",
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulate:
    def test_matches_library_output(self, tmp_path):
        out = tmp_path / "path.csv"
        rc = main(
            [
                "simulate",
                "--theta", "1.0",
                "--hurst", "0.65",
                "--d", "0.02",
                "--T", "2.0",
                "--seed", "11",
                "--out", str(out),
            ]
        )
        assert rc == 0
        direct = euler_msfou(theta=1.0, H=HurstParam(0.65), d=0.02, N=100, seed=11)
        buf = io.StringIO()
        write_path_csv(direct, buf)
        assert out.read_text(encoding="utf-8") == buf.getvalue()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "simulate",
            "--theta", "0.5",
            "--hurst", "0.6",
            "--d", "0.05",
            "--T", "1.0",
            "--seed", "3",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        base = [
            "simulate",
            "--theta", "0.5",
            "--hurst", "0.6",
            "--d", "0.05",
            "--T", "1.0",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(base + ["--seed", "1", "--out", str(a)])
        main(base + ["--seed", "2", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize(
        "theta,seed,message",
        [("1", "-1", "seed must be in [0, 18446744073709551615], got -1"),
         ("nan", "1", "theta must be finite, got nan")],
        ids=["negative-seed", "nan-theta"],
    )
    def test_library_rejection_is_one_line(self, tmp_path, capsys, monkeypatch, theta, seed,
                                           message):
        def sampled(*args, **kwargs):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr(paths, "sample_fgn", sampled)
        out = tmp_path / "q.csv"
        argv = ["simulate", "--theta", theta, "--hurst", "0.6", "--d", "0.1", "--T", "1",
                "--seed", seed, "--out", str(out)]
        assert message in _one_error_line(capsys, argv)
        assert not out.exists()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

class TestEstimate:
    @pytest.fixture()
    def path_csv(self, tmp_path):
        out = tmp_path / "path.csv"
        main(
            [
                "simulate",
                "--theta", "1.0",
                "--hurst", "0.6",
                "--d", "0.02",
                "--T", "4.0",
                "--seed", "21",
                "--out", str(out),
            ]
        )
        return out

    @pytest.mark.parametrize(
        "method, direct_call",
        [
            ("practical", lambda x, h: practical_estimator(x, h)),
            ("lse", lambda x, h: lse_skorohod(x, h, 1.0)),
            ("nonergodic", lambda x, h: nonergodic_estimator(x)),
            ("mle", lambda x, h: mle(x, h, 16)),
        ],
        ids=["practical", "lse", "nonergodic", "mle"],
    )
    def test_matches_direct_call(self, path_csv, tmp_path, method, direct_call):
        out = tmp_path / "est.json"
        rc = main(
            [
                "estimate",
                "--method", method,
                "--hurst", "0.6",
                "--theta-ref", "1.0",
                "--mesh", "16",
                "--in", str(path_csv),
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        with open(path_csv, encoding="utf-8") as fh:
            path = read_path_csv(fh)
        direct = direct_call(path, HurstParam(0.6))
        assert payload["theta_hat"] == direct.theta_hat
        assert payload["method"] == method
        assert payload["denominator"] == direct.denominator
        assert payload["diagnostics"] == direct.diagnostics

    def test_nonergodic_needs_no_hurst(self, path_csv, tmp_path):
        out = tmp_path / "est.json"
        rc = main(
            ["estimate", "--method", "nonergodic", "--in", str(path_csv), "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        with open(path_csv, encoding="utf-8") as fh:
            direct = nonergodic_estimator(read_path_csv(fh))
        assert payload["theta_hat"] == direct.theta_hat

    def test_mle_runs(self, path_csv, tmp_path):
        out = tmp_path / "est.json"
        rc = main(
            [
                "estimate",
                "--method", "mle",
                "--hurst", "0.6",
                "--mesh", "16",
                "--in", str(path_csv),
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["method"] == "mle"
        assert payload["diagnostics"]["mesh_size"] == 16

    def test_missing_hurst_exits(self, path_csv, tmp_path, capsys):
        argv = ["estimate", "--method", "practical", "--in", str(path_csv),
                "--out", str(tmp_path / "x.json")]
        assert "--hurst is required" in _one_error_line(capsys, argv)

    def test_lse_requires_theta_ref(self, path_csv, tmp_path, capsys):
        argv = ["estimate", "--method", "lse", "--hurst", "0.6", "--in", str(path_csv),
                "--out", str(tmp_path / "x.json")]
        assert "--theta-ref is required" in _one_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--method", "mle", "--hurst", "0.6", "--mesh", "4"], "m must be at least 8, got 4"),
            (["--method", "mle", "--hurst", "0.6", "--mesh", str(10**400)],
             "m is out of range, got an integer of 1329 bits"),
            (["--method", "lse", "--hurst", "0.4", "--theta-ref", "1"], "requires H > 1/2"),
            (["--method", "lse", "--hurst", "0.6", "--theta-ref", "inf"],
             "msfou: error: theta_ref must be finite, got inf"),
        ],
        ids=["mle-mesh-4", "mle-mesh-huge", "lse-hurst-0.4", "lse-theta-ref-inf"],
    )
    def test_estimator_rejection_is_one_line(self, path_csv, tmp_path, capsys, args, message):
        out = tmp_path / "x.json"
        argv = ["estimate", *args, "--in", str(path_csv), "--out", str(out)]
        assert message in _one_error_line(capsys, argv)
        assert not out.exists()


# ---------------------------------------------------------------------------
# Monte Carlo subcommands
# ---------------------------------------------------------------------------

class TestMcTable:
    def test_header_and_agreement_with_harness(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg = _write_config(cfg_file)
        out = tmp_path / "row.csv"
        rc = main(["mc-table", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "theta_true,H,d,T,reps,mean,median,sdev,n_failed"
        cells = lines[1].split(",")
        stats = run_table_experiment(cfg)
        assert float(cells[5]) == pytest.approx(stats.mean, rel=1e-14)
        assert float(cells[7]) == pytest.approx(stats.sdev, rel=1e-14)
        assert cells[8] == "0"

    def test_workers_do_not_change_bytes(self, tmp_path):
        # two chunks of replications, so --workers 2 runs a pool of two
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, replications=16)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["mc-table", "--config", str(cfg_file), "--out", str(a), "--workers", "1"])
        main(["mc-table", "--config", str(cfg_file), "--out", str(b), "--workers", "2"])
        assert a.read_bytes() == b.read_bytes()


class TestMcClt:
    def test_sample_and_stats_files(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg = _write_config(cfg_file, d=0.05, replications=6, master_seed=777)
        out, stats_file = tmp_path / "phi.csv", tmp_path / "stats.json"
        rc = main(
            [
                "mc-clt",
                "--config", str(cfg_file),
                "--out", str(out),
                "--stats", str(stats_file),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "phi"
        assert len(lines) == 7
        phi, summary = run_clt_experiment(cfg)
        assert [float(v) for v in lines[1:]] == pytest.approx(list(phi), rel=1e-14)
        payload = json.loads(stats_file.read_text(encoding="utf-8"))
        assert payload["mean"] == summary.mean
        assert payload["n_failed"] == 0
        assert sorted(payload) == [
            "kurtosis", "mean", "median", "n_failed", "sdev", "skewness",
        ]


class TestMcRate:
    def test_rows_and_determinism(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, estimator="lse", replications=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["mc-rate", "--config", str(cfg_file), "--T-grid", "4,8"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "T,scaled_sdev,n_failed"
        assert len(lines) == 3
        assert lines[1].startswith("4,")

    def test_empty_grid_exits(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, estimator="lse")
        argv = ["mc-rate", "--config", str(cfg_file), "--T-grid", ",",
                "--out", str(tmp_path / "x.csv")]
        assert _one_error_line(capsys, argv) == (
            "msfou: error: --T-grid: must list at least one horizon"
        )
        assert not (tmp_path / "x.csv").exists()


class TestArgumentErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--theta", "1.0"])


def _one_error_line(capsys, argv, status=2) -> str:
    """Run argv, expect the exit status and a single ``msfou: error:`` line; return it."""
    assert main(argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("msfou: error: ")
    return lines[0]


class TestUserErrors:
    @pytest.fixture(autouse=True)
    def _no_simulation(self, monkeypatch):
        def simulated(*args, **kwargs):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(harness, "euler_msfou", simulated)
        monkeypatch.setattr(cli, "euler_msfou", simulated)

    @pytest.mark.parametrize(
        "command", [["mc-table"], ["mc-clt", "--stats", "s.json"], ["mc-rate", "--T-grid", "5"]],
        ids=["mc-table", "mc-clt", "mc-rate"],
    )
    def test_missing_config(self, tmp_path, capsys, command):
        argv = command + ["--config", str(tmp_path / "absent.json"), "--out", "o.csv"]
        assert "absent.json" in _one_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"estimator": "lse", "theta_true": -1.0}, "theta_true"),
            ({"estimator": "mle", "mle_mesh": 128}, "mle_mesh"),
            ({"estimator": "practical", "H": 1.5}, "H"),
            ({"estimator": "practical", "seed": 1}, "seed"),
            ({"estimator": "practical", "H": 0.3}, "H >= 1/2"),
            ({"estimator": "mle", "H": 0.3, "mle_mesh": 8}, "H >= 1/2"),
            ({"estimator": "practical", "theta_true": math.nan}, "theta_true must be finite"),
            ({"estimator": "practical", "x0": math.nan}, "x0 must be finite"),
            ({"estimator": "practical", "d": math.inf}, "d must be finite"),
            ({"estimator": "practical", "T": math.inf}, "T must be finite"),
            ({"estimator": "practical", "replications": math.inf}, "replications must be finite"),
            ({"estimator": "mle", "mle_mesh": math.nan}, "mle_mesh must be finite"),
            ({"estimator": "practical", "replications": "5"}, "replications must be a number"),
            ({"estimator": "practical", "x0": None}, "x0 must be a number"),
            ({"estimator": "practical", "H": "0.65"}, "H must be a number"),
            ({"estimator": "practical", "T": True}, "T must be a number"),
            ({"estimator": 3}, "estimator must be one of mle, lse, practical, nonergodic, got 3"),
            ({"estimator": "practical", "replications": 2.5},
             "replications must be a whole number"),
            ({"estimator": "practical", "master_seed": 1.5}, "master_seed must be a whole number"),
            ({"estimator": "mle", "mle_mesh": 8.9}, "mle_mesh must be a whole number"),
            ({"estimator": "practical", "master_seed": 10**400}, "master_seed is out of range"),
            ({"estimator": "practical", "x0": 10**400}, "x0 is out of range"),
            ({"estimator": "mle", "mle_mesh": 10**400}, "mle_mesh is out of range"),
            ({"estimator": "practical", "T": 1e300, "d": 1e-300}, "N = round(T/d) must be finite"),
        ],
        ids=["lse-negative-theta", "mle-mesh-above-N", "bad-hurst", "unknown-field",
             "practical-H-below-half", "mle-H-below-half", "nan-theta", "nan-x0",
             "infinite-d", "infinite-T", "infinite-replications", "nan-mle-mesh",
             "string-replications", "null-x0", "string-H", "true-T", "number-estimator",
             "fractional-replications", "fractional-master-seed", "fractional-mle-mesh",
             "huge-master-seed", "huge-x0", "huge-mle-mesh", "infinite-N"],
    )
    def test_invalid_config(self, tmp_path, capsys, overrides, field):
        cfg_file = tmp_path / "cfg.json"
        raw = {
            "theta_true": 1.0, "H": 0.6, "d": 0.1, "T": 5.0,
            "replications": 3, "master_seed": 404,
        }
        raw.update(overrides)
        cfg_file.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["mc-table", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert field in _one_error_line(capsys, argv)
        assert not (tmp_path / "o").exists()

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("[1, 2]", encoding="utf-8")
        argv = ["mc-table", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert "config must be a JSON object, got list" in _one_error_line(capsys, argv)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    @pytest.mark.parametrize(
        "command", [["mc-table"], ["mc-clt", "--stats", "s.json"], ["mc-rate", "--T-grid", "5"]],
        ids=["mc-table", "mc-clt", "mc-rate"],
    )
    def test_workers_below_one(self, tmp_path, capsys, monkeypatch, command, workers):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, estimator="lse" if command[0] == "mc-rate" else "practical")
        argv = command + ["--config", str(cfg_file), "--out", "o.csv", "--workers", workers]
        assert f"--workers must be at least 1, got {workers}" in _one_error_line(capsys, argv)
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.json").exists()

    def test_malformed_json(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("{not json", encoding="utf-8")
        argv = ["mc-table", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert "cfg.json" in _one_error_line(capsys, argv)

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "No such file"),
            ("time,value\n0,0\n1,1\n", "expected header"),
            ("t,value\n0,0\n1,x\n", "line 3: could not convert string to float: 'x'"),
            ("t,value\n0\n1\n", "line 2: expected 2 fields t,value, got 1"),
            ("t,value\n0,0,7\n1,1,7\n", "line 2: expected 2 fields t,value, got 3"),
            ("t,value\n0,0\n\n", "path CSV needs at least the t=0 row and one more"),
            ("t,value\n0.1,0\n0.2,1\n", "first row must be at t=0"),
            ("t,value\n0,0\n0,1\n", "time column must be increasing"),
            ("t,value\n0,0\n0.1,1\n0.3,2\n", "time column must be uniformly spaced"),
        ],
        ids=["missing", "bad-header", "bad-number", "one-column", "three-column",
             "one-row", "not-from-zero", "not-increasing", "not-uniform"],
    )
    def test_bad_path_csv(self, tmp_path, capsys, content, message):
        path_file = tmp_path / "path.csv"
        if content is not None:
            path_file.write_text(content, encoding="utf-8")
        argv = ["estimate", "--method", "nonergodic", "--in", str(path_file),
                "--out", str(tmp_path / "r.json")]
        line = _one_error_line(capsys, argv)
        assert "path.csv" in line and message in line
        assert not (tmp_path / "r.json").exists()

    def test_bad_hurst(self, tmp_path, capsys):
        path_file = tmp_path / "p.csv"
        with open(path_file, "w", encoding="utf-8", newline="\n") as fh:
            write_path_csv(euler_msfou(1.0, HurstParam(0.6), 0.1, 10, 1), fh)
        simulate = ["simulate", "--theta", "1", "--hurst", "1.5", "--d", "0.1", "--T", "1",
                    "--seed", "1", "--out", str(tmp_path / "q.csv")]
        estimate = ["estimate", "--method", "practical", "--hurst", "1.5",
                    "--in", str(path_file), "--out", str(tmp_path / "r.json")]
        assert "--hurst" in _one_error_line(capsys, simulate)
        assert "--hurst" in _one_error_line(capsys, estimate)

    def test_reference_drift_past_the_float_range(self, tmp_path, capsys):
        # the LSE's correction integral overflows at theta_ref = 1e-300
        path_file = tmp_path / "p.csv"
        with open(path_file, "w", encoding="utf-8", newline="\n") as fh:
            write_path_csv(euler_msfou(1.0, HurstParam(0.65), 0.1, 10, 1), fh)
        argv = ["estimate", "--method", "lse", "--hurst", "0.65", "--theta-ref", "1e-300",
                "--in", str(path_file), "--out", str(tmp_path / "r.json")]
        assert _one_error_line(capsys, argv) == (
            "msfou: error: correction_integral is out of the float range at "
            "theta=1e-300, H=0.65, big_t=1.0"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "grid,message,hurst",
        [
            ("5,x", "could not convert", 0.6),
            ("5,-1", "T must be positive, got -1.0", 0.6),
            ("5,0", "T must be positive, got 0.0", 0.6),
            ("5,inf", "--T-grid", 0.6),
            # at H = 3/4 the rate scale sqrt(T/log T) needs T > 1
            ("5,1", "--T-grid: at H = 3/4 every horizon must exceed 1, got T=1.0", 0.75),
            ("0.5", "--T-grid: at H = 3/4 every horizon must exceed 1, got T=0.5", 0.75),
        ],
        ids=["not-a-number", "negative", "zero", "infinite", "boundary-T-1", "boundary-T-below-1"],
    )
    def test_bad_rate_horizon(self, tmp_path, capsys, grid, message, hurst):
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, estimator="lse", H=hurst)
        argv = ["mc-rate", "--config", str(cfg_file), "--T-grid", grid,
                "--out", str(tmp_path / "o.csv")]
        assert message in _one_error_line(capsys, argv)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command,overrides,message",
        [
            (["mc-rate", "--T-grid", "5"], {"estimator": "practical"}, "estimator lse"),
            (["mc-rate", "--T-grid", "5"], {"estimator": "nonergodic"}, "estimator lse"),
            (["mc-rate", "--T-grid", "5"], {"estimator": "lse", "replications": 1},
             "replications >= 2"),
            (["mc-clt", "--stats", "s.json"], {"estimator": "lse"}, "estimator practical"),
            (["mc-clt", "--stats", "s.json"], {"H": 0.8}, "1/2 < H < 3/4"),
            (["mc-clt", "--stats", "s.json"], {"H": 0.5}, "1/2 < H < 3/4"),
            (["mc-clt", "--stats", "s.json"], {"theta_true": -0.5}, "theta_true > 0"),
            (["mc-clt", "--stats", "s.json"], {"theta_true": 0}, "theta_true > 0"),
        ],
        ids=["rate-practical", "rate-nonergodic", "rate-one-replication", "clt-lse",
             "clt-h-above", "clt-h-half", "clt-theta-negative", "clt-theta-zero"],
    )
    def test_experiment_precondition(self, tmp_path, capsys, monkeypatch, command,
                                     overrides, message):
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, **overrides)
        argv = command + ["--config", str(cfg_file), "--out", "o.csv"]
        line = _one_error_line(capsys, argv)
        assert "cfg.json" in line and message in line
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "command,overrides,message",
        [
            (["mc-table"], {"estimator": "lse", "theta_true": 1e-300},
             "correction_integral is out of the float range at theta=1e-300, H=0.6, big_t=5.0"),
            (["mc-rate", "--T-grid", "5"], {"estimator": "lse", "theta_true": 1e-300},
             "correction_integral is out of the float range at theta=1e-300, H=0.6, big_t=5.0"),
            (["mc-clt", "--stats", "s.json"], {"theta_true": 1e-200},
             "phi_statistic is out of the float range at theta_tilde=1e-200, theta=1e-200, "
             "H=0.6, n=50, d=0.1"),
            (["mc-clt", "--stats", "s.json"], {"theta_true": 1e-200, "H": 0.65},
             "sigma_H is out of the float range at theta=1e-200, H=0.65"),
        ],
        ids=["table-lse", "rate-lse", "clt", "clt-sigma"],
    )
    def test_drift_past_the_float_range(self, tmp_path, capsys, monkeypatch, command,
                                        overrides, message):
        # refused before any path is simulated, where each replication would
        # overflow or, for the CLT, write Phi near 1e99 and a NaN kurtosis
        monkeypatch.chdir(tmp_path)
        raw = {"theta_true": 1.0, "H": 0.6, "d": 0.1, "T": 5.0, "replications": 5,
               "master_seed": 404, "estimator": "practical", **overrides}
        (tmp_path / "cfg.json").write_text(json.dumps(raw), encoding="utf-8")
        argv = command + ["--config", "cfg.json", "--out", "o.csv"]
        assert _one_error_line(capsys, argv) == f"msfou: error: cfg.json: {message}"
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "d,big_t",
        [("0", "1"), ("-0.1", "1"), ("0.1", "-1"), ("0.1", "0"), ("1", "0.4"), ("nan", "1")],
        ids=["zero-d", "negative-d", "negative-T", "zero-T", "no-step", "nan-d"],
    )
    def test_bad_simulate_grid(self, tmp_path, capsys, d, big_t):
        argv = ["simulate", "--theta", "1", "--hurst", "0.6", "--d", d, "--T", big_t,
                "--seed", "1", "--out", str(tmp_path / "q.csv")]
        assert "--d and --T" in _one_error_line(capsys, argv)
        assert not (tmp_path / "q.csv").exists()


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["simulate", "estimate", "mc-table", "mc-clt", "mc-rate"])
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        if command.startswith("mc-"):
            # the output is probed before the experiment starts
            def simulated(*args, **kwargs):
                raise AssertionError("a path was simulated")

            monkeypatch.setattr(harness, "euler_msfou", simulated)
        cfg_file = tmp_path / "cfg.json"
        # mc-rate runs only the corrected LSE, mc-clt only the practical estimator
        _write_config(cfg_file, estimator="lse" if command == "mc-rate" else "practical",
                      replications=3)
        path_file = tmp_path / "p.csv"
        with open(path_file, "w", encoding="utf-8", newline="\n") as fh:
            write_path_csv(euler_msfou(1.0, HurstParam(0.6), 0.1, 10, 1), fh)
        bad = tmp_path / "no-such-dir" / "out"
        argv = {
            "simulate": ["simulate", "--theta", "1", "--hurst", "0.6", "--d", "0.1",
                         "--T", "1", "--seed", "1", "--out", str(bad)],
            "estimate": ["estimate", "--method", "nonergodic", "--in", str(path_file),
                         "--out", str(bad)],
            "mc-table": ["mc-table", "--config", str(cfg_file), "--out", str(bad)],
            "mc-clt": ["mc-clt", "--config", str(cfg_file), "--out", str(tmp_path / "phi.csv"),
                       "--stats", str(bad)],
            "mc-rate": ["mc-rate", "--config", str(cfg_file), "--T-grid", "4",
                        "--out", str(bad)],
        }[command]
        assert _one_error_line(capsys, argv).startswith(f"msfou: error: cannot write {bad}: ")
        # mc-clt opened its --out before failing on --stats, then removed it
        assert not (tmp_path / "phi.csv").exists()

    @pytest.mark.parametrize("command", ["mc-table", "mc-clt", "mc-rate"])
    def test_failed_run_leaves_no_output(self, tmp_path, capsys, monkeypatch, command):
        # every replication simulates the zero path and fails, so the
        # experiment fails after its outputs were opened
        monkeypatch.setattr(
            harness, "euler_msfou", lambda **kw: SamplePath(d=kw["d"], values=np.zeros(kw["N"]))
        )
        cfg_file = tmp_path / "cfg.json"
        _write_config(cfg_file, estimator="lse" if command == "mc-rate" else "practical",
                      replications=3)
        out, stats = tmp_path / "out.csv", tmp_path / "stats.json"
        argv = {
            "mc-table": ["mc-table"],
            "mc-clt": ["mc-clt", "--stats", str(stats)],
            "mc-rate": ["mc-rate", "--T-grid", "4"],
        }[command] + ["--config", str(cfg_file), "--out", str(out)]
        line = _one_error_line(capsys, argv, status=1)
        assert "all 3 replications failed" in line or "too few successful" in line
        assert not out.exists() and not stats.exists()


class TestAllReplicationsFail:
    @pytest.mark.parametrize(
        "command,overrides,message",
        [
            # theta = -50: every path passes the float range long before T = 100
            (["mc-table"], {"estimator": "nonergodic"}, "all 2 replications failed"),
            # |1 - theta d| = 4: every path overflows long before T = 100 (the
            # CLT rejects theta <= 0 as a config error)
            (["mc-clt", "--stats", "s.json"], {"estimator": "practical", "theta_true": 50.0,
                                              "d": 0.1}, "all 2 replications failed"),
            (["mc-rate", "--T-grid", "100"], {"estimator": "lse", "theta_true": 50.0, "d": 0.1},
             "too few successful replications at T=100.0"),
        ],
        ids=["mc-table", "mc-clt", "mc-rate"],
    )
    def test_one_line_and_exit_1(self, tmp_path, capsys, monkeypatch, command, overrides,
                                 message):
        monkeypatch.chdir(tmp_path)
        raw = {"theta_true": -50.0, "d": 0.01, "T": 100.0, "replications": 2, "master_seed": 1}
        _write_config(tmp_path / "cfg.json", **{**raw, **overrides})
        argv = command + ["--config", "cfg.json", "--out", "o.csv"]
        assert _one_error_line(capsys, argv, status=1) == f"msfou: error: {message}"
        assert not (tmp_path / "o.csv").exists() and not (tmp_path / "s.json").exists()
