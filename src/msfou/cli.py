"""Command-line interface: path simulation, estimation, Monte Carlo tables.

Subcommands
-----------
simulate   one msfOU path to CSV (columns t,value)
estimate   one estimator applied to a path CSV, result to JSON
mc-table   Monte Carlo summary row for a config JSON
mc-clt     standardized-error sample (CSV) plus its moment summary (JSON)
mc-rate    scaled-error sdev across a grid of time horizons

All outputs are deterministic functions of the inputs: numbers are
formatted with %.15g, JSON keys are sorted, no timestamps are emitted, and
worker counts never change any byte of output.

A missing, unreadable or malformed --config/--in file (a config that is
not a JSON object or gives a field a non-number, a path row without
exactly the two fields t,value), an invalid config or one the experiment
cannot run (mc-clt needs the practical estimator, 1/2 < H < 3/4 and
theta_true > 0, mc-rate the corrected LSE and at least two replications),
a missing or invalid argument value (--hurst, --theta-ref, --d, --T, each
--T-grid horizon, an empty --T-grid, a horizon T <= 1 at H = 3/4 where
the rate scale sqrt(T/log T) needs T > 1, --workers below 1, and any
value the library rejects, such as simulate --seed -1 or estimate --mesh
4) and an --out or --stats file that cannot be created are reported as
one line ``msfou: error: ...`` on stderr with exit status 2, before any
path is simulated. A valid config whose replications all fail (for
mc-rate, leave fewer than two at a horizon) ends with the same line and
exit status 1. Outputs are opened before the work starts; a run that
fails afterwards removes them, so no truncated file passes for a result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from dataclasses import asdict

from .estimators import Method
from .harness import (
    _ESTIMATORS,
    ExperimentConfig,
    _check_clt_config,
    _check_rate_config,
    _rate_configs,
    _ReplicationsFailed,
    run_clt_experiment,
    run_rate_experiment,
    run_table_experiment,
)
from .noise import HurstParam
from .paths import euler_msfou, read_path_csv, write_path_csv

__all__ = ["main"]


def _fmt(x) -> str:
    return format(float(x), ".15g")


class _UserError(Exception):
    """A bad input named on the command line; main reports it in one line."""


@contextlib.contextmanager
def _reading(path: str):
    """Turn a missing, unreadable or malformed input file into a _UserError."""
    try:
        yield
    except OSError as exc:
        raise _UserError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise _UserError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _writing(*paths: str):
    """Open every output before the work that fills them; yield a writer.

    An output that cannot be created is a _UserError before the work
    starts. ``write(*texts)`` writes texts[i] to paths[i] and closes it.
    If the work or a write fails, the outputs that are regular files are
    removed, so no truncated file is left to pass for a result.
    """
    handles = []

    def write(*texts: str) -> None:
        for path, fh, text in zip(paths, handles, texts, strict=True):
            try:
                fh.write(text)
                fh.close()
            except OSError as exc:
                raise _UserError(f"cannot write {path}: {exc.strerror}") from None

    try:
        for path in paths:
            try:
                handles.append(open(path, "w", encoding="utf-8", newline="\n"))
            except OSError as exc:
                raise _UserError(f"cannot write {path}: {exc.strerror}") from None
        yield write
    except BaseException:
        for path, fh in zip(paths, handles):
            with contextlib.suppress(OSError):
                fh.close()
            # a device such as /dev/stdout is never removed
            if os.path.isfile(path):
                with contextlib.suppress(OSError):
                    os.unlink(path)
        raise
    finally:
        for fh in handles:
            fh.close()


@contextlib.contextmanager
def _rejecting(label: str = ""):
    """Report the library's ValueError for a bad argument as a _UserError."""
    try:
        yield
    except ValueError as exc:
        raise _UserError(f"{label}{exc}") from None


def _load_config(path: str, check=None) -> ExperimentConfig:
    """Load a config; ``check(cfg)`` may reject one the experiment cannot run."""
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        cfg = ExperimentConfig.from_dict(json.load(fh))
        if check is not None:
            check(cfg)
        return cfg


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_simulate(args: argparse.Namespace) -> int:
    steps = args.T / args.d if args.d > 0.0 else math.nan
    if not 0.5 < steps < math.inf:
        raise _UserError(
            f"--d and --T must be positive with T/d at least one step, "
            f"got d={args.d}, T={args.T}"
        )
    with _rejecting("--hurst: "):
        hurst = HurstParam(args.hurst)
    with _writing(args.out) as write:
        with _rejecting():
            path = euler_msfou(
                theta=args.theta, H=hurst, d=args.d, N=round(steps), seed=args.seed, x0=args.x0
            )
        buf = io.StringIO()
        write_path_csv(path, buf)
        write(buf.getvalue())
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    with _reading(args.path_in), open(args.path_in, "r", encoding="utf-8") as fh:
        path = read_path_csv(fh)
    method = Method(args.method)
    hurst = None
    if method is not Method.NONERGODIC:
        if args.hurst is None:
            raise _UserError(f"--hurst is required for method {method.value}")
        with _rejecting("--hurst: "):
            hurst = HurstParam(args.hurst)
    if method is Method.LSE_SKOROHOD and args.theta_ref is None:
        raise _UserError("--theta-ref is required for method lse")
    with _writing(args.out) as write:
        with _rejecting():
            result = _ESTIMATORS[method](path, hurst, args.theta_ref, args.mesh)
        payload = {
            "theta_hat": result.theta_hat,
            "method": result.method.value,
            "denominator": result.denominator,
            "diagnostics": result.diagnostics,
        }
        write(_json_text(payload))
    return 0


def _cmd_mc_table(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    with _writing(args.out) as write:
        stats = run_table_experiment(cfg, workers=args.workers)
        header = "theta_true,H,d,T,reps,mean,median,sdev,n_failed"
        row = ",".join(
            [
                _fmt(cfg.theta_true),
                _fmt(cfg.H),
                _fmt(cfg.d),
                _fmt(cfg.T),
                str(cfg.replications),
                _fmt(stats.mean),
                _fmt(stats.median),
                _fmt(stats.sdev),
                str(stats.n_failed),
            ]
        )
        write(header + "\n" + row + "\n")
    return 0


def _cmd_mc_clt(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, _check_clt_config)
    with _writing(args.out, args.stats) as write:
        phi, stats = run_clt_experiment(cfg, workers=args.workers)
        sample = "phi\n" + "".join(_fmt(value) + "\n" for value in phi)
        write(sample, _json_text(asdict(stats)))
    return 0


def _cmd_mc_rate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config, _check_rate_config)
    with _rejecting("--T-grid: "):
        t_grid = [float(tok) for tok in args.t_grid.split(",") if tok.strip()]
        _rate_configs(cfg, t_grid)
    with _writing(args.out) as write:
        rows = run_rate_experiment(cfg, t_grid, workers=args.workers)
        write(
            "T,scaled_sdev,n_failed\n"
            + "".join(f"{_fmt(big_t)},{_fmt(sdev)},{n_failed}\n" for big_t, sdev, n_failed in rows)
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msfou",
        description="Simulation and drift estimation for the mixed "
        "sub-fractional Ornstein-Uhlenbeck process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one path to CSV")
    p_sim.add_argument("--theta", type=float, required=True)
    p_sim.add_argument("--hurst", type=float, required=True)
    p_sim.add_argument("--d", type=float, required=True)
    p_sim.add_argument("--T", type=float, required=True, dest="T")
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--x0", type=float, default=0.0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate the drift from a path CSV")
    p_est.add_argument(
        "--method", required=True, choices=[m.value for m in Method]
    )
    p_est.add_argument("--hurst", type=float, default=None)
    p_est.add_argument("--theta-ref", type=float, default=None, dest="theta_ref")
    p_est.add_argument("--mesh", type=int, default=128)
    p_est.add_argument("--in", required=True, dest="path_in")
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=_cmd_estimate)

    p_table = sub.add_parser("mc-table", help="Monte Carlo table row")
    p_table.add_argument("--config", required=True)
    p_table.add_argument("--out", required=True)
    p_table.add_argument("--workers", type=int, default=1)
    p_table.set_defaults(func=_cmd_mc_table)

    p_clt = sub.add_parser("mc-clt", help="standardized-error sample and summary")
    p_clt.add_argument("--config", required=True)
    p_clt.add_argument("--out", required=True)
    p_clt.add_argument("--stats", required=True)
    p_clt.add_argument("--workers", type=int, default=1)
    p_clt.set_defaults(func=_cmd_mc_clt)

    p_rate = sub.add_parser("mc-rate", help="scaled-error sdev across horizons")
    p_rate.add_argument("--config", required=True)
    p_rate.add_argument("--T-grid", required=True, dest="t_grid")
    p_rate.add_argument("--out", required=True)
    p_rate.add_argument("--workers", type=int, default=1)
    p_rate.set_defaults(func=_cmd_mc_rate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "workers", 1) < 1:
            raise _UserError(f"--workers must be at least 1, got {args.workers}")
        return args.func(args)
    except (_UserError, _ReplicationsFailed) as exc:
        print(f"msfou: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UserError) else 1


if __name__ == "__main__":
    sys.exit(main())
