"""Benchmark jobs, each run in a fresh interpreter.

    python perfbench/child.py <job> '<json arguments>'

The child imports msfou, prints ``ready`` (the parent times spawn to
``ready`` as one set-up sample), runs the job and prints one JSON line of
results, including its own peak RSS. Jobs call msfou only through its
module attributes, so a traced job can wrap them (see tracing.py).
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import statistics
import sys
import time

from tracing import Tracer, child_time

clock = time.perf_counter


def _timed(fn, *args) -> float:
    t0 = clock()
    fn(*args)
    return clock() - t0


def _median_time(fn, args_list) -> float:
    return statistics.median(_timed(fn, *args) for args in args_list)


def _mod(name: str):
    # msfou/__init__ rebinds some submodule names (msfou.mle is the
    # function), so submodules are looked up by their full name.
    return importlib.import_module(f"msfou.{name}")


def _trace_mc(tracer: Tracer) -> None:
    harness, paths, estimators = _mod("harness"), _mod("paths"), _mod("estimators")
    tracer.wrap(harness, "run_table_experiment", "harness.run_table_experiment")
    tracer.wrap(harness, "euler_msfou", "paths.euler_msfou", new_request=True)
    tracer.wrap(harness, "practical_estimator", "estimators.practical_estimator")
    tracer.wrap(paths, "sample_fgn", "noise.sample_fgn")
    tracer.wrap(paths, "two_sided_fbm", "paths.two_sided_fbm")
    tracer.wrap(paths, "sfbm_path", "paths.sfbm_path")
    tracer.wrap(estimators, "_invert_p_impl", "numerics.invert_p")


def _trace_mle(tracer: Tracer) -> None:
    paths, mle = _mod("paths"), _mod("mle")
    tracer.wrap(paths, "euler_msfou", "paths.euler_msfou")
    tracer.wrap(paths, "sample_fgn", "noise.sample_fgn")
    tracer.wrap(mle, "mle", "mle.mle")
    tracer.wrap(mle, "decompose", "mle.decompose")
    for attr in (
        "_cached_endpoint_solutions",
        "_cached_diagonal_values",
        "_interp_unit_solution",
        "_layer_cumulative_square_integral",
    ):
        tracer.wrap(mle, attr, "numerics." + attr.lstrip("_"))


def _config(a: dict, master_seed: int, replications: int, method: str):
    from msfou import ExperimentConfig, Method

    return ExperimentConfig(
        theta_true=a["theta"], H=a["H"], d=a["d"], T=a["T"],
        replications=replications, master_seed=master_seed, estimator=Method(method),
    )


def job_setup(a: dict) -> dict:
    return {}


def job_mc(a: dict) -> dict:
    """Practical-estimator tables, one per seed; the first is cold."""
    from dataclasses import asdict

    tracer = Tracer() if a.get("spans") else None
    if tracer:
        _trace_mc(tracer)
    harness = _mod("harness")
    walls, stats = [], []
    for seed in a["seeds"]:
        cfg = _config(a, seed, a["reps"], "practical")
        t0 = clock()
        st = harness.run_table_experiment(cfg, workers=1)
        walls.append(clock() - t0)
        stats.append(asdict(st))
    if tracer:
        tracer.dump(a["spans"])
    return {"walls": walls, "stats": stats}


def job_mle(a: dict) -> dict:
    """README path and cold mle, then warm mle on further paths."""
    from msfou import HurstParam

    tracer = Tracer() if a.get("spans") else None
    if tracer:
        _trace_mle(tracer)
    paths, mle = _mod("paths"), _mod("mle")
    h = HurstParam(a["H"])
    seeds = [a["readme_seed"]] + a["warm_seeds"]
    walls, thetas = [], []
    for i, seed in enumerate(seeds):
        if tracer:
            tracer.request = i
        x = paths.euler_msfou(theta=a["theta"], H=h, d=a["d"], N=a["N"], seed=seed)
        t0 = clock()
        r = mle.mle(x, h, m=a["mesh"])
        walls.append(clock() - t0)
        thetas.append(r.theta_hat)
    if tracer:
        tracer.dump(a["spans"])
    return {"walls": walls, "thetas": thetas}


def job_cli_traced(a: dict) -> dict:
    """msfou.cli.main in-process with spans around the harness call."""
    tracer = Tracer()
    cli = _mod("cli")
    tracer.wrap(cli, "run_rate_experiment", "harness.run_rate_experiment")
    with tracer.span("cli.main"):
        rc = cli.main(a["argv"])
    tracer.dump(a["spans"])
    return {"rc": rc}


def job_probe_numerics(a: dict) -> dict:
    """Cold correction integrals, invert_p, cold kernel solves per mesh."""
    import numpy as np
    from msfou import HurstParam, correction_integral, invert_p, solve_g_kernel
    from msfou import stationary_second_moment

    h_rate = HurstParam(a["rate_H"])
    corr = _median_time(correction_integral, [(1.0, h_rate, t) for t in a["t_grid"]])
    h = HurstParam(a["H"])
    ys = [stationary_second_moment(th, h) for th in np.linspace(0.8, 1.25, a["repeat"])]
    inv = _median_time(invert_p, [(y, h) for y in ys])
    kernel_s, residual = {}, 0.0
    for m in a["meshes"]:
        t0 = clock()
        sol = solve_g_kernel(a["kernel_T"], h, m)
        kernel_s[str(m)] = clock() - t0
        residual = max(residual, sol.residual)
    return {"correction_s": corr, "invert_p_s": inv, "kernel_s": kernel_s, "residual": residual}


def _count_dense_linalg(counts: dict) -> None:
    """Count dense systems and their flops, computed from array shapes.

    Wraps numpy's and scipy's dense solvers and factorizations before msfou
    is imported, so a later kernel solver that swaps one for another still
    shows up in the counts.
    """
    import numpy as np
    import numpy.linalg as nla
    import scipy.linalg as sla

    def shape(a):
        a = np.asarray(a)
        return a.shape[-1], math.prod(a.shape[:-2])

    def rhs_cols(a, b):
        b = np.asarray(b)
        return b.shape[-1] if b.ndim == np.ndim(a) else 1

    def solve_cost(a, b, *_, **__):
        n, k = shape(a)
        return k, k * (2.0 * n**3 / 3.0 + 2.0 * n * n * rhs_cols(a, b))

    def lu_solve_cost(lu_piv, b, *_, **__):
        n, k = shape(lu_piv[0])
        return k, k * 2.0 * n * n * rhs_cols(lu_piv[0], b)

    def factor_cost(per_n3):
        def cost(a, *_, **__):
            n, k = shape(a)
            return 0, k * per_n3 * n**3
        return cost

    rules = [
        (nla, "solve", solve_cost),
        (nla, "inv", factor_cost(2.0)),
        (nla, "eig", factor_cost(25.0)),
        (sla, "solve", solve_cost),
        (sla, "lu_factor", factor_cost(2.0 / 3.0)),
        (sla, "lu_solve", lu_solve_cost),
        (sla, "hessenberg", factor_cost(10.0 / 3.0)),
        (sla, "eig", factor_cost(25.0)),
    ]
    for module, attr, cost in rules:
        fn = getattr(module, attr)

        def counted(*args, _fn=fn, _cost=cost, **kwargs):
            if counts["on"]:
                systems, flops = _cost(*args, **kwargs)
                counts["systems"] += systems
                counts["flops"] += flops
            return _fn(*args, **kwargs)

        setattr(module, attr, counted)


def job_probe_mle(a: dict) -> dict:
    """Cold and warm mle on the README path, and warm decompose."""
    from msfou import HurstParam

    counts = COUNTS
    paths, mle = _mod("paths"), _mod("mle")
    h = HurstParam(a["H"])
    x = paths.euler_msfou(theta=a["theta"], H=h, d=a["d"], N=a["N"], seed=a["readme_seed"])
    counts["on"] = True
    t0 = clock()
    mle.mle(x, h, m=a["mesh"])
    cold = clock() - t0
    counts["on"] = False
    warm = _median_time(mle.mle, [(x, h, a["mesh"])] * 2)
    dec = _median_time(mle.decompose, [(x, h, a["mesh"])] * 2)
    return {
        "cold_s": cold, "warm_s": warm, "decompose_s": dec,
        "solves": counts["systems"], "flops": counts["flops"],
    }


class _CountingRng:
    """Delegates to a numpy Generator and counts the normals it draws."""

    def __init__(self, rng, counts: dict) -> None:
        self._rng = rng
        self._counts = counts

    def __getattr__(self, attr):
        fn = getattr(self._rng, attr)
        if attr not in ("standard_normal", "normal"):
            return fn

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._counts["normals"] += getattr(out, "size", 1)
            return out

        return counted


def _normals_per_path(a: dict, h) -> int:
    noise, paths = _mod("noise"), _mod("paths")
    counts = {"normals": 0}
    rng = noise.NoiseSpec.rng
    noise.NoiseSpec.rng = lambda spec: _CountingRng(rng(spec), counts)
    try:
        paths.euler_msfou(theta=a["theta"], H=h, d=a["d"], N=a["N"], seed=1)
    finally:
        noise.NoiseSpec.rng = rng
    return counts["normals"]


def job_probe_layers(a: dict) -> dict:
    """Per-layer timings of noise, paths, estimators and harness."""
    import numpy as np
    from msfou import HurstParam, NoiseSpec

    noise, paths, estimators, harness = (
        _mod("noise"), _mod("paths"), _mod("estimators"), _mod("harness")
    )
    out = {}
    # first, while this process has no cached correction integrals: the
    # forked workers then start as cold as the CLI's do
    rate = a["rate"]
    t0 = clock()
    harness.run_rate_experiment(
        _config(rate, a["seeds"][0], rate["reps"], "lse"), rate["t_grid"], workers=rate["workers"]
    )
    out["rate_inproc_s"] = clock() - t0

    h = HurstParam(a["H"])
    n_steps, d = a["N"], a["d"]
    seeds = a["seeds"][: a["repeat"]]
    # sample_fgn and euler_msfou on the same spec, back to back, so that
    # their difference (the Euler step's own time) sees the same machine
    fgn_s, euler_s = [], []
    for s in seeds:
        fgn_s.append(_timed(noise.sample_fgn, NoiseSpec(n=2 * n_steps, seed=s), h))
        euler_s.append(_timed(paths.euler_msfou, a["theta"], h, d, n_steps, s))
    out["sample_fgn_s"] = statistics.median(fgn_s)
    out["euler_s"] = statistics.median(euler_s)
    out["euler_self_s"] = statistics.median(e - f for e, f in zip(euler_s, fgn_s))
    lags = np.arange(2 * n_steps + 1)
    out["autocov_s"] = _median_time(noise.fgn_autocovariance, [(lags, h)] * a["repeat"])
    fgn = noise.sample_fgn(NoiseSpec(n=2 * n_steps, seed=seeds[0]), h)
    out["fold_s"] = _median_time(
        lambda y: paths.sfbm_path(paths.two_sided_fbm(y, d, h)), [(fgn,)] * a["repeat"]
    )
    out["normals_per_path"] = _normals_per_path(a, h)

    xs = [paths.euler_msfou(a["theta"], h, d, n_steps, s) for s in seeds]
    out["practical_s"] = _median_time(estimators.practical_estimator, [(x, h) for x in xs])
    out["invert_p_iters"] = statistics.median(
        estimators.practical_estimator(x, h).diagnostics["iterations"] for x in xs
    )

    h_rate = HurstParam(rate["H"])
    lse_cold, lse_warm, panels = [], [], []
    for big_t in rate["t_grid"]:
        x = paths.euler_msfou(rate["theta"], h_rate, rate["d"], round(big_t / rate["d"]), seeds[0])
        args = (x, h_rate, rate["theta"])
        t0 = clock()
        r = estimators.lse_skorohod(*args)
        lse_cold.append(clock() - t0)
        panels.append(r.diagnostics["correction_panels"])
        lse_warm.append(_median_time(estimators.lse_skorohod, [args] * a["repeat"]))
    out["lse_cold_s"] = statistics.median(lse_cold)
    out["lse_warm_s"] = statistics.median(lse_warm)
    out["correction_panels"] = statistics.median(panels)

    # harness self time: table wall minus the replications' simulate and
    # estimate spans
    tracer = Tracer()
    tracer.wrap(harness, "euler_msfou", "paths.euler_msfou", new_request=True)
    tracer.wrap(harness, "practical_estimator", "estimators.practical_estimator")
    cfg = _config(a, a["seeds"][1], a["table_reps"], "practical")
    with tracer.span("harness.run_table_experiment"):
        st = harness.run_table_experiment(cfg, workers=1)
    tracer.restore()
    wall, inner = child_time(tracer.records(), "harness.run_table_experiment")
    out["harness_self_s"] = wall - inner
    out["failed_reps"] = st.n_failed

    walls = {}
    for workers in (1, 2):
        t0 = clock()
        st = harness.run_table_experiment(cfg, workers=workers)
        walls[workers] = clock() - t0
        out["failed_reps"] += st.n_failed
    out["parallel_eff"] = walls[1] / (2.0 * walls[2])
    return out


JOBS = {
    "setup": job_setup,
    "mc": job_mc,
    "mle": job_mle,
    "cli_traced": job_cli_traced,
    "probe_numerics": job_probe_numerics,
    "probe_mle": job_probe_mle,
    "probe_layers": job_probe_layers,
}

COUNTS = {"on": False, "systems": 0, "flops": 0.0}


def main() -> None:
    job, args = sys.argv[1], json.loads(sys.argv[2])
    if job == "probe_mle":
        _count_dense_linalg(COUNTS)
    import msfou  # noqa: F401  (the set-up being timed)

    print("ready", flush=True)
    out = JOBS[job](args)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
