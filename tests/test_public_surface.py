"""msfou's public names, and every name the demos and the README import.

``msfou.__all__`` is ``__version__`` followed by the ``__all__`` of the six
library modules, each name the very object its module defines. The demos
take minutes to run, so this suite only parses them (and the ```python
blocks of the README) and resolves their msfou imports. It also pins that
a fresh ``import msfou.cli`` loads no scipy, and which calls load it.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import msfou

ROOT = Path(__file__).resolve().parents[1]


LIBRARY_MODULES = ("estimators", "harness", "mle", "noise", "numerics", "paths")


def test_public_names_are_declared_once():
    assert len(msfou.__all__) == len(set(msfou.__all__)) == 38


def test_public_names_are_the_modules_names():
    # msfou.mle is the estimator, so modules are looked up by their full name
    modules = [importlib.import_module(f"msfou.{name}") for name in LIBRARY_MODULES]
    assert msfou.__all__ == ["__version__"] + [n for module in modules for n in module.__all__]
    for module in modules:
        for name in module.__all__:
            assert getattr(msfou, name) is getattr(module, name), name
    assert msfou.mle is importlib.import_module("msfou.mle").mle


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from msfou import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(msfou.__all__)


def _sources() -> dict:
    out = {p.name: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("demos/*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        out[f"README-python-{i}"] = block
    return out


SOURCES = _sources()


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_msfou_imports_resolve(name):
    imported = []
    for node in ast.walk(ast.parse(SOURCES[name])):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "msfou":
            module = importlib.import_module(node.module)
            imported += [(node.module, alias.name, module) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "msfou":
                    importlib.import_module(alias.name)
                    imported.append((alias.name, None, None))
    assert imported, f"{name} imports nothing from msfou"
    missing = [f"{mod}.{attr}" for mod, attr, module in imported if attr and not hasattr(module, attr)]
    assert not missing, f"{name} imports names msfou does not define: {missing}"


def test_sources_found():
    assert any(name.endswith(".py") for name in SOURCES)
    assert any(name.startswith("README") for name in SOURCES)


# the scipy modules, and the public scipy subpackages, loaded in this process
SCIPY = """
import sys
def scipy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}
def subpackages(modules):
    return sorted({m.split(".")[1] for m in modules if m.startswith("scipy.")
                   and not m.split(".")[1].startswith("_")})
"""


def _fresh(code: str):
    """What a fresh interpreter that imports this msfou prints last, as a literal."""
    env = dict(os.environ, PYTHONPATH=str(Path(msfou.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", SCIPY + code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_cli_import_skips_scipy_signal_and_stats():
    # No scipy module at all: a fresh `import msfou.cli` takes 0.15 s and
    # 29.6 MiB of peak RSS, against 0.35 s and 55.8 MiB while it loaded scipy's
    # sparse and special (medians of 12 alternated runs on 2 cores,
    # tests/oracles/startup_cost.py); every short CLI run paid that. scipy is
    # imported where it is used: special by the correction integral and the
    # kernel solves, sparse by the likelihood's grid plan.
    assert _fresh("import msfou.cli; print(sorted(scipy_modules()))") == []


def test_practical_nonergodic_and_simulate_load_no_scipy(tmp_path):
    out = tmp_path / "path.csv"
    code = f"""
from msfou import HurstParam, euler_msfou, nonergodic_estimator, practical_estimator
from msfou.cli import main
h = HurstParam(0.65)
x = euler_msfou(1.0, H=h, d=0.01, N=2000, seed=3)
practical_estimator(x, h)
nonergodic_estimator(x)
main(["simulate", "--theta", "1", "--hurst", "0.65", "--d", "0.01", "--T", "20",
      "--seed", "3", "--out", {str(out)!r}])
print(sorted(scipy_modules()))
"""
    assert _fresh(code) == []
    assert out.stat().st_size > 0


# A pooled run checks its config and runs replication 0 in the parent, then
# forks its workers. "<estimator>": (what the parent runs before it forks,
# the scipy subpackages that loads)
BEFORE_FORK = {
    "lse": ("cfg = ExperimentConfig(estimator=Method.LSE_SKOROHOD, **FIELDS)",
            ["special", "version"]),
    "mle": ("cfg = ExperimentConfig(estimator=Method.MLE, mle_mesh=16, **FIELDS)\n"
            "assert harness._guarded_estimate(cfg, 0) is not None",
            ["sparse", "special", "version"]),
}


@pytest.mark.parametrize("before_fork,loaded", BEFORE_FORK.values(), ids=BEFORE_FORK.keys())
def test_pooled_run_loads_scipy_before_it_forks(before_fork, loaded):
    # so a worker forked afterwards inherits scipy and never imports it itself
    code = f"""
from msfou import ExperimentConfig, Method, harness
FIELDS = dict(theta_true=1.0, H=0.65, d=0.1, T=5.0, replications=4, master_seed=7)
assert not scipy_modules()
{before_fork}
parent = scipy_modules()
# the replications a worker runs
assert all(harness._guarded_estimate(cfg, rep) is not None for rep in range(1, 4))
print([subpackages(parent), sorted(scipy_modules() - parent)])
"""
    assert _fresh(code) == [loaded, []]
