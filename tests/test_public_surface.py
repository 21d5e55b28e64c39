"""Every name the demos and the README examples import from msfou exists.

The demos take minutes to run, so this suite only parses them (and the
```python blocks of the README) and resolves their msfou imports. It also
pins which scipy subpackages a fresh ``import msfou.cli`` loads.
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


def test_cli_import_skips_scipy_signal_and_stats():
    # scipy.signal, with the scipy.stats it imports, costs about as much start-up
    # as all the rest of msfou; every short CLI run and pool worker would pay it.
    # scipy.integrate and scipy.optimize, which bring scipy.spatial, scipy.fft
    # and scipy.constants, cost about a third of the rest. scipy.linalg cost
    # every process 6.3 MiB of peak RSS and about 0.08 s of `import msfou.cli`
    # (medians of 24 alternated runs on 2 cores); the Euler recursion needs
    # numpy alone. The whole set is pinned, so that no new import slips in.
    env = dict(os.environ, PYTHONPATH=str(Path(msfou.__file__).resolve().parents[1]))
    code = (
        "import sys, msfou.cli; "
        "print(sorted({m.split('.')[1] for m in sys.modules "
        "if m.startswith('scipy.') and not m.split('.')[1].startswith('_')}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    loaded = ast.literal_eval(out.stdout.strip())
    assert not {"signal", "stats", "integrate", "optimize", "linalg"} & set(loaded)
    assert loaded == ["sparse", "special", "version"]
