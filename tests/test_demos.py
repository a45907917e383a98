"""Guards for the demos and the package namespace.

Every name a demo imports from ``pltdual`` must resolve, and so must every
name in ``pltdual.__all__``.  The two fast demos are also run to the end,
which catches a demo reading an attribute the library no longer has; the
particle demo takes several seconds and is only checked statically.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pltdual

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demos fast enough to run in the suite (about 0.3 s and 0.8 s)
RUN_DEMOS = ("dual_descriptions.py", "field_energy.py")


def _pltdual_imports(path: Path) -> list:
    """(module, name) for each ``from pltdual... import name`` in a file,
    and (module, None) for each ``import pltdual...``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pltdual":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "pltdual"]
    return found


def _resolves(module: str, name: str | None) -> bool:
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:  # a submodule imported by name
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = _pltdual_imports(demo)
    assert imports, f"{demo.name} imports nothing from pltdual"
    missing = [f"{m}.{n}" if n else m for m, n in imports if not _resolves(m, n)]
    assert not missing, f"{demo.name} imports missing names: {missing}"


def test_package_all_resolves():
    missing = [name for name in pltdual.__all__ if not hasattr(pltdual, name)]
    assert not missing
    assert len(set(pltdual.__all__)) == len(pltdual.__all__)


@pytest.mark.parametrize("name", RUN_DEMOS)
def test_demo_runs(tmp_path, name):
    """The demo runs to exit 0 in a scratch directory, where it writes any
    artifact."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
