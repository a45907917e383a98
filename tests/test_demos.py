"""Static guard for the demos and the package namespace.

The demos are not run by the test suite (the particle demo alone takes
several seconds), so their imports are checked without running them:
every name a demo imports from ``pltdual`` must resolve, and so must
every name in ``pltdual.__all__``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pltdual

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
