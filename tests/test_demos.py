"""Guards for the demos and the package namespace.

Every name a demo imports from ``pltdual`` must resolve, and so must every
name in ``pltdual.__all__``.  The two fast demos are also run to the end,
which catches a demo reading an attribute the library no longer has, and
the CSV that ``field_energy.py`` writes is checked against ``field_table``;
the particle demo takes several seconds and is only checked statically.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pltdual
from pltdual.duality import splitting
from pltdual.fieldsim import integrate_field, random_smooth_loop
from pltdual.groups import GroupKit
from pltdual.models import make_preset
from pltdual.reporting import field_table

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
    if name == "field_energy.py":
        _check_field_energy_csv(tmp_path / "field_energy.csv")


def _check_field_energy_csv(path: Path):
    """The demo's CSV has ``field_table``'s column line and one row per
    record: 400 steps recorded every 40, and t = 0."""
    preset = make_preset("modified-principal", algebra="su2")
    kit = GroupKit(preset.bialgebra)
    state = random_smooth_loop(kit, splitting(preset), 8, boundary="periodic", seed=0)
    columns, _ = field_table(integrate_field(state, 1e-3, 1))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == ",".join(columns)
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 11 and all(len(row) == len(columns) for row in rows)
    assert [float(row[0]) for row in rows] == pytest.approx([0.1 * j for j in range(11)])
