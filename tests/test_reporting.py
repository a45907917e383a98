"""Deterministic artifact rendering: canonical hashing, headers, tables."""

import csv
import io
import json

import numpy as np
import pytest

from pltdual import __version__
from pltdual.cli import run
from pltdual.duality import splitting
from pltdual.fieldsim import integrate_field, random_smooth_loop
from pltdual.groups import GroupKit
from pltdual.models import make_preset
from pltdual.particle import integrate_particle
from pltdual.reporting import (
    artifact_header,
    block_table,
    canonical_json,
    config_hash,
    field_table,
    particle_table,
    render_csv,
    render_json,
)


def test_canonical_json_key_order_independent():
    a = {"b": 1, "a": [1, 2], "c": {"y": 2.5, "x": 1}}
    b = {"c": {"x": 1, "y": 2.5}, "a": [1, 2], "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert config_hash(a) == config_hash(b)


def test_canonical_json_numpy_types():
    doc = {
        "i": np.int64(3),
        "f": np.float64(0.25),
        "b": np.bool_(True),
        "arr": np.array([1.0, 2.0]),
        "z": np.complex128(1.0 + 2.0j),
        "zr": np.complex128(4.0),
    }
    parsed = json.loads(canonical_json(doc))
    assert parsed == {
        "i": 3,
        "f": 0.25,
        "b": True,
        "arr": [1.0, 2.0],
        "z": {"im": 2.0, "re": 1.0},
        "zr": 4.0,
    }


# numpy and Python scalars, complex numbers with zero and non-zero imaginary parts,
# a complex array, a tuple and a nested dict, with their text captured once
_MIXED_PAYLOAD = {
    "f": np.float64(0.1),
    "i": np.int64(-7),
    "b": np.bool_(False),
    "z0": 2.5 + 0j,
    "z1": 1.5 - 2j,
    "nz0": np.complex128(3.0),
    "nz1": np.complex64(0.5 + 0.25j),
    "arr": np.array([[1 + 0j, 0.5j], [2 - 1j, -3 + 0j]]),
    "tup": (1, 2.0, "x"),
    "nest": {"b": {"c": [np.float64(1e-300), None, True]}, "a": 1},
}


def test_canonical_json_literal_text():
    assert canonical_json(_MIXED_PAYLOAD) == (
        '{"arr":[[1.0,{"im":0.5,"re":0.0}],[{"im":-1.0,"re":2.0},-3.0]],"b":false,'
        '"f":0.1,"i":-7,"nest":{"a":1,"b":{"c":[1e-300,null,true]}},"nz0":3.0,'
        '"nz1":{"im":0.25,"re":0.5},"tup":[1,2.0,"x"],"z0":2.5,"z1":{"im":-2.0,"re":1.5}}'
    )


def test_render_json_literal_text():
    text = render_json({"seed": np.int64(0)}, _MIXED_PAYLOAD)
    assert text == (
        '{\n  "arr": [\n    [\n      1.0,\n      {\n        "im": 0.5,\n'
        '        "re": 0.0\n      }\n    ],\n    [\n      {\n        "im": -1.0,\n'
        '        "re": 2.0\n      },\n      -3.0\n    ]\n  ],\n  "b": false,\n'
        '  "config_hash": "bd0488843468e63c62bb6d1df790f0a83de90616c0906e9dbd3275d3b4100d97",\n'
        '  "f": 0.1,\n  "i": -7,\n  "nest": {\n    "a": 1,\n    "b": {\n      "c": [\n'
        '        1e-300,\n        null,\n        true\n      ]\n    }\n  },\n'
        '  "nz0": 3.0,\n  "nz1": {\n    "im": 0.25,\n    "re": 0.5\n  },\n  "tup": [\n'
        '    1,\n    2.0,\n    "x"\n  ],\n  "version": "0.1.0",\n  "z0": 2.5,\n'
        '  "z1": {\n    "im": -2.0,\n    "re": 1.5\n  }\n}\n'
    )


def test_hash_changes_with_content():
    assert config_hash({"seed": 0}) != config_hash({"seed": 1})
    assert len(config_hash({})) == 64


def test_artifact_header_no_timestamp():
    h = artifact_header({"seed": 0})
    assert set(h) == {"config_hash", "version"}
    assert h["version"] == __version__


def test_render_csv_layout():
    text = render_csv({"seed": 0}, ["t", "x"], np.array([[0.0, 1.5], [0.1, 2.5]]))
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    header = json.loads(lines[0][2:])
    assert header["config_hash"] == config_hash({"seed": 0})
    assert lines[1] == "t,x"
    assert lines[2] == "0.0,1.5"
    # repr round-trips floats exactly
    assert float(lines[3].split(",")[1]) == 2.5
    assert text.endswith("\n") and len(lines) == 4


def test_render_csv_deterministic():
    args = ({"seed": 3, "dt": 1e-3}, ["a"], np.array([[1 / 3]]))
    assert render_csv(*args) == render_csv(*args)


def test_render_json_merges_header():
    text = render_json({"seed": 0}, {"summary": {"ok": True}})
    doc = json.loads(text)
    assert doc["config_hash"] == config_hash({"seed": 0})
    assert doc["summary"] == {"ok": True}
    assert "timestamp" not in text and "date" not in doc


def test_complex_columns_and_cells():
    columns, table = block_table([
        ("p", np.array([[1.0 + 2.0j, 3.0]])),
        ("H", np.array([5.0 - 1.0j])),
        ("gap", np.array([0.5])),
    ])
    assert columns == ["p0_re", "p0_im", "p1_re", "p1_im", "H_re", "H_im", "gap"]
    assert table.dtype == np.float64
    assert table.tolist() == [[1.0, 2.0, 3.0, 0.0, 5.0, -1.0, 0.5]]
    # a complex block with no rows keeps its columns
    columns, table = block_table([("t", np.zeros(0)), ("I", np.zeros((0, 2), dtype=complex))])
    assert columns == ["t", "I0_re", "I0_im", "I1_re", "I1_im"]
    assert table.shape == (0, 5)


def _su2():
    pre = make_preset("modified-principal", algebra="su2")
    return GroupKit(pre.bialgebra), splitting(pre)


def test_tables_match_columns():
    kit, split = _su2()
    ptraj = integrate_particle(kit, split, np.eye(2), np.array([0.1, 0.2, 0.3]), 1e-2, 3)
    cols, table = particle_table(ptraj)
    assert table.shape == (len(ptraj.times), len(cols)) and table.dtype == np.float64
    assert cols[0] == "t" and "H_re" in cols and "Q_G0_re" in cols and "u3_im" in cols

    st = random_smooth_loop(kit, split, 16, boundary="periodic", seed=0, amplitude=0.1)
    ftraj = integrate_field(st, 5e-3, 2, diagnostics=True)
    cols, table = field_table(ftraj)
    assert table.shape == (len(ftraj.times), len(cols)) and table.dtype == np.float64
    assert "duality_gap" in cols and "f_d_re" in cols


def test_run_metadata_shape(tmp_path, capsys):
    """A run's metadata holds its configuration and its summary."""
    meta = tmp_path / "run.json"
    assert run(["particle", "--T", "0.01", "--seed", "1", "--metadata", str(meta)]) == 0
    capsys.readouterr()
    doc = json.loads(meta.read_text())
    assert doc["config"]["seed"] == 1
    assert doc["summary"]["completed"] is True


# ---- the former row-by-row writer, an oracle for the array writer --------------------


def _cell(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def complex_columns(stem: str, count: int | None = None) -> list:
    if count is None:
        return [f"{stem}_re", f"{stem}_im"]
    cols = []
    for i in range(count):
        cols += [f"{stem}{i}_re", f"{stem}{i}_im"]
    return cols


def complex_cells(values) -> list:
    cells = []
    for v in np.atleast_1d(np.asarray(values, dtype=complex)):
        cells += [float(v.real), float(v.imag)]
    return cells


def oracle_particle_table(traj) -> tuple[list, list]:
    n = traj.ps.shape[1]
    n2 = traj.moments.shape[1]
    columns = (["t"] + complex_columns("u", 4) + complex_columns("p", n)
               + complex_columns("H") + complex_columns("Q_G", n)
               + complex_columns("I_delta", n2))
    rows = []
    for j, t in enumerate(traj.times):
        rows.append(
            [float(t)]
            + complex_cells(traj.us[j].reshape(-1))
            + complex_cells(traj.ps[j])
            + complex_cells(traj.hams[j])
            + complex_cells(traj.charges_g[j])
            + complex_cells(traj.moments[j])
        )
    return columns, rows


def oracle_field_table(traj) -> tuple[list, list]:
    n2 = traj.moments.shape[1]
    columns = (["t"] + complex_columns("H_total")
               + ["eom_res_g", "eom_res_dual", "duality_gap"]
               + complex_columns("I_delta", n2) + complex_columns("f_d"))
    rows = []
    for j, t in enumerate(traj.times):
        rows.append(
            [float(t)]
            + complex_cells(traj.hamiltonians[j])
            + [float(traj.eom_residuals_g[j]), float(traj.eom_residuals_dual[j])]
            + [float(traj.duality_gaps[j])]
            + complex_cells(traj.moments[j])
            + complex_cells(traj.f_d[j])
        )
    return columns, rows


def oracle_csv(config: dict, columns: list, rows) -> str:
    buf = io.StringIO()
    buf.write("# " + canonical_json(artifact_header(config)) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _particle_case():
    kit, split = _su2()
    traj = integrate_particle(kit, split, kit.exp_g(np.array([0.2, -0.1, 0.3])),
                              np.array([0.4, -0.3, 0.1]), 1e-2, 20, record_every=3)
    assert len(traj.times) == 8
    return traj, particle_table, oracle_particle_table


def _field_case():
    kit, split = _su2()
    st = random_smooth_loop(kit, split, 16, boundary="periodic", seed=1, amplitude=0.2)
    traj = integrate_field(st, 5e-3, 6, record_every=2, diagnostics=True)
    assert np.isnan(traj.eom_residuals_g[0]) and np.isnan(traj.eom_residuals_dual[0])
    return traj, field_table, oracle_field_table


def _field_t0_exit_case():
    pre = make_preset("modified-principal", algebra="sl2r")
    kit = GroupKit(pre.bialgebra)
    st = random_smooth_loop(kit, splitting(pre), 16, boundary="periodic", seed=3, amplitude=1.8)
    traj = integrate_field(st, 0.01, 4, diagnostics=True)
    assert len(traj.times) == 0 and traj.failure.startswith("FactorizationError at step 0")
    return traj, field_table, oracle_field_table


@pytest.mark.parametrize("case", [_particle_case, _field_case, _field_t0_exit_case],
                         ids=["particle", "field-nan-residuals", "field-t0-chart-exit"])
def test_array_writer_matches_row_oracle(case):
    """The array table renders to the same text as the former row-by-row
    writer, column line included."""
    traj, table_of, oracle_of = case()
    config = {"seed": 0, "case": case.__name__}
    text = render_csv(config, *table_of(traj))
    assert text == oracle_csv(config, *oracle_of(traj))
    assert len(text.splitlines()) == 2 + len(traj.times)
