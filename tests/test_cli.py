"""Command-line interface: exit codes, artifacts, determinism, sweeps."""

import json

import pytest

from pltdual.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, run
from pltdual.duality import limit_slopes


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- validate -----------------------------------------------------------------------


@pytest.mark.parametrize("algebra", ["su2", "sl2r"])
def test_validate_passes(capsys, algebra):
    code, out, _ = run_cli(capsys, "validate", "--algebra", algebra, "--samples", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] < 1e-10
    assert doc["subspace_rank_plus"] == 3
    assert set(doc["residuals"]) >= {
        "cybe",
        "dual_jacobi",
        "double_jacobi",
        "chiral_iso_morphism",
        "splitting_orthogonality",
        "graph_route_agreement",
    }


def test_unknown_algebra_is_config_error(capsys):
    code, _, err = run_cli(capsys, "validate", "--algebra", "so4")
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"]["kind"] == "config"


def test_degenerate_splitting_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "validate", "--preset", "custom", "--lam", "1.0", "--mu", "-1.0"
    )
    assert code == EXIT_CONFIG
    assert "degenerate" in json.loads(err)["error"]["message"]


def test_bad_flag_is_config_error(capsys):
    code, _, err = run_cli(capsys, "validate", "--no-such-flag")
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"]["kind"] == "config"


# ---- particle -----------------------------------------------------------------------


def test_particle_writes_csv_and_metadata(capsys, tmp_path):
    out_csv = tmp_path / "traj.csv"
    out_meta = tmp_path / "meta.json"
    code, _, _ = run_cli(
        capsys,
        "particle",
        "--dt", "1e-2",
        "--T", "0.2",
        "--output", str(out_csv),
        "--metadata", str(out_meta),
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    header = json.loads(lines[0][2:])
    assert "config_hash" in header
    cols = lines[1].split(",")
    assert cols[0] == "t" and "p0_re" in cols and "H_re" in cols
    assert len(lines) == 2 + 21  # header + columns + initial + 20 steps
    meta = json.loads(out_meta.read_text())
    assert meta["summary"]["completed"] is True
    assert meta["config_hash"] == header["config_hash"]
    assert meta["config"]["dt"] == 1e-2


def test_particle_explicit_initial_data(capsys):
    code, out, _ = run_cli(
        capsys,
        "particle",
        "--dt", "1e-2",
        "--T", "0.05",
        "--u0-log", "0.1,0.2,0.3",
        "--p0", "0.4,-0.2,0.1",
    )
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("t,")


def test_particle_bad_vector_is_config_error(capsys):
    code, _, err = run_cli(capsys, "particle", "--p0", "0.1,nope")
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"]["kind"] == "config"


def test_particle_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "particle", "--dt", "1e-2", "--T", "0.1", "--seed", "3",
            "--output", str(path),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_output_path_does_not_change_hash(capsys, tmp_path):
    """Artifacts hash only what was computed, not where it was written."""
    a, b = tmp_path / "x" , tmp_path / "y"
    a.mkdir(); b.mkdir()
    texts = []
    for d in (a, b):
        run_cli(capsys, "particle", "--dt", "1e-2", "--T", "0.1",
                "--output", str(d / "t.csv"))
        texts.append((d / "t.csv").read_text())
    assert texts[0] == texts[1]


def test_particle_stopped_run_reports_on_stderr(capsys, tmp_path):
    """A particle run that blows up keeps the rows recorded so far, marks
    the metadata incomplete and writes a JSON error document naming the
    step and time."""
    out_csv = tmp_path / "traj.csv"
    out_meta = tmp_path / "meta.json"
    code, _, err = run_cli(
        capsys, "particle", "--algebra", "sl2r", "--p0", "5,5,5", "--dt", "1e-2",
        "--output", str(out_csv), "--metadata", str(out_meta),
    )
    assert code == EXIT_NUMERICAL
    error = json.loads(err)["error"]
    assert error["kind"] == "numerical"
    assert error["message"] == "non-finite state at step 32 (t=0.32)"
    rows = out_csv.read_text().splitlines()[2:]
    assert 1 <= len(rows) < 101
    assert json.loads(out_meta.read_text())["summary"]["completed"] is False


# ---- field and duality ----------------------------------------------------------------


def test_field_run(capsys, tmp_path):
    out_csv = tmp_path / "field.csv"
    out_meta = tmp_path / "field.json"
    code, _, _ = run_cli(
        capsys,
        "field",
        "--N", "16",
        "--dt", "5e-3",
        "--T", "0.05",
        "--record-every", "5",
        "--output", str(out_csv),
        "--metadata", str(out_meta),
    )
    assert code == EXIT_OK
    lines = out_csv.read_text().splitlines()
    cols = lines[1].split(",")
    for name in ("t", "H_total_re", "eom_res_g", "eom_res_dual", "duality_gap", "f_d_re"):
        assert name in cols
    meta = json.loads(out_meta.read_text())
    assert meta["summary"]["max_duality_gap"] < 1e-9


def test_field_neumann_odd_cell_count(capsys, tmp_path):
    """An odd cell count takes the trapezoid branch of the quadrature."""
    code, _, _ = run_cli(
        capsys, "field", "--boundary", "double-neumann", "--N", "33",
        "--output", str(tmp_path / "field.csv"),
    )
    assert code == EXIT_OK


def test_field_chart_exit_keeps_partial_artifacts(capsys, tmp_path):
    """A chart exit at t=0 still writes the CSV (header only) and metadata,
    and reports the error on stderr."""
    out_csv = tmp_path / "field.csv"
    out_meta = tmp_path / "field.json"
    code, _, err = run_cli(
        capsys, "field", "--algebra", "sl2r", "--amplitude", "2",
        "--output", str(out_csv), "--metadata", str(out_meta),
    )
    assert code == EXIT_NUMERICAL
    error = json.loads(err)["error"]
    assert error["kind"] == "numerical" and "FactorizationError" in error["message"]
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("t,H_total_re")
    assert json.loads(out_meta.read_text())["summary"]["completed"] is False


def test_field_pointlike_flag(capsys):
    code, out, _ = run_cli(
        capsys, "field", "--N", "16", "--dt", "5e-3", "--T", "0.02", "--pointlike"
    )
    assert code == EXIT_OK


def test_field_bad_boundary_is_config_error(capsys):
    code, _, err = run_cli(capsys, "field", "--boundary", "open")
    assert code == EXIT_CONFIG


def test_duality_report(capsys):
    code, out, _ = run_cli(capsys, "duality", "--N", "16", "--seed", "2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["duality_gap"] < 1e-9


# ---- config files ---------------------------------------------------------------------


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": 1e-2, "T": 0.1, "seed": 5}))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    # flags override the file: T from the flag, dt/seed from the file
    code, _, _ = run_cli(
        capsys, "particle", "--config", str(cfg), "--T", "0.05", "--output", str(out_a)
    )
    assert code == EXIT_OK
    code, _, _ = run_cli(
        capsys, "particle", "--dt", "1e-2", "--T", "0.05", "--seed", "5",
        "--output", str(out_b),
    )
    assert code == EXIT_OK
    # same effective configuration, same bytes
    assert out_a.read_text() == out_b.read_text()


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cells": 64}))
    code, _, err = run_cli(capsys, "field", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert "unknown config key" in json.loads(err)["error"]["message"]


def test_missing_config_file_rejected(capsys):
    code, _, err = run_cli(capsys, "validate", "--config", "/does/not/exist.json")
    assert code == EXIT_CONFIG


# ---- sweep ------------------------------------------------------------------------


def test_sweep_manifest_and_replicas(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "particle",
                "replicas": 3,
                "base": {"dt": 1e-2, "T": 0.05},
                "output_dir": str(tmp_path),
            }
        )
    )
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["replicas"] == 3
    seeds = [r["seed"] for r in manifest["runs"]]
    assert seeds == [0, 1, 2]
    for entry in manifest["runs"]:
        assert entry["exit_code"] == EXIT_OK
        for f in entry["files"]:
            assert (tmp_path / f.split("/")[-1]).exists()
    # different seeds produce different data files
    a = (tmp_path / "particle_seed0.csv").read_text()
    b = (tmp_path / "particle_seed1.csv").read_text()
    assert a != b


def test_sweep_hash_independent_of_directory_and_workers(capsys, tmp_path):
    """The manifest hashes what was computed, not where or by how many
    workers."""
    hashes = []
    for sub, workers in (("a", "1"), ("b", "2")):
        out_dir = tmp_path / sub
        out_dir.mkdir()
        code, _, _ = run_cli(
            capsys, "sweep", "--command", "duality", "--replicas", "1",
            "--output-dir", str(out_dir), "--max-workers", workers,
        )
        assert code == EXIT_OK
        hashes.append(json.loads((out_dir / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


def test_sweep_rejects_unknown_command(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "sweep", "--command", "limits", "--output-dir", str(tmp_path)
    )
    assert code == EXIT_CONFIG


# ---- limits -----------------------------------------------------------------------


def test_limits_report(capsys):
    code, out, _ = run_cli(capsys, "limits", "--samples", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert abs(doc["slope_primal"] + 1.0) < 0.2
    assert abs(doc["slope_dual"] + 1.0) < 0.2


def test_limits_rejects_noncompact(capsys):
    code, _, err = run_cli(capsys, "limits", "--algebra", "sl2r")
    assert code == EXIT_CONFIG


def test_limit_slopes_library_entry():
    report = limit_slopes(samples=5)
    assert len(report["deviations_primal"]) == 3
    assert report["passed"]
