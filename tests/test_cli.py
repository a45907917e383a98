"""Command-line interface: exit codes, artifacts, determinism, sweeps."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pltdual
from pltdual import cli
from pltdual.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, build_parser, run
from pltdual.duality import limit_slopes
from pltdual.models import ALGEBRA_NAMES, PRESET_NAMES


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
    assert set(doc) == {
        "algebra", "config_hash", "lam", "max_residual", "mu", "passed", "preset",
        "residuals", "split_denominator", "version",
    }
    assert set(doc["residuals"]) == {
        "cybe",
        "symmetric_part_invariance",
        "dual_jacobi",
        "double_jacobi",
        "pairing_ad_invariance",
        "chiral_iso_morphism",
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
    assert meta["summary"]["max_ad_cond"] >= 1.0
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


@pytest.mark.parametrize("argv, failed_at", [
    (["particle", "--algebra", "sl2r", "--p0=5,5,5", "--dt", "1e-2"], 32),
    (["field", "--N", "16", "--dt", "0.5", "--T", "2", "--amplitude", "2"], None),
    (["field", "--algebra", "sl2r", "--amplitude", "2"], 0),
    (["particle", "--T", "0.05"], None),
], ids=["particle-non-finite", "field-non-finite", "field-chart-exit", "particle-completed"])
def test_metadata_steps_counts_the_steps_completed(capsys, tmp_path, argv, failed_at):
    """A stopped run's metadata counts the steps completed before the one
    that failed, not the steps requested; a completed run counts them all."""
    out_meta = tmp_path / "meta.json"
    code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "out.csv"),
                           "--metadata", str(out_meta))
    summary = json.loads(out_meta.read_text())["summary"]
    if code == EXIT_OK:
        assert summary["completed"] and summary["steps"] == 50
        return
    step = int(re.search(r"at step (\d+) ", json.loads(err)["error"]["message"])[1])
    assert failed_at in (None, step)
    assert not summary["completed"] and summary["steps"] == max(step - 1, 0)


@settings(max_examples=25, deadline=None)
@given(
    algebra=st.sampled_from(ALGEBRA_NAMES),
    preset=st.sampled_from(PRESET_NAMES),
    # mu = 0 has no principal limit (rescale 1/mu)
    lam_mu=st.tuples(st.floats(-2.0, 2.0), st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
    p0=st.lists(st.one_of(st.floats(-1e3, 1e3), st.sampled_from([math.nan, math.inf])),
                min_size=3, max_size=3),
    dt=st.sampled_from([1e-3, 1e-2, 0.1, 0.5]),
    record_every=st.integers(-1, 3),
)
def test_particle_exit_contract_fuzz(algebra, preset, lam_mu, p0, dt, record_every):
    """Any particle configuration ends with exit code 0, 2 or 3, and a
    non-zero code comes with a JSON error document on stderr."""
    argv = ["particle", "--algebra", algebra, "--preset", preset, "--mu", repr(lam_mu[1]),
            "--p0", ",".join(repr(v) for v in p0), "--dt", repr(dt), "--T", repr(8 * dt),
            "--record-every", str(record_every)]
    if preset == "custom":
        argv += ["--lam", repr(lam_mu[0])]
    assert_exit_contract(argv)


def assert_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if code != EXIT_OK:
        assert "error" in json.loads(err.getvalue())


# reproducers of runs that used to end in a traceback or a wrong parse:
# (arguments, exit code, part of the stderr error message); "{tmp}" is a
# scratch directory holding the CONFIG_FILES
CONFIG_FILES = {
    "bad.json": {"N": "abc"},
    "fractional.json": {"N": 16.9, "record_every": 2.5, "seed": 1.7},
    "N-fractional.json": {"N": 16.9},
    "seed-fractional.json": {"seed": 1.7},
    "N-integral-float.json": {"N": 16.0, "T": 0.01},
    "T-dt-bool.json": {"T": True, "dt": True},
    "T-bool.json": {"T": True},
    "pointlike-string.json": {"pointlike": "no"},
    "u0-log-bools.json": {"u0_log": [True, False, True], "T": 0.01},
    "lam-bool.json": {"preset": "custom", "lam": True, "mu": 1},
    "output-int.json": {"output": 2, "T": 0.01},
    "output-bool.json": {"output": True, "T": 0.01},
    "metadata-int.json": {"metadata": 1, "T": 0.01},
}
REPRODUCERS = {
    "record-every-0": (["particle", "--T", "0.01", "--record-every", "0"], EXIT_CONFIG,
                       "'record_every' must be at least 1"),
    "field-record-every-0": (["field", "--N", "16", "--T", "0.01", "--record-every", "0"],
                             EXIT_CONFIG, "'record_every'"),
    "record-every-negative": (["particle", "--T", "0.01", "--record-every", "-3"], EXIT_CONFIG,
                              "'record_every'"),
    "T-inf": (["particle", "--T", "inf"], EXIT_CONFIG, "'T' must be a finite number"),
    "dt-nan": (["particle", "--T", "0.01", "--dt", "nan"], EXIT_CONFIG,
               "'dt' must be a finite number"),
    "steps-overflow": (["particle", "--T", "1e300", "--dt", "1e-300"], EXIT_CONFIG, "'T / dt'"),
    # a T between two step counts used to run to the rounded horizon
    "T-not-whole-steps": (["particle", "--T", "1", "--dt", "0.3"], EXIT_CONFIG,
                          "T = 1 is not a whole number of steps of dt = 0.3 (nearest "
                          "reachable horizons: 0.9 and 1.2)"),
    "field-T-not-whole-steps": (["field", "--N", "16", "--T", "0.01", "--dt", "0.004"],
                                EXIT_CONFIG, "(nearest reachable horizons: 0.008 and 0.012)"),
    "mus-not-numeric": (["limits", "--mus", "10,abc"], EXIT_CONFIG,
                        "'mus' must be a finite number"),
    "mus-negative": (["limits", "--mus", "-10,100"], EXIT_CONFIG, "'mus' must be positive"),
    "config-N-not-numeric": (["field", "--config", "{tmp}/bad.json"], EXIT_CONFIG,
                             "'N' must be an integer"),
    "config-fractional": (["field", "--config", "{tmp}/fractional.json"], EXIT_CONFIG,
                          "'record_every' must be an integer, got 2.5"),
    "config-N-fractional": (["field", "--config", "{tmp}/N-fractional.json"], EXIT_CONFIG,
                            "'N' must be an integer, got 16.9"),
    "config-seed-fractional": (["field", "--config", "{tmp}/seed-fractional.json"], EXIT_CONFIG,
                               "'seed' must be an integer, got 1.7"),
    "config-N-integral-float": (["field", "--config", "{tmp}/N-integral-float.json"], EXIT_OK,
                                None),
    "config-T-dt-bool": (["field", "--config", "{tmp}/T-dt-bool.json"], EXIT_CONFIG,
                         "'dt' must be a finite number, got True"),
    "config-T-bool": (["field", "--config", "{tmp}/T-bool.json"], EXIT_CONFIG,
                      "'T' must be a finite number, got True"),
    "validate-samples-0": (["validate", "--samples", "0"], EXIT_CONFIG,
                           "'samples' must be at least 1"),
    "config-pointlike-string": (["field", "--config", "{tmp}/pointlike-string.json"],
                                EXIT_CONFIG, "'pointlike' must be true or false, got 'no'"),
    "output-dir-missing": (["particle", "--T", "0.01", "--output", "{tmp}/missing/dir/x.csv"],
                           EXIT_CONFIG, "'output' directory does not exist"),
    "metadata-dir-missing": (["particle", "--T", "0.01", "--metadata", "{tmp}/missing/x.json"],
                             EXIT_CONFIG, "'metadata' directory does not exist"),
    "sweep-dir-missing": (["sweep", "--command", "duality", "--replicas", "1", "--output-dir",
                           "{tmp}/missing"], EXIT_CONFIG, "'output_dir' directory does not exist"),
    "output-is-directory": (["particle", "--T", "0.01", "--output", "{tmp}"], EXIT_CONFIG,
                            "Is a directory"),
    "p0-negative-first": (["particle", "--p0", "-1.5,2,3", "--T", "0.01"], EXIT_OK, None),
    "u0-log-negative-first": (["particle", "--u0-log", "-0.1,0.2,0.3", "--T", "0.01"], EXIT_OK,
                              None),
    "p0-negative-inf-first": (["particle", "--p0", "-inf,1,2", "--T", "0.01"], EXIT_CONFIG,
                              "'p0' must be a finite number, got '-inf'"),
    "u0-log-negative-nan-first": (["particle", "--u0-log", "-nan,1,2", "--T", "0.01"],
                                  EXIT_CONFIG, "'u0_log' must be a finite number, got '-nan'"),
    "T-negative-inf": (["particle", "--T", "-inf"], EXIT_CONFIG,
                       "'T' must be a finite number, got -inf"),
    "config-u0-log-bools": (["particle", "--config", "{tmp}/u0-log-bools.json"], EXIT_CONFIG,
                            "'u0_log' must be a finite number, got True"),
    "config-lam-bool": (["validate", "--config", "{tmp}/lam-bool.json"], EXIT_CONFIG,
                        "'lam' must be a finite number, got True"),
    "p0-nan": (["particle", "--p0", "nan,1,1", "--T", "0.01"], EXIT_CONFIG,
               "'p0' must be a finite number, got 'nan'"),
    "u0-log-inf": (["particle", "--u0-log", "inf,0,0", "--T", "0.01"], EXIT_CONFIG,
                   "'u0_log' must be a finite number, got 'inf'"),
    "lam-inf": (["validate", "--preset", "custom", "--lam", "inf", "--mu", "1"], EXIT_CONFIG,
                "'lam' must be a finite number, got 'inf'"),
    "config-output-int": (["particle", "--config", "{tmp}/output-int.json"], EXIT_CONFIG,
                          "'output' must be a path, got 2"),
    "config-output-bool": (["particle", "--config", "{tmp}/output-bool.json"], EXIT_CONFIG,
                           "'output' must be a path, got True"),
    "config-metadata-int": (["particle", "--config", "{tmp}/metadata-int.json"], EXIT_CONFIG,
                            "'metadata' must be a path, got 1"),
    **{f"{command}-principal-limit-mu-0": (
        [command, "--preset", "principal-limit", "--mu", "0"], EXIT_CONFIG,
        "principal-limit preset needs a nonzero mu") for command in ("validate", "particle",
                                                                     "duality")},
    # a lam that the preset ignores would still change the config hash
    **{f"validate-{preset}-lam": (
        ["validate", "--preset", preset, "--lam", "0.5"], EXIT_CONFIG,
        f"the {preset} preset fixes lam") for preset in ("modified-principal", "principal-limit",
                                                         "g-invariant")},
}


@pytest.mark.parametrize("case", REPRODUCERS)
def test_reproducers_keep_the_exit_contract(capsys, tmp_path, case):
    argv, expected, message = REPRODUCERS[case]
    for name, options in CONFIG_FILES.items():
        (tmp_path / name).write_text(json.dumps(options))
    code, out, err = run_cli(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
    assert code == expected
    if message is None:
        assert err == ""
    else:
        assert message in json.loads(err)["error"]["message"]
    if expected == EXIT_CONFIG:  # and no artifact
        assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == sorted(CONFIG_FILES)


# config_hash of accepted configurations, which artifacts already written
# carry: a value hashes as given ("N": 16.0, "seed": "3", "mus": "10,100")
PINNED_HASHES = {
    "field-defaults": (
        ["field"], None, "79463cfcebe02f1236b3ff13c0693f00275eb9334df033e699633fbfe77abe55"),
    "field-N-float": (
        ["field"], {"N": 16.0, "T": 0.01},
        "cff39b01de592466c348f985751b38306330dc70b6dd684c076668176de74df1"),
    "particle-strings": (
        ["particle"], {"seed": "3", "T": 0.01, "dt": "1e-3"},
        "75a09f04401d986ec3e03ff4887a3a2ac4fad57fe4e20c41eff137b6ed008c40"),
    "particle-custom": (
        ["particle", "--preset", "custom", "--lam", "0.3", "--mu", "0.7", "--T", "0.01"], None,
        "93cfe54343e9b2c31447b020f052b939c0caf0821471bd3c78c029369b13dbd7"),
    "duality-N-256": (
        ["duality", "--N", "256"], None,
        "cfe957fdb1fc27725f0663b615ddf5debdaccfc65a2e794b02fda80f08392935"),
    "limits-mus-text": (
        ["limits"], {"mus": "10,100", "samples": 3},
        "62c83e0cbe6fb5bba9f6fcad02278bf191b654bfeb03020d0625573349b769fc"),
}


@pytest.mark.parametrize("case", PINNED_HASHES)
def test_config_hash_pinned(capsys, tmp_path, case):
    argv, options, expected = PINNED_HASHES[case]
    if options is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(options))
        argv = [*argv, "--config", str(tmp_path / "cfg.json")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    header = out[2:out.index("\n")] if out.startswith("# ") else out
    assert json.loads(header)["config_hash"] == expected


@pytest.mark.parametrize("argv", [
    ["particle", "--output", "{tmp}"],
    ["particle", "--metadata", "{tmp}"],
    ["field", "--output", "{tmp}"],
    ["field", "--output", "{tmp}/field.csv", "--metadata", "{tmp}"],
])
def test_output_naming_a_directory_fails_before_integrating(capsys, tmp_path, monkeypatch, argv):
    calls = []
    for name in ("integrate_particle", "integrate_field"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **kw: calls.append(_name))
    code, out, err = run_cli(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
    assert code == EXIT_CONFIG and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "io" and "Is a directory" in error["message"]
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_shared_parser_matches_fresh_parser(capsys):
    """run() builds its parser once; back-to-back runs of different
    subcommands, with a bad flag between them, give the outputs and exit
    codes of runs on a freshly built parser."""
    sequence = [
        ("particle", "--T", "0.02", "--dt", "1e-2", "--algebra", "sl2r"),
        ("validate", "--no-such-flag"),
        ("duality", "--N", "8"),
        ("particle", "--T", "0.02", "--p0", "1,2"),
        ("validate", "--samples", "2"),
    ]
    assert build_parser() is build_parser()
    shared = [run_cli(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_CONFIG, EXIT_OK, EXIT_CONFIG, EXIT_OK]


# ---- field and duality ----------------------------------------------------------------


# run() reports a step past the CFL bound in its JSON documents, and no
# Python warning may escape it
@pytest.mark.filterwarnings("error")
@settings(max_examples=15, deadline=None)
@given(
    algebra=st.sampled_from(ALGEBRA_NAMES),
    preset=st.sampled_from(PRESET_NAMES),
    # lam + 1 + 2 mu = 0 for the sampled pairs: a degenerate splitting
    lam_mu=st.one_of(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                     st.sampled_from([(-1.0, 0.0), (0.0, -0.5), (1.0, -1.0)])),
    n_cells=st.integers(8, 17),
    boundary=st.sampled_from(["periodic", "double-neumann"]),
    amplitude=st.floats(0.0, 3.0),
    cfl=st.floats(0.05, 2.0),  # past 0.5 the step is beyond the CFL bound
    record_every=st.integers(-1, 3),
    steps=st.integers(1, 4),
)
def test_field_exit_contract_fuzz(algebra, preset, lam_mu, n_cells, boundary, amplitude, cfl,
                                  record_every, steps):
    """Any field configuration ends with exit code 0, 2 or 3, and a
    non-zero code comes with a JSON error document on stderr."""
    dt = cfl * 3.141592653589793 / n_cells
    argv = ["field", "--algebra", algebra, "--preset", preset, "--N", str(n_cells),
            "--boundary", boundary, "--amplitude", repr(amplitude), "--dt", repr(dt),
            "--T", repr(steps * dt), "--record-every", str(record_every)]
    if preset == "custom":
        argv += ["--lam", repr(lam_mu[0]), "--mu", repr(lam_mu[1])]
    assert_exit_contract(argv)


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
    assert meta["summary"]["warnings"] == []


def test_field_past_cfl_bound_lists_the_warning(capsys, tmp_path):
    out_meta = tmp_path / "field.json"
    code, _, err = run_cli(capsys, "field", "--N", "16", "--dt", "0.2", "--T", "0.4",
                           "--output", str(tmp_path / "field.csv"), "--metadata", str(out_meta))
    assert code == EXIT_OK and err == ""
    assert json.loads(out_meta.read_text())["summary"]["warnings"] == [
        "dt = 0.2 exceeds the CFL bound 0.5 * dx = 0.0981748"
    ]


def test_field_stderr_is_one_json_document(tmp_path):
    """A process whose field run blows up past the CFL bound writes one
    JSON document to stderr, naming the bound, and no Python warning."""
    src = str(Path(pltdual.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "pltdual.cli", "field", "--N", "16", "--dt", "0.5", "--T", "2",
         "--amplitude", "2", "--output", str(tmp_path / "field.csv")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_NUMERICAL
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "numerical" and "non-finite state" in error["message"]
    assert error["warnings"] == ["dt = 0.5 exceeds the CFL bound 0.5 * dx = 0.0981748"]


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
    assert error["kind"] == "numerical"
    assert error["message"].startswith("FactorizationError at step 0 (t=0): sl2r factorization")
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


@pytest.mark.parametrize("command", ["validate", "duality"])
def test_metadata_key_rejected_where_nothing_writes_it(capsys, tmp_path, command):
    """Only particle and field runs write metadata; elsewhere the key is
    unknown rather than silently ignored."""
    cfg = tmp_path / "cfg.json"
    meta = tmp_path / "m.json"
    cfg.write_text(json.dumps({"metadata": str(meta)}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"]["message"] == (
        f"unknown config key for '{command}': metadata"
    )
    assert out == ""
    assert not meta.exists()


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


@pytest.mark.parametrize("command, base, message", [
    *[("particle", {key: "x"}, f"'base' cannot set '{key}': the sweep sets it for each replica")
      for key in ("seed", "output", "metadata")],
    ("particle", {"cells": 64}, "unknown config key for 'particle': cells"),
    ("field", {"N": "abc"}, "'N' must be an integer, got 'abc'"),
], ids=["seed", "output", "metadata", "unknown", "N-not-integer"])
def test_sweep_base_checked_before_any_replica(capsys, tmp_path, monkeypatch, command, base,
                                               message):
    """A base that sets what the sweep sets for each replica (seed and
    output locations), an unknown key or a bad value is a configuration
    error raised before any replica runs."""
    replicas = []
    monkeypatch.setattr(cli, "_sweep_one", lambda *args: replicas.append(args))
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"command": command, "replicas": 2, "base": base,
                               "output_dir": str(tmp_path / "runs")}))
    (tmp_path / "runs").mkdir()
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert json.loads(err)["error"]["message"] == message
    assert replicas == []
    assert list((tmp_path / "runs").iterdir()) == []


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
