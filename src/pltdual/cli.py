"""Command-line interface for the simulator.

Subcommands
-----------

* ``validate``  -- structural residual report for one preset (JSON).
* ``particle``  -- integrate the point-particle reduction, write a CSV
  trajectory and an optional metadata JSON.
* ``field``     -- integrate the loop field, write the diagnostic CSV.
* ``duality``   -- factorize a seeded loop both ways and report the gap
  between the two Hamiltonian descriptions.
* ``sweep``     -- run several seeded replicas of one command
  concurrently and write a single manifest for the whole batch.
* ``limits``    -- slope fits of the two limiting families against their
  closed-form targets.

Every subcommand accepts ``--config FILE`` with a JSON object of
options; explicit command-line flags override the file.  The random
seed defaults to 0 and all outputs are byte-identical for a fixed
configuration.  Exit codes: 0 success, 2 configuration error (with a
machine-readable JSON error document on stderr), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .duality import (
    GraphBlowupError,
    SplittingError,
    limit_slopes,
    splitting,
    validation_report,
)
from .fieldsim import (
    CFLWarning,
    duality_check,
    init_pointlike,
    integrate_field,
    random_smooth_loop,
)
from .groups import FactorizationError, GroupKit
from .models import ALGEBRA_NAMES, PRESET_NAMES, make_preset
from .particle import integrate_particle
from .reporting import (
    config_hash,
    field_table,
    particle_table,
    render_csv,
    render_json,
    run_metadata,
    write_json,
)

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """A run configuration that cannot be executed."""


# ---- configuration ----------------------------------------------------------------

_COMMON_DEFAULTS = {
    "preset": "modified-principal",
    "algebra": "su2",
    "lam": None,
    "mu": None,
    "seed": 0,
    "output": None,
}

_DEFAULTS = {
    "validate": {**_COMMON_DEFAULTS, "samples": 5},
    "particle": {
        **_COMMON_DEFAULTS,
        "dt": 1e-3,
        "T": 1.0,
        "record_every": 1,
        "u0_log": None,
        "p0": None,
        "metadata": None,
    },
    "field": {
        **_COMMON_DEFAULTS,
        "N": 64,
        "dt": 2.5e-3,
        "T": 1.0,
        "boundary": "periodic",
        "amplitude": 0.1,
        "record_every": 10,
        "pointlike": False,
        "metadata": None,
    },
    "duality": {**_COMMON_DEFAULTS, "N": 32, "amplitude": 0.3, "boundary": "periodic"},
    "sweep": {
        "command": "field",
        "replicas": 4,
        "output_dir": ".",
        "base": {},
        "max_workers": 4,
    },
    "limits": {
        "algebra": "su2",
        "mus": [10.0, 100.0, 1000.0],
        "samples": 10,
        "seed": 0,
        "output": None,
    },
}


def _with_options(command: str, options: dict) -> dict:
    """The defaults of ``command`` updated with ``options``, each of which
    must be one of its keys."""
    cfg = dict(_DEFAULTS[command])
    for key, value in options.items():
        if key not in cfg:
            raise ConfigError(f"unknown config key for '{command}': {key}")
        cfg[key] = value
    return cfg


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    loaded = {}
    file_path = getattr(args, "config", None)
    if file_path:
        try:
            with open(file_path) as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {file_path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
    cfg = _with_options(command, loaded)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _check_output_paths(cfg: dict) -> None:
    """Reject an output location whose directory does not exist, or an
    output file that names a directory, before any computation."""
    files = {key: str(cfg[key]) for key in ("output", "metadata") if cfg.get(key)}
    dirs = {key: os.path.dirname(path) or "." for key, path in files.items()}
    if "output_dir" in cfg:
        dirs["output_dir"] = str(cfg["output_dir"])
    for key, path in dirs.items():
        if not os.path.isdir(path):
            raise ConfigError(f"'{key}' directory does not exist: {path}")
    for path in files.values():
        if os.path.isdir(path):
            # the error open() would raise after the run
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _parse_vector(text) -> np.ndarray | None:
    if text is None:
        return None
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        return np.array([complex(part) for part in parts])
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse vector: {text!r}")


def _build_preset(cfg: dict):
    algebra = cfg["algebra"]
    name = cfg["preset"]
    if algebra not in ALGEBRA_NAMES:
        raise ConfigError(f"unknown algebra '{algebra}' (choose from {ALGEBRA_NAMES})")
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset '{name}' (choose from {PRESET_NAMES})")
    lam = cfg["lam"]
    mu = cfg["mu"]
    try:
        preset = make_preset(
            name,
            algebra=algebra,
            lam=None if lam is None else complex(lam),
            mu=None if mu is None else complex(mu),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))
    if not preset.is_factorisable():
        raise ConfigError(
            f"degenerate splitting: lam + 1 + 2 mu = {preset.split_denominator:.3e}"
        )
    return preset


def _float(key: str, value) -> float:
    """``value``, the setting ``key`` or an entry of it, as a finite float."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return number


def _int(key: str, value, minimum: int | None = None) -> int:
    """``value``, the setting ``key``, as an int: a bool or a number with a
    fractional part is not one."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise TypeError
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(f"'{key}' must be at least {minimum}, got {number}")
    return number


def _positive(key: str, value) -> float:
    value = _float(key, value)
    if value <= 0:
        raise ConfigError(f"'{key}' must be positive, got {value}")
    return value


def _emit(cfg: dict, text: str) -> None:
    path = cfg.get("output")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _public_config(cfg: dict) -> dict:
    """Configuration without output locations or worker counts, so artifact
    hashes depend only on what was computed, not where or how it ran."""
    hidden = ("output", "metadata", "config", "output_dir", "max_workers")
    return {k: v for k, v in cfg.items() if k not in hidden}


# ---- validate ---------------------------------------------------------------------


def run_validate(cfg: dict) -> int:
    preset = _build_preset(cfg)
    report = validation_report(
        preset, samples=_int("samples", cfg["samples"], 1), seed=_int("seed", cfg["seed"], 0)
    )
    ok = report["max_residual"] < 1e-10
    report["passed"] = bool(ok)
    _emit(cfg, render_json(_public_config(cfg), report))
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---- shared run scaffolding -------------------------------------------------------


def _time_steps(cfg: dict) -> tuple[float, int]:
    """(dt, number of steps covering T)."""
    dt = _positive("dt", cfg["dt"])
    n_steps = round(_float("T / dt", _positive("T", cfg["T"]) / dt))
    if n_steps < 1:
        raise ConfigError("T must cover at least one step")
    return dt, n_steps


def _model(cfg: dict):
    """(preset, group kit, splitting) of the configured model."""
    preset = _build_preset(cfg)
    return preset, GroupKit(preset.bialgebra), splitting(preset)


def _finish(cfg: dict, columns: list, rows: list, summary: dict, failure: str | None) -> int:
    """Write the trajectory table (to the output path, else stdout) and the
    metadata, report a stopped run on stderr, and return the exit code."""
    public = _public_config(cfg)
    _emit(cfg, render_csv(public, columns, rows))
    if cfg.get("metadata"):
        write_json(cfg["metadata"], public, run_metadata(public, {"summary": summary}))
    if failure is None:
        return EXIT_OK
    sys.stderr.write(_error_json("numerical", failure, summary.get("warnings")))
    return EXIT_NUMERICAL


# ---- particle ---------------------------------------------------------------------


def run_particle(cfg: dict) -> int:
    preset, kit, split = _model(cfg)
    dt, n_steps = _time_steps(cfg)
    n = preset.bialgebra.g.dim
    record_every = _int("record_every", cfg["record_every"], 1)
    rng = np.random.default_rng(_int("seed", cfg["seed"], 0))
    u0_log = _parse_vector(cfg["u0_log"])
    p0 = _parse_vector(cfg["p0"])
    if u0_log is None:
        u0_log = rng.normal(size=n) * 0.3
    if p0 is None:
        p0 = rng.normal(size=n) * 0.4
    if len(u0_log) != n or len(p0) != n:
        raise ConfigError(f"u0_log and p0 must have {n} components")
    u0 = kit.exp_g(np.asarray(u0_log))
    traj = integrate_particle(
        kit, split, u0, np.asarray(p0), dt, n_steps, record_every=record_every
    )
    summary = {
        "completed": traj.completed,
        "hamiltonian_drift": float(np.max(np.abs(traj.hams - traj.hams[0]))),
        "charge_drift": float(np.max(np.abs(traj.charges_g - traj.charges_g[0]))),
        "max_ad_cond": traj.max_ad_cond,
        "steps": n_steps,
    }
    return _finish(cfg, *particle_table(traj), summary, traj.failure)


# ---- field ------------------------------------------------------------------------


def _field_state(cfg: dict, preset, kit, split):
    n_cells = _int("N", cfg["N"], 8)
    boundary = cfg["boundary"]
    if boundary not in ("periodic", "double-neumann"):
        raise ConfigError(f"unknown boundary '{boundary}'")
    seed, amplitude = _int("seed", cfg["seed"], 0), _float("amplitude", cfg["amplitude"])
    pointlike = cfg.get("pointlike", False)
    if not isinstance(pointlike, bool):
        raise ConfigError(f"'pointlike' must be true or false, got {pointlike!r}")
    if pointlike:
        n = preset.bialgebra.g.dim
        rng = np.random.default_rng(seed)
        u0 = kit.exp_g(rng.normal(size=n) * 0.3)
        p = rng.normal(size=n) * amplitude
        if kit.flavor == "su2":
            p = -1j * p
        return init_pointlike(kit, split, u0, p, n_cells, boundary=boundary)
    return random_smooth_loop(kit, split, n_cells, boundary=boundary, seed=seed,
                              amplitude=amplitude)


def run_field(cfg: dict) -> int:
    preset, kit, split = _model(cfg)
    dt, n_steps = _time_steps(cfg)
    record_every = _int("record_every", cfg["record_every"], 1)
    state = _field_state(cfg, preset, kit, split)
    traj = integrate_field(
        state,
        dt,
        n_steps,
        record_every=record_every,
        with_duality=True,
        with_residuals=True,
    )
    hams = traj.hamiltonians
    recorded = len(traj.times) > 0
    summary = {
        "completed": traj.completed,
        "hamiltonian_rel_drift": float(
            np.max(np.abs(hams - hams[0])) / max(abs(hams[0]), 1e-300)
        ) if recorded else None,
        "max_duality_gap": float(np.nanmax(traj.duality_gaps)) if recorded else None,
        "steps": n_steps,
        "warnings": traj.warnings,
    }
    return _finish(cfg, *field_table(traj), summary, traj.failure)


# ---- duality ----------------------------------------------------------------------


def run_duality(cfg: dict) -> int:
    preset, kit, split = _model(cfg)
    state = _field_state(cfg, preset, kit, split)
    gap = duality_check(state)
    report = {
        "preset": preset.name,
        "algebra": preset.bialgebra.g.name,
        "n_cells": state.n_cells,
        "boundary": state.boundary,
        "duality_gap": gap,
        "passed": bool(gap < 1e-9),
    }
    _emit(cfg, render_json(_public_config(cfg), report))
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


# ---- sweep ------------------------------------------------------------------------


# the options a sweep sets for each replica
_REPLICA_KEYS = ("seed", "output", "metadata")


def _sweep_one(command: str, base_cfg: dict, seed: int, output_dir: str) -> dict:
    cfg = dict(base_cfg)
    cfg["seed"] = seed
    stem = f"{command}_seed{seed}"
    if command in ("particle", "field"):
        cfg["output"] = f"{output_dir}/{stem}.csv"
        cfg["metadata"] = f"{output_dir}/{stem}.json"
    else:
        cfg["output"] = f"{output_dir}/{stem}.json"
    code = _RUNNERS[command](cfg)
    return {
        "seed": seed,
        "exit_code": code,
        "config_hash": config_hash(_public_config(cfg)),
        "files": [v for k, v in cfg.items() if k in ("output", "metadata") and v],
    }


def run_sweep(cfg: dict) -> int:
    command = cfg["command"]
    if command not in ("validate", "particle", "field", "duality"):
        raise ConfigError(f"sweep cannot drive command '{command}'")
    replicas = _int("replicas", cfg["replicas"], 1)
    base = cfg["base"]
    if not isinstance(base, dict):
        raise ConfigError("'base' must be a JSON object of command options")
    for key in _REPLICA_KEYS:
        if key in base:
            raise ConfigError(f"'base' cannot set '{key}': the sweep sets it for each replica")
    base_cfg = _with_options(command, base)
    output_dir = str(cfg["output_dir"])
    workers = max(1, _int("max_workers", cfg["max_workers"]))
    # replicas run concurrently and write only their own files; the
    # manifest is assembled and written once by this (single) writer
    with ThreadPoolExecutor(max_workers=workers) as pool:
        entries = list(
            pool.map(
                lambda s: _sweep_one(command, base_cfg, s, output_dir), range(replicas)
            )
        )
    manifest = {
        "command": command,
        "replicas": replicas,
        "base": base,
        "runs": sorted(entries, key=lambda e: e["seed"]),
    }
    write_json(f"{output_dir}/manifest.json", _public_config(cfg), manifest)
    worst = max(e["exit_code"] for e in entries)
    return EXIT_OK if worst == EXIT_OK else EXIT_NUMERICAL


# ---- limits -----------------------------------------------------------------------


def run_limits(cfg: dict) -> int:
    algebra = cfg["algebra"]
    if algebra != "su2":
        raise ConfigError("the limits command supports the compact algebra only")
    mus = cfg["mus"]
    if isinstance(mus, str):
        mus = mus.split(",")
    if not isinstance(mus, list) or len(mus) < 2:
        raise ConfigError("need at least two mu values for a slope fit")
    report = limit_slopes(
        algebra=algebra,
        mus=[_positive("mus", v) for v in mus],
        samples=_int("samples", cfg["samples"], 1),
        seed=_int("seed", cfg["seed"], 0),
    )
    _emit(cfg, render_json(_public_config(cfg), report))
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


_RUNNERS = {
    "validate": run_validate,
    "particle": run_particle,
    "field": run_field,
    "duality": run_duality,
    "sweep": run_sweep,
    "limits": run_limits,
}


# ---- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable instead of usage dump
        raise ConfigError(message)


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of options (flags override)")
    sub.add_argument("--preset", help="model preset name")
    sub.add_argument("--algebra", help="base algebra (su2 or sl2r)")
    sub.add_argument("--lam", help="custom splitting parameter lambda")
    sub.add_argument("--mu", help="custom splitting parameter mu")
    sub.add_argument("--seed", type=int, help="random seed (default 0)")
    sub.add_argument("--output", help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every :func:`run` shares it."""
    parser = _Parser(prog="pltdual", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sv = subs.add_parser("validate", help="structural residual report")
    _add_common(sv)
    sv.add_argument("--samples", type=int, help="random group points to test")

    sp = subs.add_parser("particle", help="point-particle trajectory CSV")
    _add_common(sp)
    sp.add_argument("--dt", type=float, help="time step")
    sp.add_argument("--T", type=float, help="time horizon")
    sp.add_argument("--record-every", dest="record_every", type=int)
    sp.add_argument("--u0-log", dest="u0_log", help="comma-separated log of u(0)")
    sp.add_argument("--p0", help="comma-separated initial momentum")
    sp.add_argument("--metadata", help="metadata JSON output path")

    sf = subs.add_parser("field", help="loop-field diagnostics CSV")
    _add_common(sf)
    sf.add_argument("--N", type=int, help="number of grid cells")
    sf.add_argument("--dt", type=float, help="time step")
    sf.add_argument("--T", type=float, help="time horizon")
    sf.add_argument("--boundary", help="periodic or double-neumann")
    sf.add_argument("--amplitude", type=float, help="initial-data amplitude")
    sf.add_argument("--record-every", dest="record_every", type=int)
    sf.add_argument("--pointlike", action="store_const", const=True,
                    help="x-independent group factor initial data")
    sf.add_argument("--metadata", help="metadata JSON output path")

    sd = subs.add_parser("duality", help="two-description Hamiltonian gap")
    _add_common(sd)
    sd.add_argument("--N", type=int, help="number of grid cells")
    sd.add_argument("--amplitude", type=float, help="initial-data amplitude")
    sd.add_argument("--boundary", help="periodic or double-neumann")

    sw = subs.add_parser("sweep", help="concurrent seeded replicas + manifest")
    sw.add_argument("--config", help="JSON file of options (flags override)")
    sw.add_argument("--command", dest="sweep_command", help="command to replicate")
    sw.add_argument("--replicas", type=int, help="number of seeds (0..R-1)")
    sw.add_argument("--output-dir", dest="output_dir", help="directory for artifacts")
    sw.add_argument("--max-workers", dest="max_workers", type=int)

    sl = subs.add_parser("limits", help="limiting-family slope report")
    sl.add_argument("--config", help="JSON file of options (flags override)")
    sl.add_argument("--algebra", help="base algebra (su2)")
    sl.add_argument("--mus", help="comma-separated mu values")
    sl.add_argument("--samples", type=int, help="random samples per mu")
    sl.add_argument("--seed", type=int, help="random seed (default 0)")
    sl.add_argument("--output", help="output path (default stdout)")
    return parser


def _error_json(kind: str, message: str, notes: list | None = None) -> str:
    error = {"kind": kind, "message": message}
    if notes:
        error["warnings"] = notes
    return json.dumps({"error": error}) + "\n"


def _attach_negative_values(argv) -> list:
    """Attach a value that starts with "-" and a digit or "." to the option
    before it, so ``--p0 -1.5,2,3`` reads as ``--p0=-1.5,2,3``: argparse
    takes such a value for an option unless it is a plain negative number."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
        if getattr(args, "sweep_command", None) is not None:
            args.command = args.sweep_command
        cfg = _merge_config(args.subcommand, args)
        _check_output_paths(cfg)
        # stderr carries one JSON document: a field run lists a step past
        # the CFL bound in its metadata and error document instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CFLWarning)
            return _RUNNERS[args.subcommand](cfg)
    except (ConfigError, SplittingError) as exc:
        sys.stderr.write(_error_json("config", str(exc)))
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(_error_json("io", str(exc)))
        return EXIT_CONFIG
    except (FactorizationError, GraphBlowupError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(_error_json("numerical", str(exc)))
        return EXIT_NUMERICAL


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
