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
options; explicit command-line flags override the file.  Each option is
declared once, in ``_OPTIONS``, with its kind, default, bound and help:
the parser's flags and the one check of every value derive from it.
The random seed defaults to 0 and all outputs are byte-identical for a
fixed configuration.  Exit codes: 0 success, 2 configuration error (with a
machine-readable JSON error document on stderr), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import functools
import json
import math
import os
import sys
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
    write_json,
)

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """A run configuration that cannot be executed."""


# ---- configuration ----------------------------------------------------------------

# an option: (kind, default, bound, help); the bound is an int kind's
# minimum, a choice's values, the least count of a positives list and, for
# a path, whether it names a directory
_MODEL = {
    "algebra": ("choice", "su2", ALGEBRA_NAMES, "base algebra"),
    "preset": ("choice", "modified-principal", PRESET_NAMES, "model preset name"),
    "lam": ("complex", None, None, "splitting parameter lambda (pure-qt and custom only)"),
    "mu": ("complex", None, None, "splitting parameter mu (default: the preset's)"),
}
_OUTPUT = ("path", None, False, "output path (default stdout)")
_METADATA = ("path", None, False, "metadata JSON output path")
_SEED = ("int", 0, 0, "random seed (default 0)")
_T = ("positive", 1.0, None, "time horizon")
_BOUNDARY = ("choice", "periodic", ("periodic", "double-neumann"), "boundary condition")

# every option of every command, in the order its values are checked
_OPTIONS = {
    "validate": {"output": _OUTPUT, **_MODEL,
                 "samples": ("int", 5, 1, "random group points to test"), "seed": _SEED},
    "particle": {
        "output": _OUTPUT, "metadata": _METADATA, **_MODEL,
        "dt": ("positive", 1e-3, None, "time step"), "T": _T,
        "record_every": ("int", 1, 1, "steps between records"), "seed": _SEED,
        "u0_log": ("vector", None, None, "comma-separated log of u(0)"),
        "p0": ("vector", None, None, "comma-separated initial momentum"),
    },
    "field": {
        "output": _OUTPUT, "metadata": _METADATA, **_MODEL,
        "dt": ("positive", 2.5e-3, None, "time step"), "T": _T,
        "record_every": ("int", 10, 1, "steps between records"),
        "N": ("int", 64, 8, "number of grid cells"), "boundary": _BOUNDARY, "seed": _SEED,
        "amplitude": ("float", 0.1, None, "initial-data amplitude"),
        "pointlike": ("bool", False, None, "x-independent group factor initial data"),
    },
    "duality": {
        "output": _OUTPUT, **_MODEL, "N": ("int", 32, 8, "number of grid cells"),
        "boundary": _BOUNDARY, "seed": _SEED,
        "amplitude": ("float", 0.3, None, "initial-data amplitude"),
    },
    "sweep": {
        "output_dir": ("path", ".", True, "directory for artifacts"),
        "command": ("choice", "field", ("validate", "particle", "field", "duality"),
                    "command to replicate"),
        "replicas": ("int", 4, 1, "number of seeds (0..R-1)"),
        "base": ("object", {}, None, "options of every replica (config file only)"),
        "max_workers": ("int", 4, 1, "replicas run at once"),
    },
    "limits": {
        "output": _OUTPUT, "algebra": ("choice", "su2", ("su2",), "base algebra"),
        "mus": ("positives", [10.0, 100.0, 1000.0], 2, "comma-separated mu values"),
        "samples": ("int", 10, 1, "random samples per mu"), "seed": _SEED,
    },
}


def _with_options(command: str, options: dict) -> dict:
    """The defaults of ``command`` updated with ``options``, each of which
    must be one of its keys."""
    table = _OPTIONS[command]
    for key in options:
        if key not in table:
            raise ConfigError(f"unknown config key for '{command}': {key}")
    return {key: options.get(key, entry[1]) for key, entry in table.items()}


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


def _finite(key: str, value, cast=float):
    """``value``, the setting ``key`` or an entry of it, as a finite float
    or, with ``cast=complex``, a finite complex number."""
    try:
        number = math.nan if isinstance(value, bool) else cast(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not cmath.isfinite(number):
        raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
    return number


def _int(key: str, value, minimum: int | None) -> int:
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


def _positive(key: str, value, bound=None) -> float:
    value = _finite(key, value)
    if value <= 0:
        raise ConfigError(f"'{key}' must be positive, got {value}")
    return value


def _entries(value) -> list:
    """A list setting's entries: a JSON list, or a comma-separated text."""
    return value if isinstance(value, (list, tuple)) else str(value).split(",")


def _positives(key: str, value, count: int) -> list:
    entries = _entries(value)
    if len(entries) < count:
        raise ConfigError(f"'{key}' needs at least {count} values, got {value!r}")
    values = [_positive(key, entry) for entry in entries]
    if len(set(values)) < len(values):
        raise ConfigError(f"'{key}' must not repeat a value, got {value!r}")
    return values


def _choice(key: str, value, choices: tuple):
    if value not in choices:
        raise ConfigError(f"unknown {key} '{value}' (choose from {choices})")
    return value


def _typed(kind: type, wording: str):
    def check(key: str, value, bound=None):
        if not isinstance(value, kind):
            raise ConfigError(f"'{key}' must be {wording}, got {value!r}")
        return value
    return check


def _path(key: str, value, names_dir: bool) -> str:
    """Reject an output location whose directory does not exist, or an
    output file that names a directory, before any computation."""
    if not isinstance(value, str):
        raise ConfigError(f"'{key}' must be a path, got {value!r}")
    if value or names_dir:
        directory = value if names_dir else os.path.dirname(value) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"'{key}' directory does not exist: {directory}")
        if not names_dir and os.path.isdir(value):
            # the error open() would raise after the run
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), value)
    return value


_CHECKS = {
    "int": _int,
    "float": lambda key, value, bound: _finite(key, value),
    "positive": _positive,
    "complex": lambda key, value, bound: _finite(key, value, complex),
    "vector": lambda key, value, bound: np.array(
        [_finite(key, entry, complex) for entry in _entries(value)]),
    "positives": _positives,
    "choice": _choice,
    "bool": _typed(bool, "true or false"),
    "path": _path,
    "object": _typed(dict, "a JSON object"),
}


def _checked(command: str, cfg: dict) -> dict:
    """The values of ``cfg``, a merged configuration of ``command``, each
    checked and converted by its kind; an option whose default is None may
    stay None."""
    opts = {}
    for key, (kind, default, bound, _) in _OPTIONS[command].items():
        value = cfg[key]
        unset = value is None and default is None
        opts[key] = None if unset else _CHECKS[kind](key, value, bound)
    return opts


def _build_preset(opts: dict):
    """The preset named by the options; a degenerate splitting is left to
    :func:`~pltdual.duality.splitting`, whose error is a config error."""
    try:
        return make_preset(opts["preset"], algebra=opts["algebra"], lam=opts["lam"],
                           mu=opts["mu"])
    except ValueError as exc:
        raise ConfigError(str(exc))


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
    hidden = ("output", "metadata", "output_dir", "max_workers")
    return {k: v for k, v in cfg.items() if k not in hidden}


# ---- validate ---------------------------------------------------------------------


def run_validate(cfg: dict, opts: dict) -> int:
    """structural residual report"""
    preset = _build_preset(opts)
    report = validation_report(preset, samples=opts["samples"], seed=opts["seed"])
    ok = report["max_residual"] < 1e-10
    report["passed"] = bool(ok)
    _emit(cfg, render_json(_public_config(cfg), report))
    return EXIT_OK if ok else EXIT_NUMERICAL


# ---- shared run scaffolding -------------------------------------------------------


def _time_steps(opts: dict) -> tuple[float, int]:
    """(dt, number of steps covering T), where T must be a whole number of
    steps up to a relative 1e-9 (T = 0.025 at dt = 1e-3 is 25.000000000000004)."""
    dt, horizon = opts["dt"], opts["T"]
    ratio = _finite("T / dt", horizon / dt)
    n_steps = round(ratio)
    if n_steps < 1:
        raise ConfigError("T must cover at least one step")
    if abs(ratio - n_steps) > 1e-9 * ratio:
        reachable = [f"{k * dt:.12g}" for k in (math.floor(ratio), math.ceil(ratio)) if k >= 1]
        raise ConfigError(
            f"T = {horizon:.12g} is not a whole number of steps of dt = {dt:.12g} "
            f"(nearest reachable horizons: {' and '.join(reachable)})")
    return dt, n_steps


def _model(opts: dict):
    """(preset, group kit, splitting) of the configured model."""
    preset = _build_preset(opts)
    return preset, GroupKit(preset.bialgebra), splitting(preset)


def _finish(cfg: dict, columns: list, table, summary: dict, failure: str | None) -> int:
    """Write the trajectory table (to the output path, else stdout) and the
    metadata, report a stopped run on stderr, and return the exit code."""
    public = _public_config(cfg)
    _emit(cfg, render_csv(public, columns, table))
    if cfg.get("metadata"):
        write_json(cfg["metadata"], public, {"config": public, "summary": summary})
    if failure is None:
        return EXIT_OK
    sys.stderr.write(_error_json("numerical", failure, summary.get("warnings")))
    return EXIT_NUMERICAL


# ---- particle ---------------------------------------------------------------------


def run_particle(cfg: dict, opts: dict) -> int:
    """point-particle trajectory CSV"""
    preset, kit, split = _model(opts)
    dt, n_steps = _time_steps(opts)
    n = preset.bialgebra.g.dim
    rng = np.random.default_rng(opts["seed"])
    u0_log, p0 = opts["u0_log"], opts["p0"]
    if u0_log is None:
        u0_log = rng.normal(size=n) * 0.3
    if p0 is None:
        p0 = rng.normal(size=n) * 0.4
    if len(u0_log) != n or len(p0) != n:
        raise ConfigError(f"u0_log and p0 must have {n} components")
    traj = integrate_particle(
        kit, split, kit.exp_g(u0_log), p0, dt, n_steps, record_every=opts["record_every"]
    )

    def drift(values):
        return float(np.max(np.abs(values - values[0]))) if len(values) else None

    summary = {
        "completed": traj.completed,
        "hamiltonian_drift": drift(traj.hams),
        "charge_drift": drift(traj.charges_g),
        "max_ad_cond": traj.max_ad_cond,
        "steps": traj.steps,
    }
    return _finish(cfg, *particle_table(traj), summary, traj.failure)


# ---- field ------------------------------------------------------------------------


def _field_state(opts: dict, preset, kit, split):
    n_cells, boundary = opts["N"], opts["boundary"]
    seed, amplitude = opts["seed"], opts["amplitude"]
    if opts.get("pointlike"):
        n = preset.bialgebra.g.dim
        rng = np.random.default_rng(seed)
        u0 = kit.exp_g(rng.normal(size=n) * 0.3)
        p = rng.normal(size=n) * amplitude
        if kit.flavor == "su2":
            p = -1j * p
        return init_pointlike(kit, split, u0, p, n_cells, boundary=boundary)
    return random_smooth_loop(kit, split, n_cells, boundary=boundary, seed=seed,
                              amplitude=amplitude)


def run_field(cfg: dict, opts: dict) -> int:
    """loop-field diagnostics CSV"""
    preset, kit, split = _model(opts)
    dt, n_steps = _time_steps(opts)
    state = _field_state(opts, preset, kit, split)
    traj = integrate_field(
        state,
        dt,
        n_steps,
        record_every=opts["record_every"],
        diagnostics=True,
    )
    hams = traj.hamiltonians
    recorded = len(traj.times) > 0
    summary = {
        "completed": traj.completed,
        "hamiltonian_rel_drift": float(
            np.max(np.abs(hams - hams[0])) / max(abs(hams[0]), 1e-300)
        ) if recorded else None,
        "max_duality_gap": float(np.nanmax(traj.duality_gaps)) if recorded else None,
        "steps": traj.steps,
        "warnings": traj.warnings,
    }
    return _finish(cfg, *field_table(traj), summary, traj.failure)


# ---- duality ----------------------------------------------------------------------


def run_duality(cfg: dict, opts: dict) -> int:
    """two-description Hamiltonian gap"""
    preset, kit, split = _model(opts)
    state = _field_state(opts, preset, kit, split)
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
    code = _execute(command, cfg, _checked(command, cfg))
    return {
        "seed": seed,
        "exit_code": code,
        "config_hash": config_hash(_public_config(cfg)),
        "files": [v for k, v in cfg.items() if k in ("output", "metadata") and v],
    }


def run_sweep(cfg: dict, opts: dict) -> int:
    """concurrent seeded replicas + manifest"""
    command, replicas, base = opts["command"], opts["replicas"], opts["base"]
    for key in _REPLICA_KEYS:
        if key in base:
            raise ConfigError(f"'base' cannot set '{key}': the sweep sets it for each replica")
    base_cfg = _with_options(command, base)
    _checked(command, base_cfg)
    output_dir = opts["output_dir"]
    # replicas run concurrently and write only their own files; the
    # manifest is assembled and written once by this (single) writer
    with ThreadPoolExecutor(max_workers=opts["max_workers"]) as pool:
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


def run_limits(cfg: dict, opts: dict) -> int:
    """limiting-family slope report"""
    report = limit_slopes(algebra=opts["algebra"], mus=opts["mus"], samples=opts["samples"],
                          seed=opts["seed"])
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


def _execute(command: str, cfg: dict, opts: dict) -> int:
    """Run ``command`` with numpy's floating-point warnings off: a run
    reports a numerical failure by its exit code and one JSON error
    document, from the initial data on.  The setting is per thread, so a
    sweep's replicas set it again."""
    with np.errstate(all="ignore"):
        return _RUNNERS[command](cfg, opts)


# ---- argument parsing ----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable instead of usage dump
        raise ConfigError(message)


# a flag's argparse type by option kind; every other kind is read as text
_FLAG_TYPES = {"int": int, "float": float, "positive": float}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from ``_OPTIONS``:
    parsing leaves it unchanged, so every :func:`run` shares it."""
    parser = _Parser(prog="pltdual", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for command, options in _OPTIONS.items():
        sub = subs.add_parser(command, help=_RUNNERS[command].__doc__)
        sub.add_argument("--config", help="JSON file of options (flags override)")
        for key, (kind, _, _, text) in options.items():
            flag = "--" + key.replace("_", "-")
            if kind == "bool":
                sub.add_argument(flag, action="store_const", const=True, help=text)
            elif kind != "object":  # an object is set in a config file only
                sub.add_argument(flag, type=_FLAG_TYPES.get(kind), help=text)
    return parser


def _error_json(kind: str, message: str, notes: list | None = None) -> str:
    error = {"kind": kind, "message": message}
    if notes:
        error["warnings"] = notes
    return json.dumps({"error": error}) + "\n"


def _attach_negative_values(argv) -> list:
    """Attach a value that starts with a single "-" to the option before
    it, so ``--p0 -1.5,2,3`` reads as ``--p0=-1.5,2,3`` and ``--T -inf`` as
    ``--T=-inf``: argparse takes such a value for an option unless it is a
    plain negative number.  ``-h`` is the one single-dash option and is
    left alone; every other such value reaches the value check, which
    names it."""
    out = []
    for arg in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and arg.startswith("-") and not arg.startswith("--") and arg != "-h"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
        cfg = _merge_config(args.subcommand, args)
        opts = _checked(args.subcommand, cfg)
        return _execute(args.subcommand, cfg, opts)
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
