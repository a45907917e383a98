"""Deterministic run artifacts: hashed configs and CSV/JSON writers.

Every artifact opens with a metadata header carrying the sha256 hash of
the canonicalized run configuration and the package version, and never a
timestamp, so a rerun with the same configuration and seed reproduces
the output byte for byte.

A run's table is one real float64 array, one row per record, built from
an ordered list of named blocks that gives its column names too.  A
complex quantity is split into an ``_re``/``_im`` column pair, so the
table stays purely numeric.  Each cell is written with ``repr`` (the
shortest round-trip form); no column name or cell holds a comma, a
quote or a line break, so none needs CSV quoting.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from . import __version__

__all__ = [
    "canonical_json",
    "config_hash",
    "artifact_header",
    "render_csv",
    "write_csv",
    "render_json",
    "write_json",
    "block_table",
    "particle_table",
    "field_table",
]


def _jsonable(value):
    """Map numpy scalars/arrays and complex numbers onto plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.complexfloating, complex)):
        c = complex(value)
        if c.imag == 0.0:
            return c.real
        return {"re": c.real, "im": c.imag}
    return value


def canonical_json(obj) -> str:
    """Sorted-key, separator-normalized JSON used for hashing and headers."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()


def artifact_header(config: dict) -> dict:
    return {"config_hash": config_hash(config), "version": __version__}


# ---- CSV ------------------------------------------------------------------------


def render_csv(config: dict, columns: list, table) -> str:
    """CSV text with a ``# {json}`` metadata header line, the column line
    and one line per row of the real (rows, columns) ``table``."""
    lines = ["# " + canonical_json(artifact_header(config)), ",".join(columns)]
    lines += [",".join(map(repr, row)) for row in np.asarray(table, dtype=float).tolist()]
    return "\n".join(lines) + "\n"


def write_csv(path, config: dict, columns: list, table) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_csv(config, columns, table))


def render_json(config: dict, payload: dict) -> str:
    doc = dict(artifact_header(config))
    doc.update(_jsonable(payload))
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path, config: dict, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(render_json(config, payload))


# ---- trajectory tables -----------------------------------------------------------


def block_table(blocks) -> tuple[list, np.ndarray]:
    """(columns, table) of named blocks, each an array over the run's records.

    A block holding one value per record is one column named after it, a
    block holding several is one column per value, numbered from 0.  A
    complex column is written as its ``_re``/``_im`` pair: the real view of
    the contiguous complex array interleaves them in that order.
    """
    columns, parts = [], []
    for name, values in blocks:
        values = np.asarray(values)
        width = math.prod(values.shape[1:])
        stems = [name] if values.ndim == 1 else [f"{name}{i}" for i in range(width)]
        part = values.reshape(len(values), width)
        if np.iscomplexobj(part):
            stems = [f"{stem}_{side}" for stem in stems for side in ("re", "im")]
            part = np.ascontiguousarray(part, dtype=complex).view(float)
        columns += stems
        parts.append(part)
    return columns, np.hstack(parts)


def particle_table(traj) -> tuple[list, np.ndarray]:
    """(columns, table) of a point-particle trajectory: time, the four
    group-matrix entries of u, the dual momentum coefficients p, the
    Hamiltonian, the conserved charge Q_G and the moment-map values over
    the double basis."""
    return block_table([
        ("t", traj.times),
        ("u", traj.us),
        ("p", traj.ps),
        ("H", traj.hams),
        ("Q_G", traj.charges_g),
        ("I_delta", traj.moments),
    ])


def field_table(traj) -> tuple[list, np.ndarray]:
    """(columns, table) of a loop-field trajectory: time, total
    Hamiltonian, the two field-equation residuals, the two-description
    Hamiltonian gap, the moment-map values over the double basis and the
    quadratic loop function f_d."""
    return block_table([
        ("t", traj.times),
        ("H_total", traj.hamiltonians),
        ("eom_res_g", traj.eom_residuals_g),
        ("eom_res_dual", traj.eom_residuals_dual),
        ("duality_gap", traj.duality_gaps),
        ("I_delta", traj.moments),
        ("f_d", traj.f_d),
    ])
