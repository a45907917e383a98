"""The four benchmark workloads: seeded inputs, set-up, one operation, and
the correctness check of its output.

This module imports only the standard library at import time, so the
stdlib-only parent process (``run.py``) can read the workload names.
Everything that touches ``pltdual`` runs inside the worker process.

A workload seed selects one of ``POOL`` input sets (``seed % POOL``).  The
reference outputs of every input set were generated at the commit that
defined the benchmark (``make_reference.py``) and are stored under
``reference/``; every operation is checked against them.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"
POOL = 16
HELD_OUT_SEED = 15
# every process that runs pltdual uses single-threaded BLAS/OpenMP
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# ---- tolerances ---------------------------------------------------------------
#
# Values (H, I_delta, f_d, final u and p, the particle charge drift) must
# match the reference to VALUE_RTOL relative to the largest reference
# magnitude of that quantity, plus VALUE_ATOL.  Reordering a floating-point
# sum changes these by ~1e-16 relative per step; over 6-25 steps that
# stays below 1e-12, so 1e-9 leaves room for harmless reorderings while
# being far tighter than the acceptance tests (H drift < 1e-6, moment
# drift < 1e-7).  VALUE_ATOL covers quantities that are pure roundoff
# (some I_delta components and the particle H drift sit at 1e-17..1e-15),
# and equals the acceptance bound on the particle invariant drift, 1e-12
# being tighter than its 1e-11.
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-12
# The EOM residual columns difference two time levels and divide by
# dt = 2.5e-3 (and dx), which amplifies roundoff to ~1e-13 absolute on
# residuals of ~1e-3; 1e-6 relative is 1e-9 absolute, well above that and
# far tighter than the acceptance test, which only checks their
# refinement ratio (4 +- 0.8).
RESIDUAL_RTOL = 1e-6
# The CLI's own absolute gate on the two-description gap (``duality``
# command, acceptance 6).
GAP_GATE = 1e-9


class CheckFailed(AssertionError):
    """An operation returned, but its output is wrong."""


def _scaled_diff(name: str, got, ref, rtol: float, atol: float = VALUE_ATOL) -> None:
    got, ref = list(got), list(ref)
    if len(got) != len(ref):
        raise CheckFailed(f"{name}: {len(got)} values, reference has {len(ref)}")
    finite = [abs(r) for r in ref if not math.isnan(abs(r))]
    tol = rtol * max(finite, default=0.0) + atol
    for i, (g, r) in enumerate(zip(got, ref)):
        if math.isnan(abs(r)) and math.isnan(abs(g)):
            continue
        if not abs(g - r) <= tol:
            raise CheckFailed(f"{name}[{i}] = {g!r}, reference {r!r}, tolerance {tol:.1e}")


def _complex_list(pairs) -> list:
    return [complex(re, im) for re, im in pairs]


def _pairs(values) -> list:
    return [[complex(v).real, complex(v).imag] for v in values]


def _read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _field_columns(rows: list[dict]) -> dict:
    """The checked columns of a ``pltdual field`` CSV."""
    n_moments = sum(1 for k in rows[0] if k.startswith("I_delta") and k.endswith("_re"))
    return {
        "H": [complex(r["H_total_re"], r["H_total_im"]) for r in rows],
        "I_delta": [
            complex(r[f"I_delta{i}_re"], r[f"I_delta{i}_im"]) for r in rows for i in range(n_moments)
        ],
        "f_d": [complex(r["f_d_re"], r["f_d_im"]) for r in rows],
        "eom_res_g": [r["eom_res_g"] for r in rows],
        "eom_res_dual": [r["eom_res_dual"] for r in rows],
        "duality_gap": [r["duality_gap"] for r in rows],
    }


def _check_field_values(result: dict, ref: dict) -> None:
    if not result["completed"]:
        raise CheckFailed("field run did not complete")
    for key in ("H", "I_delta", "f_d"):
        _scaled_diff(key, result[key], _complex_list(ref[key]), VALUE_RTOL)


def _fresh(*paths: Path) -> tuple:
    """Delete output files left by an earlier operation, so that a run
    which writes no artifact fails its check instead of reading them."""
    for path in paths:
        path.unlink(missing_ok=True)
    return paths


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---- workloads ------------------------------------------------------------------


class Workload:
    """One workload: ``setup`` builds everything its operations reuse,
    ``op`` runs one operation and returns its parsed output, ``check``
    raises :class:`CheckFailed` when that output is wrong."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int, work_dir: Path):
        self.index = seed % POOL
        self.rng = random.Random(f"{self.name}/{self.index}")
        self.work_dir = work_dir

    def reference(self):
        with open(REFERENCE_DIR / f"{self.name}.json") as fh:
            return json.load(fh)[str(self.index)]

    def setup(self) -> None:
        from pltdual.duality import splitting
        from pltdual.groups import GroupKit
        from pltdual.models import make_preset

        preset = make_preset("modified-principal", algebra=self.algebra)
        self.kit = GroupKit(preset.bialgebra)
        self.split = splitting(preset)

    def work(self) -> float:
        raise NotImplementedError

    def op(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict, ref) -> None:
        raise NotImplementedError


class FieldDiag(Workload):
    name = "field-diag"
    work_unit = "node-steps"
    algebra = "su2"
    # The defaults but N=16 and T=0.025 instead of N=64 and T=1: ten
    # steps and two records, the same work per node, step and record.
    # Operations are kept short (0.05-0.15 s in all workloads) because
    # interference from the host comes in bursts: the fastest of hundreds
    # of short operations misses them far more reliably than the fastest
    # of tens of long ones (at N=64, 0.3 s, the run-to-run spread of
    # run_s reached 0.31).
    n_nodes, horizon, n_steps = 16, 0.025, 10

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cli_seed = self.rng.randrange(2**31)

    def work(self):
        return self.n_nodes * self.n_steps

    def op(self):
        from pltdual.cli import run

        out, meta = _fresh(self.work_dir / "field.csv", self.work_dir / "field.json")
        code = run(["field", "--seed", str(self.cli_seed), "--N", str(self.n_nodes),
                    "--T", str(self.horizon),
                    "--output", str(out), "--metadata", str(meta)])
        if code != 0:
            raise CheckFailed(f"pltdual field exited {code}")
        with open(meta) as fh:
            summary = json.load(fh)["summary"]
        return {"completed": summary["completed"], **_field_columns(_read_csv(out))}

    def check(self, result, ref):
        _check_field_values(result, ref)
        for key in ("eom_res_g", "eom_res_dual"):
            _scaled_diff(key, result[key], ref[key], RESIDUAL_RTOL)
        if not all(gap < GAP_GATE for gap in result["duality_gap"]):
            raise CheckFailed(f"duality gap {max(result['duality_gap']):.2e} >= {GAP_GATE:g}")

    @staticmethod
    def to_reference(result):
        return {
            **{k: _pairs(result[k]) for k in ("H", "I_delta", "f_d")},
            **{k: result[k] for k in ("eom_res_g", "eom_res_dual")},
        }


class FieldStep(Workload):
    name = "field-step"
    work_unit = "node-steps"
    algebra = "sl2r"
    # short operations, for the reason given at FieldDiag
    n_cells, dt, n_steps, record_every = 1024, 1e-3, 6, 3

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.loop_seed = self.rng.randrange(2**31)

    def setup(self):
        super().setup()
        from pltdual.fieldsim import random_smooth_loop

        self.state = random_smooth_loop(self.kit, self.split, self.n_cells,
                                        boundary="double-neumann", seed=self.loop_seed,
                                        amplitude=0.1)

    def work(self):
        return (self.n_cells + 1) * self.n_steps

    def op(self):
        from pltdual.fieldsim import integrate_field

        traj = integrate_field(self.state, self.dt, self.n_steps, record_every=self.record_every)
        return {
            "completed": traj.completed,
            "H": [complex(h) for h in traj.hamiltonians],
            "I_delta": [complex(v) for row in traj.moments for v in row],
            "f_d": [complex(v) for v in traj.f_d],
            "diagnostics": [float(v) for col in (traj.duality_gaps, traj.eom_residuals_g,
                                                 traj.eom_residuals_dual) for v in col],
        }

    def check(self, result, ref):
        _check_field_values(result, ref)
        if not all(math.isnan(v) for v in result["diagnostics"]):
            raise CheckFailed("diagnostics ran although they were switched off")

    @staticmethod
    def to_reference(result):
        return {k: _pairs(result[k]) for k in ("H", "I_delta", "f_d")}


class Particle(Workload):
    name = "particle"
    work_unit = "rkmk-steps"
    algebra = "su2"
    # the defaults but T=0.025 instead of 1, for the reason given at
    # FieldDiag
    horizon, n_steps = 0.025, 25

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cli_seed = self.rng.randrange(2**31)

    def work(self):
        return self.n_steps

    def op(self):
        from pltdual.cli import run

        out, meta = _fresh(self.work_dir / "particle.csv", self.work_dir / "particle.json")
        code = run(["particle", "--seed", str(self.cli_seed), "--T", str(self.horizon),
                    "--output", str(out), "--metadata", str(meta)])
        if code != 0:
            raise CheckFailed(f"pltdual particle exited {code}")
        with open(meta) as fh:
            summary = json.load(fh)["summary"]
        rows = _read_csv(out)
        last = rows[-1]
        return {
            "completed": summary["completed"],
            "records": len(rows),
            "u": [complex(last[f"u{i}_re"], last[f"u{i}_im"]) for i in range(4)],
            "p": [complex(last[f"p{i}_re"], last[f"p{i}_im"]) for i in range(3)],
            "hamiltonian_drift": summary["hamiltonian_drift"],
            "charge_drift": summary["charge_drift"],
        }

    def check(self, result, ref):
        if not result["completed"]:
            raise CheckFailed("particle run did not complete")
        # a record at t=0 and after every step (record_every defaults to 1)
        if result["records"] != self.n_steps + 1:
            raise CheckFailed(f"{result['records']} records, expected {self.n_steps + 1}")
        for key in ("u", "p"):
            _scaled_diff(key, result[key], _complex_list(ref[key]), VALUE_RTOL)
        for key in ("hamiltonian_drift", "charge_drift"):
            _scaled_diff(key, [result[key]], [ref[key]], VALUE_RTOL)

    @staticmethod
    def to_reference(result):
        return {"u": _pairs(result["u"]), "p": _pairs(result["p"]),
                "hamiltonian_drift": result["hamiltonian_drift"],
                "charge_drift": result["charge_drift"]}


class Sweep(Workload):
    name = "sweep"
    work_unit = "node-factorizations"
    algebra = "sl2r"
    # four replicas keep the pool's dispatch in every operation; N=64
    # keeps operations short, for the reason given at FieldDiag
    replicas, n_cells = 4, 64
    # One pool thread.  The replicas are pure-Python per-node loops that
    # hold the GIL, so a second thread only adds GIL hand-offs: on 2 vCPUs
    # an operation at N=256 took 0.70 s with two threads and 0.46 s with
    # one, and the two-thread times spread past the benchmark's bound from
    # run to run.  The pool itself (submit, map, join) still runs.
    max_workers = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.amplitude = round(self.rng.uniform(0.15, 0.3), 4)

    def setup(self):
        super().setup()
        self.out_dir = self.work_dir / "sweep"
        self.config = self.work_dir / "sweep-config.json"
        self.config.write_text(json.dumps({
            "command": "duality",
            "replicas": self.replicas,
            "output_dir": str(self.out_dir),
            "base": {"algebra": "sl2r", "N": self.n_cells, "amplitude": self.amplitude},
            "max_workers": self.max_workers,
        }))

    def work(self):
        # periodic grid: n_cells nodes, each factorized in both orders
        return self.replicas * self.n_cells * 2

    def op(self):
        from pltdual.cli import run

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        code = run(["sweep", "--config", str(self.config)])
        if code != 0:
            raise CheckFailed(f"pltdual sweep exited {code}")
        with open(self.out_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        runs = []
        for entry in manifest["runs"]:
            with open(entry["files"][0]) as fh:
                doc = json.load(fh)
            runs.append({"seed": entry["seed"], "exit_code": entry["exit_code"],
                         "passed": doc["passed"], "duality_gap": doc["duality_gap"]})
        return {"runs": runs}

    def check(self, result, ref):
        seeds = [r["seed"] for r in result["runs"]]
        if seeds != list(range(self.replicas)):
            raise CheckFailed(f"manifest lists seeds {seeds}")
        for r in result["runs"]:
            if r["exit_code"] != 0 or not r["passed"] or not r["duality_gap"] < GAP_GATE:
                raise CheckFailed(f"replica {r}")

    def reference(self):
        return None


WORKLOADS = {w.name: w for w in (FieldDiag, FieldStep, Particle, Sweep)}
