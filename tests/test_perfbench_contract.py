"""The parts of the library that the benchmark harness in ``perfbench/``
reads from outside the package, checked here so that a change which
breaks them fails the test suite and not only a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pltdual import fieldsim as fs
from pltdual.duality import splitting
from pltdual.groups import GroupKit
from pltdual.models import make_preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_tracer_state_key_reads_loop_state():
    tracer = load_tracer()
    preset = make_preset("modified-principal", algebra="su2")
    kit, split = GroupKit(preset.bialgebra), splitting(preset)
    state = fs.random_smooth_loop(kit, split, 16, boundary="double-neumann", seed=3,
                                  amplitude=0.1)
    key = tracer._state_key(state)
    assert key[1] == state.n_nodes
    assert tracer._state_key(state.copy()) == key
    assert tracer._state_key(fs.step(state, 0.25 * state.dx)) != key
    assert np.array_equal(np.stack([state.kl, state.kr], axis=1), state.k)


@pytest.mark.parametrize("seed", [3, 7, 15])
@pytest.mark.parametrize("name", ["field-diag", "particle", "field-step"])
def test_workload_output_matches_stored_reference(tmp_path, name, seed):
    """One operation of a benchmark workload passes the workload's own check
    against the reference output stored for its input set; seed 15 is the
    held-out set."""
    workload = load_perfbench("workloads").WORKLOADS[name](seed, tmp_path)
    workload.setup()
    workload.check(workload.op(), workload.reference())
