"""One workload process: set up, run checked operations, print one JSON line.

Started by ``run.py`` with the thread environment already fixed; not meant
to be run by hand.  ``--setup-only`` times the set-up and exits.  Between
operations the worker starts ``SETUP_SAMPLES - 1`` such set-up processes,
spread evenly over the run, so that the set-up samples meet the same
host conditions as the operations.  With ``--trace 1`` it first runs
untraced operations (the base of the tracing overhead), then installs the
tracer and runs one traced set-up and one traced operation, from which
the per-layer metrics come.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import SRC, WORKLOADS

SETUP_SAMPLES = 15
# a set-up takes well under a second
SETUP_TIMEOUT_S = 60


def _setup(cls, seed: int, work_dir: Path):
    start = time.perf_counter()
    import pltdual.cli  # noqa: F401  (the package import is part of set-up)

    workload = cls(seed, work_dir)
    workload.setup()
    return workload, time.perf_counter() - start


def _setup_sample(args) -> float:
    """Set-up time of a fresh process (the package import included)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0", "--work-dir", str(args.work_dir), "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _timed_op(workload, ref, failures: list) -> float:
    """Seconds from the call into pltdual to a checked result; a failure
    (exception, unexpected exit code or wrong output) is recorded."""
    start = time.perf_counter()
    try:
        workload.check(workload.op(), ref)
    except Exception as exc:  # every failure is counted, none ends the run
        traceback.print_exc(file=sys.stderr)
        failures.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    cls = WORKLOADS[args.workload]

    workload, setup_s = _setup(cls, args.seed, args.work_dir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return
    ref = workload.reference()
    failures: list = []
    op_s = []
    setups = [setup_s]
    # stop before an operation that would likely end past the deadline, so
    # a run lasts about --seconds however long one operation takes
    start = time.perf_counter()
    deadline = start + args.seconds
    while not op_s or time.perf_counter() + statistics.median(op_s) <= deadline:
        op_s.append(_timed_op(workload, ref, failures))
        if (len(setups) < SETUP_SAMPLES
                and time.perf_counter() >= start + len(setups) * args.seconds / SETUP_SAMPLES):
            setups.append(_setup_sample(args))
    while len(setups) < SETUP_SAMPLES:  # operations longer than the spacing
        setups.append(_setup_sample(args))
    import numpy

    out = {
        "numpy": numpy.__version__,
        "setup_s": setups,
        "op_s": op_s,
        "work": workload.work(),
        "work_unit": workload.work_unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        out.update(_traced(cls, args, ref, failures, op_s))
    out["attempted"] = len(op_s) + args.trace
    out["failures"] = failures
    print(json.dumps(out))


def _traced(cls, args, ref, failures: list, untraced_s: list) -> dict:
    from tracer import Tracer, absent_metrics, layer_metrics, profile_shape

    tracer = Tracer()
    tracer.install()
    setup_phase = tracer.new_phase()
    workload = cls(args.seed, args.work_dir)
    workload.setup()
    op_phase = tracer.new_phase()
    traced_s = _timed_op(workload, ref, failures)
    tracer.write_spans(args.work_dir / "spans.tsv")
    return {
        "layers": layer_metrics(tracer, setup_phase, op_phase, traced_s,
                                statistics.median(untraced_s),
                                WORKLOADS["sweep"].max_workers),
        "absent": absent_metrics(tracer),
        "shape": profile_shape(tracer, op_phase, traced_s),
        "spans": len(tracer.spans),
    }


if __name__ == "__main__":
    main()
