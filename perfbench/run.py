"""pltdual benchmark: seeded workloads, checked outputs, end-to-end metrics
and (with ``--trace 1``) a per-layer breakdown.

    python3 perfbench/run.py --workload field-diag --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

Runs from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Every workload runs in its own worker
process with single-threaded BLAS/OpenMP.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import PER_LAYER
from workloads import HELD_OUT_SEED, POOL, REFERENCE_DIR, SRC, THREAD_ENV, WORKLOADS, nproc

HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / "work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a worker died, ...)."""


def _worker(args: list, timeout: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, env=env, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout:g} s: {args}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_revision() -> str:
    if not (HERE.parent / ".git").exists():  # an exported checkout: do not look above it
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tail(samples: list) -> str:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (1 - q / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000)[round(q * 10) - 1]
            return f", p{q:g} {cut:.4f} s"
    return ""


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    work_dir = WORK_ROOT / name
    work_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--work-dir", str(work_dir)]
    # the measured loop, its last operation's overrun and a traced
    # operation fit well within this
    out = _worker([*common, "--trace", str(trace)], timeout=3 * seconds + 120)
    setups, op_s = out["setup_s"], out["op_s"]
    attempted, failed = out["attempted"], len(out["failures"])
    # The fastest operation: interference from other load on the host only
    # ever adds time, and comes in spells of seconds, so the minimum of a
    # run moves far less from run to run than its median does.
    run_s = min(op_s)
    print(f"== {name}  seed {seed} (input set {seed % POOL} of {POOL})")
    print(f"run_s        {run_s:.4f} s  (fastest of {len(op_s)} operations; "
          f"median {statistics.median(op_s):.4f} s{_tail(op_s)})")
    print(f"work_per_s   {out['work'] / run_s:.1f} {out['work_unit']}/s  "
          f"({out['work']} {out['work_unit']} per operation)")
    print(f"setup_s      {statistics.median(setups):.4f} s  (median of {len(setups)} set-ups)")
    print(f"peak_rss_mb  {out['peak_rss_mb']:.1f} MiB")
    print(f"failed_frac  {failed / attempted:g} ratio  ({failed} failed of {attempted} attempted)")
    for failure in out["failures"]:
        print(f"  failed: {failure}")
    if trace:
        units = dict(PER_LAYER)
        metrics = {k: (v, units[k]) for k, v in out["layers"].items()}
        for metric, (value, unit) in metrics.items():
            mark = "  (absent)" if metric in out["absent"] else ""
            print(f"  {metric:36s} {value:.6g} {unit}{mark}")
        print("  profile shape (inclusive shares): "
              + ", ".join(f"{k} {v:.3f}" for k, v in out["shape"].items() if v))
        print(f"  {out['spans']} spans written to {work_dir / 'spans.tsv'}")
    else:
        metrics = {
            "run_s": (run_s, "s"),
            "work_per_s": (out["work"] / run_s, "work/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MiB"),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "numpy": out["numpy"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"input set is seed %% {POOL}; check claims on --seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pltdual" / "__init__.py").is_file() or not REFERENCE_DIR.is_dir():
        print(f"no pltdual source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = {"python": platform.python_version(), "numpy": results[names[0]]["numpy"],
           "nproc": nproc(), "git": _git_revision(), "seed": args.seed, **THREAD_ENV}
    print("env " + json.dumps(env))
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, res in results.items()
        for metric, (value, unit) in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
