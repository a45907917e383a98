"""Exit-contract probe: run each known reproducer of a broken exit contract
once and report what happened.  Untimed, and not a workload.

    python3 perfbench/probe_exit.py

Every ``pltdual`` run should end with exit code 0, 2 or 3 and, on
failure, a JSON error document on stderr; a numerical failure should keep
its partial artifact.  Results are printed as they are, known failures
included, followed by ``cli.exit_contract_violations`` (runs whose exit
code is outside {0, 2, 3}).  The probe itself exits 0 whatever it finds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import SRC, THREAD_ENV

WORK = Path(__file__).resolve().parent / "work" / "probe"
CONTRACT_CODES = (0, 2, 3)

# (label, arguments, what the reproducer shows)
FIELD_REPRODUCERS = (
    ("field-neumann-odd-N", ["field", "--boundary", "double-neumann", "--N", "33"],
     "odd cell count takes the trapezoid fallback (np.trapz, gone from numpy 2)"),
    ("field-sl2r-amplitude-2", ["field", "--algebra", "sl2r", "--amplitude", "2"],
     "chart exit at t=0; the first record is outside the integrator's try"),
)


def _pltdual(args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    return subprocess.run([sys.executable, "-m", "pltdual.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def main() -> int:
    if not (SRC / "pltdual" / "__init__.py").is_file():
        print(f"no pltdual source tree at {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    codes = []
    for label, args, why in FIELD_REPRODUCERS:
        run_dir = WORK / label
        run_dir.mkdir()
        proc = _pltdual([*args, "--output", "out.csv"], run_dir)
        codes.append(proc.returncode)
        artifact = (run_dir / "out.csv").exists()
        print(f"{label}: pltdual {' '.join(args)}")
        print(f"  exit {proc.returncode}, artifact written: {artifact}  ({why})")
        print(f"  stderr: {_last_line(proc.stderr)}")
    hashes = []
    for sub in ("a", "b"):
        (WORK / "sweep" / sub).mkdir(parents=True)
        proc = _pltdual(["sweep", "--command", "duality", "--replicas", "1",
                         "--output-dir", sub, "--max-workers", "1" if sub == "a" else "2"],
                        WORK / "sweep")
        codes.append(proc.returncode)
        manifest = WORK / "sweep" / sub / "manifest.json"
        hashes.append(json.loads(manifest.read_text())["config_hash"] if manifest.exists() else None)
        print(f"sweep-{sub}: exit {proc.returncode}, manifest config_hash {hashes[-1]}")
    print(f"  sweep config_hash independent of output_dir and max_workers: {hashes[0] == hashes[1]}")
    violations = sum(1 for code in codes if code not in CONTRACT_CODES)
    print(json.dumps({"cli.exit_contract_violations": violations, "runs": len(codes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
