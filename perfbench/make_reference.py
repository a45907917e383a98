"""Regenerate the stored reference outputs of every input set.

    python3 perfbench/make_reference.py

Run this only at a commit whose numbers are trusted: every later run of
the benchmark is checked against these files.  The sweep has no stored
values (its checks are absolute), but its input sets are run here too, so
that an input on which an operation fails is caught before it is used.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import POOL, REFERENCE_DIR, SRC, WORKLOADS


def main() -> None:
    sys.path.insert(0, str(SRC))
    for name, cls in WORKLOADS.items():
        refs = {}
        with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
            for index in range(POOL):
                w = cls(index, Path(tmp))
                w.setup()
                result = w.op()
                if hasattr(cls, "to_reference"):
                    refs[str(index)] = json.loads(json.dumps(cls.to_reference(result)))
                w.check(result, refs.get(str(index)))
                print(f"{name} input {index}: ok", flush=True)
        if refs:
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
