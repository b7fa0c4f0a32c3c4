"""Rewrite perfbench/reference/seed0.json from the current package.

    python3 perfbench/make_reference.py

Run from the root of a checkout, only when an output is meant to change;
the benchmark compares every default-seed run against this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    records = {}
    for name, spec in workloads.WORKLOADS.items():
        if spec.reference_key in records:
            continue
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            os.environ["SEMICYCLE_CACHE_DIR"] = str(Path(tmp) / "cache")
            state = spec.setup(workloads.DEFAULT_SEED, Path(tmp), 1)
            checks = workloads.Checks()
            record = spec.check(state, spec.run(state), checks, first=True)
        if checks.failed:
            print(f"{name}: checks failed: {checks.failed}", file=sys.stderr)
            return 1
        records[spec.reference_key] = record
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
