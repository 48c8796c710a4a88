"""Record ``golden/seed0.json``: every FlowResult of one seed-0 pass.

Run from the repository root, only when a change is meant to alter the
flow's outputs::

    PYTHONPATH=src python perfbench/record_golden.py

Floats are written by ``json`` with their exact ``repr``, so the file
round-trips bit for bit and ``points_failed`` can compare exactly.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from child import GOLDEN, labelled
from workloads import WORKLOADS


def main() -> int:
    from repro.perf import shutdown_pool

    golden = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.environ.setdefault("REPRO_CACHE_DIR", os.path.join(workdir, "cache"))
        try:
            for name, workload in WORKLOADS.items():
                pass_dir = os.path.join(workdir, name)
                os.makedirs(pass_dir)
                calls = workload.run_pass(workload.prepare(0), pass_dir)
                errors = [call.error for call in calls if call.results is None]
                if errors:
                    print(f"{name}: {errors}", file=sys.stderr)
                    return 1
                golden[name] = labelled(calls)
                print(f"{name}: {len(golden[name])} points")
        finally:
            shutdown_pool()
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump({"seed": 0, "workloads": golden}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
