"""Record the reference scalars and artifact digests of every workload.

    python3 perfbench/record_golden.py

runs each workload once on seed 0 and writes ``perfbench/golden.json``.
Re-record only for an intended numerical change, and say so where the
change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.gate import GOLDEN  # noqa: E402
from perfbench.run import WORK, Runner  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

RTOL = 1e-9


def main() -> int:
    doc = {"rtol": RTOL, "workloads": {}}
    work = WORK / "golden"
    try:
        for name, workload in WORKLOADS.items():
            work.mkdir(parents=True, exist_ok=True)
            check = Runner(workload, workload.config(0), work, None).call().check
            if not check.ok:
                print(f"{name}: {check.problems}", file=sys.stderr)
                return 1
            doc["workloads"][name] = {"scalars": check.scalars, "sha256": check.digests}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
