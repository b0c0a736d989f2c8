"""Correctness gate for one benchmarked command call.

A call passes when the command exits 0, writes its full artifact set, and
its key scalars pass the workload's reference-free checks.  On seed 0 the
scalars must also match ``golden.json`` within ``rtol`` (integers and
strings exactly).  Bytes are not compared: a last-bit change in the
arithmetic rewrites every artifact while the scalars stay within rtol.
The sha256 of each artifact is compared with the golden digests only to
report ``artifacts_identical``, the bit-identity oracle for refactors; a
mismatch is not a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


@dataclass
class CallCheck:
    problems: list = field(default_factory=list)
    scalars: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    identical: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def load_golden(name: str) -> tuple[dict, float] | None:
    """(reference entry, rtol) for a workload, or None if none is recorded."""
    if not GOLDEN.is_file():
        return None
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = doc["workloads"].get(name)
    return (entry, float(doc["rtol"])) if entry is not None else None


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def compare_scalars(got: dict, want: dict, rtol: float) -> list:
    problems = []
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, float) and isinstance(val, float):
            if not (math.isfinite(val) and abs(val - ref) <= rtol * max(abs(val), abs(ref))):
                problems.append(f"{key} = {val!r}, reference {ref!r} (rtol {rtol})")
        elif val != ref:
            problems.append(f"{key} = {val!r}, reference {ref!r}")
    return problems


def check_call(workload, cfg: dict, rc, out_dir: Path, golden) -> CallCheck:
    """Gate one call of ``workload`` that wrote into ``out_dir``."""
    check = CallCheck()
    if rc != 0:
        check.problems.append(f"exit code {rc}")
        return check
    missing = [a for a in workload.artifacts if not (out_dir / a).is_file()]
    if missing:
        check.problems.append(f"missing artifacts {missing}")
        return check
    try:
        check.scalars = workload.scalars(out_dir, cfg)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        check.problems.append(f"unreadable artifacts: {exc!r}")
        return check
    check.problems += workload.sanity(check.scalars, cfg)
    check.digests = {a: sha256(out_dir / a) for a in workload.artifacts}
    if golden is not None:
        entry, rtol = golden
        check.problems += compare_scalars(check.scalars, entry["scalars"], rtol)
        check.identical = check.digests == entry["sha256"]
    return check
