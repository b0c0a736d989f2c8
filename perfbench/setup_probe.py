"""Time what a varwave run pays before its first step.

    python3 perfbench/setup_probe.py CONFIG.json

prints one JSON object of phase timings in seconds, measured in this
fresh interpreter: the import of ``varwave.cli`` followed by the public
builders a command calls on its config.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure_setup(config: dict) -> dict:
    """Import varwave.cli and run the builders on ``config``, timing each."""
    sys.path.insert(0, str(SRC))
    clock = time.perf_counter
    times = {}
    t0 = clock()
    import varwave.cli as cli
    from varwave.diagnostics import compute_constants
    from varwave.solver import Stepper, init_state

    t = clock()
    times["import_s"] = t - t0
    setup = cli.build_setup(config)
    times["build_setup_s"] = clock() - t
    t = clock()
    scheme = cli.build_scheme(config)
    times["build_scheme_s"] = clock() - t
    t = clock()
    grid = cli.build_grid(config, setup)
    times["build_grid_s"] = clock() - t
    t = clock()
    compute_constants(setup, require_hypothesis=False)
    times["compute_constants_s"] = clock() - t
    t = clock()
    Stepper(setup, grid, scheme)
    times["stepper_s"] = clock() - t
    t = clock()
    init_state(setup, grid)
    times["init_state_s"] = clock() - t
    times["total_s"] = clock() - t0
    return times


if __name__ == "__main__":
    with open(sys.argv[1], "r", encoding="utf-8") as fh:
        print(json.dumps(measure_setup(json.load(fh))))
