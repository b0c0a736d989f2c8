"""The benchmark's workloads: configs from a seed, artifacts, scalars, checks.

Seed 0 gives the canonical configs.  Any other seed jitters the inputs a
little (the angle u0, and the triangle feet) without changing which layers
run, so a claim can be re-checked on inputs its author did not tune on.
The jitter leaves the step counts of simulate and convergence unchanged
and moves the triangle's crossing by a step or so.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SQRT2 = math.sqrt(2.0)
OSEEN_FRANK = {"kind": "oseen_frank", "k1": 2.0, "k3": 1.0, "c0": 1.0, "c1": SQRT2}
SCHEME_UPWIND = {"cfl": 0.9, "scheme": "upwind1", "gradient_ceiling": "auto"}
SCHEME_MUSCL = {"cfl": 0.9, "scheme": "muscl2", "gradient_ceiling": "auto"}

# Field arrays (u, R, S) read and written by one solver step, per stage:
# a stage reads the state it starts from (plus the first-stage result in
# the second muscl2 stage) and writes one new state.
FIELDS_PER_STEP = {"upwind1": (3, 3), "muscl2": (3 + 6, 3 + 3)}

VERDICTS = ("PASS", "FAIL", "FAIL-AS-EXPECTED", "INCONCLUSIVE")


def _read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _data_rows(path: Path) -> int:
    """Rows of a varwave CSV, without the config comment and the header."""
    with open(path, "r", encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 2


@dataclass(frozen=True)
class Workload:
    """One named workload: how to configure, run and check a varwave command."""

    name: str
    why: str
    command: str
    svg: bool
    threads: int | None
    artifacts: tuple[str, ...]
    base_config: dict
    jitter: Callable[[dict, random.Random], None]
    scalars: Callable[[Path, dict], dict]
    sanity: Callable[[dict, dict], list]
    accuracy_key: str

    def config(self, seed: int) -> dict:
        cfg = copy.deepcopy(self.base_config)
        if seed != 0:
            self.jitter(cfg, random.Random(seed))
        return cfg

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        args = [self.command, "--config", str(config_path), "--out-dir", str(out_dir)]
        return args + ["--svg"] if self.svg else args

    def grid_sizes(self, cfg: dict) -> list[int]:
        exp = cfg.get("experiment", {})
        return [int(n) for n in exp.get("n_list", [cfg["grid"]["n"]])]

    def cell_steps(self, cfg: dict, scalars: dict) -> int:
        """Sum over the command's grids of N x steps."""
        if self.command == "convergence":
            return convergence_steps(cfg)
        return int(cfg["grid"]["n"]) * int(scalars["steps"])

    def working_set(self, cfg: dict) -> dict:
        """Computed bytes: the largest field array and the fields one step moves."""
        n_max = max(self.grid_sizes(cfg))
        read, written = FIELDS_PER_STEP[cfg["scheme"]["scheme"]]
        return {
            "largest_field_bytes": n_max * 8,
            "fields_read_per_step": read,
            "fields_written_per_step": written,
            "bytes_moved_per_step_at_largest_n": (read + written) * n_max * 8,
        }


def _jitter_u0(width: float):
    def jitter(cfg: dict, rng: random.Random) -> None:
        cfg["setup"]["u0"] += rng.uniform(-width, width)

    return jitter


def _jitter_triangle(cfg: dict, rng: random.Random) -> None:
    cfg["setup"]["u0"] += rng.uniform(-0.005, 0.005)
    # both feet move together, so the gap and the crossing time stay put;
    # the residual moves by about 4% per 0.01 of shift
    shift = rng.uniform(-0.002, 0.002)
    cfg["experiment"]["r1"] += shift
    cfg["experiment"]["r2"] += shift


def _simulate_scalars(out_dir: Path, cfg: dict) -> dict:
    doc = _read_json(out_dir / "diagnostics.json")
    run = doc["run"]
    return {
        "steps": run["steps"],
        "reason": run["reason"],
        "t_end": run["t_end"],
        "energy_max_relative_drift": doc["energy_max_relative_drift"],
        "verdict": doc["blowup"]["verdict"],
    }


def _simulate_sanity(s: dict, cfg: dict) -> list:
    problems = []
    if s["steps"] < 1 or s["reason"] not in ("t_final", "gradient_ceiling"):
        problems.append(f"run ended after {s['steps']} steps by {s['reason']}")
    if not math.isfinite(s["energy_max_relative_drift"]):
        problems.append("energy drift is not finite")
    if s["verdict"] not in VERDICTS:
        problems.append(f"unknown verdict {s['verdict']!r}")
    return problems


def _triangle_scalars(out_dir: Path, cfg: dict) -> dict:
    doc = _read_json(out_dir / "triangle.json")
    # one path sample per solver time level, the first at t = 0
    steps = _data_rows(out_dir / "plus_path.csv") - 1
    return {
        "t_m": doc["t_m"],
        "r_m": doc["r_m"],
        "residual": doc["residual"],
        "steps": steps,
    }


def _triangle_sanity(s: dict, cfg: dict) -> list:
    exp = cfg["experiment"]
    problems = []
    if not all(math.isfinite(s[k]) for k in ("t_m", "r_m", "residual")):
        problems.append("non-finite triangle scalars")
    elif not (s["t_m"] > 0.0 and exp["r1"] < s["r_m"] < exp["r2"]):
        problems.append(f"crossing (t={s['t_m']}, r={s['r_m']}) outside the triangle")
    if s["steps"] < 1:
        problems.append("paths have no steps")
    return problems


def convergence_steps(cfg: dict) -> int:
    """Steps the convergence command takes on all its grids.

    Its artifacts do not report steps, so the march in ``cmd_convergence``
    is replayed on the time axis alone, with the step size of the
    program's own ``Stepper``.
    """
    from varwave.cli import build_scheme, build_setup
    from varwave.solver import Grid, Stepper

    setup = build_setup(cfg)
    scheme = build_scheme(cfg)
    t_cmp = float(cfg["experiment"]["t_compare"])
    total = 0
    for n in cfg["experiment"]["n_list"]:
        base_dt = Stepper(setup, Grid.uniform(*setup.domain, int(n)), scheme).base_dt
        t, steps = 0.0, 0
        while t < t_cmp - 1e-15:
            t += min(base_dt, t_cmp - t)
            steps += 1
        total += int(n) * steps
    return total


def _convergence_scalars(out_dir: Path, cfg: dict) -> dict:
    doc = _read_json(out_dir / "convergence.json")
    out = {}
    for key, vals in doc["l1_self_errors"].items():
        for i, v in enumerate(vals):
            out[f"err_{key}_{i}"] = v
    for key, vals in doc["l1_self_rates"].items():
        for i, v in enumerate(vals):
            out[f"rate_{key}_{i}"] = v
    out["finest_err_S"] = doc["l1_self_errors"]["S"][-1]
    return out


def _convergence_sanity(s: dict, cfg: dict) -> list:
    problems = []
    numbers = [v for v in s.values() if not isinstance(v, str)]
    if not all(math.isfinite(v) for v in numbers):
        problems.append("non-finite convergence figures")
    # the transport rule of tests/test_cli.py: first order within 0.2
    last = len(cfg["experiment"]["n_list"]) - 3
    for key in ("R", "S"):
        rate = s.get(f"rate_{key}_{last}")
        if not isinstance(rate, float) or abs(rate - 1.0) > 0.2:
            problems.append(f"finest {key} rate {rate} not within 0.2 of 1")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-canonical",
            why=(
                "Headline d=3 run: Oseen-Frank speed, four observers every step, "
                "5 MB of CSV and three SVGs; the only workload that loads the "
                "cli writers, plots and the diagnostics observers"
            ),
            command="simulate",
            svg=True,
            threads=None,
            artifacts=(
                "diagnostics.json",
                "energy.csv",
                "hat_path.csv",
                "snapshots.csv",
                "u_snapshots.svg",
                "energy.svg",
                "inv_s.svg",
            ),
            base_config={
                "setup": {
                    "d": 3,
                    "r0": 1.0,
                    "eps": 0.05,
                    "u0": math.pi / 4,
                    "speed": OSEEN_FRANK,
                    "profile": "theorem",
                    "domain": "auto",
                },
                "grid": {"n": 4096},
                "scheme": SCHEME_UPWIND,
            },
            jitter=_jitter_u0(0.02),
            scalars=_simulate_scalars,
            sanity=_simulate_sanity,
            accuracy_key="energy_max_relative_drift",
        ),
        Workload(
            name="triangle-muscl2",
            why=(
                "The only muscl2 run and the only one with two characteristic "
                "paths and the early-stop loop of triangle_identity; tiny "
                "artifacts, so solver and path gains show without writer cost"
            ),
            command="triangle",
            svg=False,
            threads=None,
            artifacts=("plus_path.csv", "minus_path.csv", "triangle.json"),
            base_config={
                "setup": {
                    "d": 3,
                    "r0": 1.0,
                    "eps": 0.1,
                    "u0": math.pi / 4,
                    "speed": OSEEN_FRANK,
                    "profile": "theorem",
                    "domain": "auto",
                },
                "grid": {"n": 8192},
                "scheme": SCHEME_MUSCL,
                "experiment": {"kind": "triangle", "r1": 0.85, "r2": 1.15},
            },
            jitter=_jitter_triangle,
            scalars=_triangle_scalars,
            sanity=_triangle_sanity,
            accuracy_key="residual",
        ),
        Workload(
            name="convergence-transport",
            why=(
                "Exact-transport accuracy against wall time on four grids run "
                "by the cli thread pool with 2 threads; constant speed and no "
                "observers, so speed-model and observer changes should not move it"
            ),
            command="convergence",
            svg=False,
            threads=2,
            artifacts=("convergence.csv", "convergence.json"),
            base_config={
                "setup": {
                    "d": 1,
                    "r0": 1.0,
                    "eps": 0.1,
                    "u0": 0.5,
                    "speed": {"kind": "constant", "c": 1.0},
                    "profile": {"kind": "polynomial", "amplitude": 1.0},
                    "domain": "auto",
                },
                # the command ignores "grid"; the set-up probe builds the finest grid
                "grid": {"n": 16384},
                "scheme": SCHEME_UPWIND,
                "experiment": {
                    "kind": "convergence",
                    "n_list": [2048, 4096, 8192, 16384],
                    "t_compare": 0.3,
                },
            },
            jitter=_jitter_u0(0.02),
            scalars=_convergence_scalars,
            sanity=_convergence_sanity,
            accuracy_key="finest_err_S",
        ),
    )
}
