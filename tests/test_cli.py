import ast
import collections
import copy
import dataclasses
import inspect
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from varwave import cli
from varwave.errors import (
    BoundsViolation,
    ConfigError,
    DomainMismatch,
    HypothesisViolated,
    NoIntersection,
    NonFiniteState,
    PathLeftDomain,
    SpeedNotIncreasing,
    VarwaveError,
)
from varwave.cli import SnapshotTable, build_scheme, build_setup, main, write_csv
from varwave.diagnostics import EnergyObserver
from varwave.initial_data import PolynomialBump, ProblemSetup, auto_domain
from varwave.riemann_core import from_riemann
from varwave.solver import SCHEMES, Grid, GridState, SchemeConfig, _float_bits, _live_span, run
from varwave.speed_models import ConstantSpeed, OseenFrankSpeed

SQRT2 = math.sqrt(2.0)
# faults of the run itself: exit 2, and eps-sweep collects them per eps
RUN_ERRORS = (NonFiniteState, PathLeftDomain, NoIntersection)


def base_config(**overrides):
    cfg = {
        "setup": {
            "d": 3,
            "r0": 1.0,
            "eps": 0.1,
            "u0": math.pi / 4,
            "speed": {
                "kind": "oseen_frank",
                "k1": 2.0,
                "k3": 1.0,
                "c0": 1.0,
                "c1": SQRT2,
            },
            "profile": {"kind": "polynomial", "amplitude": 2.0},
            "domain": "auto",
        },
        "grid": {"n": 512},
        "scheme": {
            "cfl": 0.9,
            "scheme": "upwind1",
            "gradient_ceiling": "auto",
            "max_steps": 100000,
        },
        "output": {"snapshot_stride": 200},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def ci_config(name):
    """The simulate, triangle, eps_sweep, zero_u0 and convergence configs of the CI workflow."""
    speed = {"kind": "oseen_frank", "k1": 2.0, "k3": 1.0, "c0": 1.0, "c1": SQRT2}
    bump = {"kind": "polynomial", "amplitude": 1.0}
    setups = {
        "simulate": {"d": 3, "r0": 1.0, "eps": 0.05, "u0": math.pi / 4, "speed": speed,
                     "profile": "theorem"},
        "triangle": {"d": 3, "r0": 1.0, "eps": 0.1, "u0": math.pi / 4, "speed": speed,
                     "profile": "theorem"},
        "zero_u0": {"d": 1, "r0": 1.0, "eps": 0.1, "u0": 0.0,
                    "speed": {"kind": "constant", "c": 1.0}, "profile": bump},
        "convergence": {"d": 1, "r0": 1.0, "eps": 0.1, "u0": 0.5,
                        "speed": {"kind": "constant", "c": 1.0}, "profile": bump},
    }
    setups["eps_sweep"] = setups["simulate"]
    cfg = {"setup": copy.deepcopy(setups[name]), "grid": {"n": 256 if name == "zero_u0" else 512}}
    if name == "triangle":
        cfg["scheme"] = {"scheme": "muscl2"}
        cfg["experiment"] = {"kind": "triangle", "r1": 0.85, "r2": 1.15}
    if name == "eps_sweep":
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1, 0.05]}
    if name == "convergence":
        cfg["grid"]["n"] = 1024
        cfg["experiment"] = {"kind": "convergence", "n_list": [256, 512, 1024], "t_compare": 0.3}
    return cfg


def merged(cfg, changes):
    """A copy of cfg with changes merged in: an object merges, any other value replaces."""
    out = copy.deepcopy(cfg)
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = value
    return out


# the message of an initial energy that overflows on an n-node grid
ENERGY_OVERFLOW = "the initial energy on {n} nodes, the sum of (R**2 + S**2) dr, overflows a float"


def bits(values):
    """The uint64 views of float values, as a list."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestSimulate:
    def test_zero_amplitude_run_reports_zero_energy(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 0.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = (out / "energy.csv").read_text().splitlines()
        assert rows[0].startswith("# config ")
        assert rows[1] == "t,E"
        energies = [float(line.split(",")[1]) for line in rows[2:]]
        assert all(e == 0.0 for e in energies)

    def test_energy_csv_holds_the_series_behind_the_json_drift(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = (out / "energy.csv").read_text().splitlines()
        assert rows[1] == "t,E"
        E = np.array([float(line.split(",")[1]) for line in rows[2:]])
        drift = np.float64(np.max(np.abs(E - E[0])) / E[0])
        doc = json.loads((out / "diagnostics.json").read_text())
        assert "energy" not in doc
        want = np.float64(doc["energy_max_relative_drift"])
        assert drift > 0.0
        assert drift.view(np.uint64) == want.view(np.uint64)

    def test_auto_domain_matches_rule(self):
        cfg = base_config()
        setup = build_setup(cfg)
        speed = OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)
        assert setup.domain == auto_domain(3, 1.0, 0.1, speed)

    def test_all_artifacts_written(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out), "--svg"]) == 0
        for name in (
            "diagnostics.json",
            "energy.csv",
            "hat_path.csv",
            "snapshots.csv",
            "energy.svg",
            "u_snapshots.svg",
            "inv_s.svg",
        ):
            assert (out / name).exists(), name

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out-dir", str(out2)]) == 0
        for name in ("energy.csv", "snapshots.csv", "hat_path.csv", "diagnostics.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_snapshot_columns(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out-dir", str(out)])
        header = (out / "snapshots.csv").read_text().splitlines()[1]
        assert header == "t,r,u,R,S,u_r"

    def test_u_r_column_is_the_inverse_map_of_its_row(self, tmp_path):
        # %.17g round-trips, so the column must match bit for bit
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        t, r, u, R, S, u_r = np.loadtxt(out / "snapshots.csv", delimiter=",", skiprows=2).T
        setup = build_setup(cfg)
        _, expected = from_riemann(r, u, R, S, setup.speed, setup.alpha)
        assert np.count_nonzero(u_r) > 0
        assert np.array_equal(u_r, expected)

    def test_diagnostics_json_embeds_config(self, tmp_path):
        cfg = base_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out-dir", str(out)])
        doc = json.loads((out / "diagnostics.json").read_text())
        assert doc["config"] == cfg
        assert "constants" in doc and "blowup" in doc and "run" in doc

    @pytest.mark.parametrize("case", ["d1-constant", "d3-oseen-frank"])
    def test_negative_zero_u0_writes_the_positive_zero_artifacts(self, tmp_path, case):
        if case == "d1-constant":
            cfg = {
                "setup": {"d": 1, "r0": 1.0, "eps": 0.1, "u0": 0.0,
                          "speed": {"kind": "constant", "c": 1.0},
                          "profile": {"kind": "polynomial", "amplitude": 1.0}},
                "grid": {"n": 256},
            }
        else:
            cfg = base_config(grid={"n": 1024})
            cfg["setup"]["u0"] = 0.0
            cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 20.0}
        artifacts = []
        for u0 in (0.0, -0.0):
            cfg["setup"]["u0"] = u0
            path = write_config(tmp_path, cfg, f"{u0}.json")
            out = tmp_path / str(u0)
            assert main(["simulate", "--config", str(path), "--out-dir", str(out), "--svg"]) == 0
            artifacts.append(without_config_echo(out))
        assert len(artifacts[0]) == 7
        assert artifacts[0] == artifacts[1]


def without_config_echo(out):
    """Text of each artifact in out, less the config it echoes: the JSON
    "config" key, and the '# config' or '<!-- config' line of the others."""
    files = {}
    for p in sorted(out.iterdir()):
        if p.suffix == ".json":
            doc = json.loads(p.read_text())
            del doc["config"]
            files[p.name] = json.dumps(doc, sort_keys=True)  # "-0.0" stays apart from "0.0"
        else:
            lines = p.read_text().splitlines(keepends=True)
            kept = [line for line in lines if not line.startswith(("# config ", "<!-- config "))]
            assert len(kept) == len(lines) - 1, p.name
            files[p.name] = "".join(kept)
    return files


class TestTriangle:
    def test_gentle_triangle_report(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["n"] = 2048
        cfg["experiment"] = {"kind": "triangle", "r1": 0.85, "r2": 1.15}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["triangle", "--config", str(path), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "triangle.json").read_text())
        assert doc["residual"] < 0.05
        assert 0.85 < doc["r_m"] < 1.15
        assert (out / "plus_path.csv").exists()
        assert (out / "minus_path.csv").exists()

    def test_svg_writes_the_paths_figure(self, tmp_path):
        cfg = base_config(grid={"n": 256})
        cfg["experiment"] = {"kind": "triangle", "r1": 0.85, "r2": 1.15}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["triangle", "--config", str(path), "--out-dir", str(out), "--svg"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "minus_path.csv", "plus_path.csv", "triangle.json", "triangle_paths.svg",
        ]
        svg = (out / "triangle_paths.svg").read_text()
        assert f"<!-- {cli._config_comment(cfg)} -->" in svg.splitlines()
        assert "characteristic triangle" in svg

    def test_budget_exhaustion_is_runtime_error(self, tmp_path):
        cfg = base_config()
        cfg["scheme"]["max_steps"] = 5
        cfg["experiment"] = {"kind": "triangle", "r1": 0.85, "r2": 1.15}
        path = write_config(tmp_path, cfg)
        assert main(["triangle", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2

    def test_wide_feet_is_validation_error(self, tmp_path):
        cfg = base_config()
        cfg["experiment"] = {"kind": "triangle", "r1": 0.2, "r2": 1.6}
        path = write_config(tmp_path, cfg)
        assert main(["triangle", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("r1, r2", [(0.001, 0.3), (1.9, 3.0)], ids=["below", "above"])
    def test_feet_off_the_domain_is_validation_error(self, tmp_path, capsys, r1, r2):
        # the auto domain is [0.01, 2.1]; the gap r2 - r1 is below its limit 1.27
        cfg = base_config(grid={"n": 256})
        cfg["experiment"] = {"kind": "triangle", "r1": r1, "r2": r2}
        path = write_config(tmp_path, cfg)
        assert main(["triangle", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("varwave: invalid configuration: need r_lo <= r1 < r2 <= r_hi")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()


class TestEpsSweep:
    def test_flat_speed_detects_nothing(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["speed"] = {"kind": "constant", "c": 1.0}
        cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 3.0}
        cfg["grid"]["n"] = 256
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.05, 0.1]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["eps-sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1] == "eps,detected,t_detect,t_star_extrapolated,t_final"
        detected = [float(l.split(",")[1]) for l in lines[2:]]
        assert detected == [0.0, 0.0]
        summary = json.loads((out / "sweep.json").read_text())
        assert summary["largest_eps_detected"] is None

    def test_single_eps_produces_simulate_artifacts(self, tmp_path):
        cfg = base_config()
        cfg["grid"]["n"] = 256
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["eps-sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        sub = out / "eps_0.1"
        for name in ("diagnostics.json", "energy.csv", "hat_path.csv", "snapshots.csv"):
            assert (sub / name).exists(), name

    def test_empty_list_rejected(self, tmp_path):
        cfg = base_config()
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": []}
        path = write_config(tmp_path, cfg)
        assert main(["eps-sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    def test_eps_equal_to_6_digits_get_their_own_directories(self, tmp_path):
        cfg = base_config(grid={"n": 128})
        cfg["setup"]["speed"] = {"kind": "constant", "c": 1.0}
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.05, 0.05000001]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["eps-sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["eps_0.05", "eps_0.05000001"]
        for eps in (0.05, 0.05000001):
            doc = json.loads((out / f"eps_{eps!r}" / "diagnostics.json").read_text())
            assert doc["run"]["t_final"] == (1.0 - eps) / 1.0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        assert [float(row.split(",")[0]) for row in rows] == [0.05, 0.05000001]

    def test_repeated_eps_is_config_error(self, tmp_path, capsys):
        cfg = base_config(grid={"n": 128})
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1, 0.05, 0.1]}
        path = write_config(tmp_path, cfg)
        assert main(["eps-sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "varwave: invalid configuration: experiment.eps_list repeats an entry: [0.1, 0.05, 0.1]\n"
        )
        assert not (tmp_path / "o").exists()


# The figures of two CI configs as written before a stage took its increments
# as one product (dt, 1/h and c folded into one factor), which moved the last
# bits of every Eulerian artifact: the transport convergence study on the
# grids 512, 1024 and 2048, and the canonical simulate on 512 nodes
PINNED_CONVERGENCE = {
    "l1_self_errors": {
        "R": [0.0007897506375813788, 0.0004413084467141379],
        "S": [0.015027839763495764, 0.00839562755350011],
        "u": [0.00028680908345964806, 0.00014656560023695877],
    },
    "l1_self_rates": {
        "R": [0.8396098356973691], "S": [0.8399275658493273], "u": [0.968544181364351],
    },
    "energy_drifts": [0.20134696988713846, 0.11040401250168556, 0.059286913599543176],
    "energy_drift_rates": [0.8668911549328616, 0.897007007146097],
}
PINNED_SIMULATE = {"energy_max_relative_drift": 0.9945427993872192, "steps": 259}


class TestPinnedAccuracy:
    """Both configs keep their pinned figures within 1e-9 relative, the
    benchmark gate's tolerance, and their step counts and end reasons."""

    def test_transport_convergence_and_canonical_simulate(self, tmp_path):
        conv = ci_config("convergence")
        conv["experiment"]["n_list"] = [512, 1024, 2048]
        sim = ci_config("simulate")
        for name, cfg in (("convergence", conv), ("simulate", sim)):
            path = write_config(tmp_path, cfg, name=f"{name}.json")
            assert main([name, "--config", str(path), "--out-dir", str(tmp_path / name)]) == 0
        doc = json.loads((tmp_path / "convergence" / "convergence.json").read_text())
        for key, want in PINNED_CONVERGENCE.items():
            got = doc[key]
            if isinstance(want, dict):
                assert got.keys() == want.keys()
                for field in want:
                    np.testing.assert_allclose(got[field], want[field], rtol=1e-9, atol=0.0)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
        diag = json.loads((tmp_path / "simulate" / "diagnostics.json").read_text())
        assert diag["energy_max_relative_drift"] == pytest.approx(
            PINNED_SIMULATE["energy_max_relative_drift"], rel=1e-9, abs=0.0
        )
        assert diag["run"]["steps"] == PINNED_SIMULATE["steps"]
        assert diag["run"]["reason"] == diag["blowup"]["reason"] == "t_final"


class TestConvergence:
    def test_transport_first_order(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["d"] = 1
        cfg["setup"]["speed"] = {"kind": "constant", "c": 1.0}
        cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 1.0}
        cfg["experiment"] = {
            "kind": "convergence",
            "n_list": [1024, 2048, 4096],
            "t_compare": 0.3,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "convergence.json").read_text())
        for key in ("R", "S"):
            rates = doc["l1_self_rates"][key]
            assert all(isinstance(r, float) for r in rates)
            assert rates[-1] == pytest.approx(1.0, abs=0.2)

    def test_zero_data_rates_exact(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 0.0}
        cfg["experiment"] = {
            "kind": "convergence",
            "n_list": [64, 128, 256],
            "t_compare": 0.1,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "convergence.json").read_text())
        # three grids give two pairwise errors, hence one rate entry
        assert doc["l1_self_rates"]["R"] == ["exact"]
        assert doc["l1_self_errors"]["R"] == [0.0, 0.0]

    @pytest.mark.parametrize("t_compare", [1e-16, 0.3, 0.9], ids=["1e-16", "0.3", "t_final"])
    def test_grids_end_where_run_ends(self, tmp_path, monkeypatch, t_compare):
        # each grid's march ends in the state, after the steps and with the
        # energy series, of run to t_compare with no gradient ceiling
        energies = []

        class Recorded(EnergyObserver):
            def __init__(self, grid):
                super().__init__(grid)
                energies.append(self)

            def __call__(self, state):
                super().__call__(state)
                self.last = state

        monkeypatch.setattr(cli, "EnergyObserver", Recorded)
        cfg = ci_config("convergence")
        cfg["experiment"]["t_compare"] = t_compare
        setup = build_setup(cfg)
        assert setup.t_final == 0.9
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        scheme = dataclasses.replace(build_scheme(cfg), gradient_ceiling=math.inf)
        assert [e.grid.n for e in energies] == [256, 512, 1024]
        for got in energies:
            want = EnergyObserver(got.grid)
            result = run(setup, got.grid, scheme, observers=(want,), t_end=t_compare)
            assert result.reason == "t_final" and result.steps >= 1
            assert len(got.E) == result.steps + 1
            assert bits(got.E) == bits(want.E)
            assert got.last.t == result.state.t and got.last.live == result.state.live
            for key in ("u", "R", "S"):
                assert bits(getattr(got.last, key)) == bits(getattr(result.state, key))

    def test_each_grid_starts_from_one_checked_initial_state(self, tmp_path, monkeypatch):
        # one init_state per grid, every grid's E(0) checked before the first
        # step, and each march starts from the state that was checked
        events, checked, marched = [], [], []
        init, check, march = cli.init_state, cli.check_initial_energy, cli.Stepper.march

        def counted_init(setup, grid):
            events.append(("init", grid.n))
            return init(setup, grid)

        def counted_check(energy, state):
            events.append(("check", energy.grid.n))
            checked.append(state)
            return check(energy, state)

        def counted_march(self, state, *args):
            events.append(("march", self.grid.n))
            marched.append(state)
            return march(self, state, *args)

        monkeypatch.setattr(cli, "init_state", counted_init)
        monkeypatch.setattr(cli, "check_initial_energy", counted_check)
        monkeypatch.setattr(cli.Stepper, "march", counted_march)
        path = write_config(tmp_path, ci_config("convergence"))
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        sizes = (256, 512, 1024)
        assert events == [(e, n) for n in sizes for e in ("init", "check")] + [
            ("march", n) for n in sizes
        ]
        assert len(marched) == 3 and all(m is c for m, c in zip(marched, checked))

    # the CI grids of 256, 512 and 1024 nodes take 41, 82 and 164 steps to
    # t_compare = 0.3; the first grid in n_list that runs out is named
    @pytest.mark.parametrize("max_steps, short", [(0, 256), (81, 512), (163, 1024), (164, None)])
    def test_step_budget_stops_a_grid_before_t_compare(self, tmp_path, capsys, max_steps, short):
        cfg = ci_config("convergence")
        cfg["scheme"] = {"max_steps": max_steps}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        rc = main(["convergence", "--config", str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if short is None:  # the last step reaches t_compare and the budget together
            assert rc == 0 and err == "" and (out / "convergence.json").exists()
            return
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(
            f"varwave: run failed: the grid of {short} nodes used up "
            f"scheme.max_steps = {max_steps} at t="
        )
        assert err.rstrip().endswith("before t_compare = 0.3")
        assert not out.exists()

    def test_first_failed_grid_ends_the_command(self, tmp_path, capsys, monkeypatch):
        # the 1024-node grid reaches t_compare in 164 steps, the 2048-node one
        # uses up the budget of 200: no later grid may take a step
        steps = collections.Counter()
        step = cli.Stepper.step

        def counted(self, state, dt=None):
            steps[self.grid.n] += 1
            return step(self, state, dt)

        jobs, unfinished = [], []  # the count of jobs not yet done at each submit

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                unfinished.append(sum(not job.done() for job in jobs))
                jobs.append(super().submit(fn, *args, **kwargs))
                return jobs[-1]

        monkeypatch.setattr(cli.Stepper, "step", counted)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        cfg = ci_config("convergence")
        cfg["experiment"]["n_list"] = [1024, 2048, 4096, 8192, 16384]
        cfg["scheme"] = {"max_steps": 200}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["convergence", "--config", str(path), "--out-dir", str(out)]) == 2
        assert [str(w.message) for w in caught] == []
        assert dict(steps) == {1024: 164, 2048: 200}
        assert unfinished == [0, 0]
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("varwave: run failed: the grid of 2048 nodes used up")
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_non_doubling_rejected(self, tmp_path):
        cfg = base_config()
        cfg["experiment"] = {"kind": "convergence", "n_list": [100, 150, 300]}
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    def test_too_few_resolutions_rejected(self, tmp_path):
        cfg = base_config()
        cfg["experiment"] = {"kind": "convergence", "n_list": [128, 256]}
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1


class TestWriteCsv:
    @staticmethod
    def row_by_row(path, config, columns):
        """The writer's reference output: one f-string per value."""
        arrays = [np.atleast_1d(np.asarray(columns[k])) for k in columns]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# config {json.dumps(config, sort_keys=True)}\n")
            fh.write(",".join(columns) + "\n")
            for row in zip(*arrays):
                fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")

    @pytest.mark.parametrize("columns", [
        {
            "t": np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, math.pi,
                           1e22, 5e-324, -1.7976931348623157e308]),
            "n": np.arange(10),
            "S": np.linspace(-1.0, 1.0, 10) / 3.0,
        },
        {"x": np.array(-0.0)},
        {"a": np.array([]), "b": np.array([])},
        {},
    ])
    def test_bytes_match_row_by_row_formatting(self, tmp_path, monkeypatch, columns):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)  # 10 rows: three chunks and a tail
        config = {"grid": {"n": 8}}
        write_csv(tmp_path / "fast.csv", config, columns)
        self.row_by_row(tmp_path / "ref.csv", config, columns)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_unequal_columns_rejected_by_name(self, tmp_path):
        with pytest.raises(ValueError, match=r"'t': 3.*'E': 2"):
            write_csv(tmp_path / "bad.csv", {}, {"t": np.zeros(3), "E": np.zeros(2)})


def reference_snapshot_table(path, config, grid, setup, states):
    """The snapshot table as first written: u_r from the inverse map on every
    node, whole columns concatenated over the states, one value at a time."""
    rows = {"t": [], "r": [], "u": [], "R": [], "S": [], "u_r": []}
    for s in states:
        _, u_r = from_riemann(grid.r, s.u, s.R, s.S, setup.speed, setup.alpha)
        rows["t"].append(np.full(grid.n, s.t))
        rows["r"].append(grid.r)
        rows["u"].append(s.u)
        rows["R"].append(s.R)
        rows["S"].append(s.S)
        rows["u_r"].append(u_r)
    TestWriteCsv.row_by_row(path, config, {k: np.concatenate(v) for k, v in rows.items()})


def snapshot_setup(d, u0=math.pi / 4, speed=None):
    return ProblemSetup.theorem(
        d=d, r0=1.0, eps=0.1, u0=u0,
        speed=speed or OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0),
        profile=PolynomialBump(amplitude=1.0),
    )


def hand_state(setup, n, t, live, values):
    """State that is (u0, +0.0, +0.0) outside live = [a, b) and takes
    values[k] at node a + k inside it."""
    u, R, S = np.full(n, setup.u0), np.zeros(n), np.zeros(n)
    a, b = live
    for k, (uk, Rk, Sk) in enumerate(values[: b - a]):
        u[a + k], R[a + k], S[a + k] = uk, Rk, Sk
    return GridState(t, np.array([u, R, S]), live)


SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 0.75, -3.5e7)
N_SNAP = 16


class TestSnapshotTable:
    """The streamed snapshot table against whole columns, byte for byte."""

    def assert_table_matches(self, tmp_path, grid, setup, states):
        config = {"grid": {"n": grid.n}}
        write_csv(
            tmp_path / "streamed.csv", config,
            (["t", "r", "u", "R", "S", "u_r"], cli._snapshot_rows(grid, setup, states)),
        )
        reference_snapshot_table(tmp_path / "whole.csv", config, grid, setup, states)
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "live",
        [(0, 0), (0, 5), (11, N_SNAP), (7, 8), (0, N_SNAP), (3, 13)],
        ids=str,
    )
    def test_live_ranges(self, tmp_path, monkeypatch, d, live):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)  # ranges split across chunks
        setup = snapshot_setup(d)
        grid = Grid.uniform(*setup.domain, N_SNAP)
        specials = [(0.5 + v, v, SPECIAL[-1 - k]) for k, v in enumerate(SPECIAL)]
        states = [
            hand_state(setup, N_SNAP, t, live, specials * 2)
            for t in (0.0, 1e-3, 0.1234567890123)
        ]
        self.assert_table_matches(tmp_path, grid, setup, states)

    # the draws are any float64: np.tan warns on a u of +-inf, and from_riemann
    # on R + S and R - S that overflow or are inf - inf; both tables get the
    # same inf or NaN there
    @pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered in:RuntimeWarning")
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        d=st.sampled_from([1, 3]),
        ends=st.tuples(st.integers(0, N_SNAP), st.integers(0, N_SNAP)).map(sorted),
        values=st.lists(
            st.tuples(*[st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))] * 3),
            min_size=N_SNAP, max_size=N_SNAP,
        ),
        t=st.floats(0.0, 1.0),
    )
    def test_hypothesis_states(self, tmp_path, d, ends, values, t):
        setup = snapshot_setup(d)
        grid = Grid.uniform(*setup.domain, N_SNAP)
        states = [hand_state(setup, N_SNAP, t, tuple(ends), values)]
        self.assert_table_matches(tmp_path, grid, setup, states)

    def test_zero_u0_range_from_the_live_scan(self, tmp_path):
        # either zero base angle is stored as +0.0, and the scan compares u
        # with it bit for bit: u = -0.0 is live, and the rows outside the
        # range are written from the text of +0.0
        for u0, other in itertools.product((0.0, -0.0), repeat=2):
            setup = snapshot_setup(1, u0=u0, speed=ConstantSpeed.of(1.0))
            assert math.copysign(1, setup.u0) == 1
            grid = Grid.uniform(*setup.domain, N_SNAP)
            u, R, S = np.full(N_SNAP, other), np.zeros(N_SNAP), np.zeros(N_SNAP)
            R[6:9] = 0.25
            fields = np.array([u, R, S])
            live = _live_span(fields, _float_bits(setup.u0))
            assert live == ((6, 9) if math.copysign(1, other) > 0 else (0, N_SNAP))
            self.assert_table_matches(tmp_path, grid, setup, [GridState(0.5, fields, live)])

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    @pytest.mark.parametrize("u0", [0.0, -0.0], ids=["+0", "-0"])
    def test_zero_u0_recorded_run(self, tmp_path, scheme, u0):
        setup = snapshot_setup(1, u0=u0, speed=ConstantSpeed.of(1.0))
        grid = Grid.uniform(*setup.domain, 128)
        snaps = SnapshotTable(grid, setup, stride=20)
        result = run(setup, grid, SchemeConfig(scheme=scheme), observers=(snaps,))
        snaps.ensure_last(result.state)
        lives = [s.live for s in snaps.states]
        # -0.0 is stored as +0.0, and S is +0.0 off the support, so the
        # initial range is the support
        assert all(1 < a < b < grid.n - 1 for a, b in lives[:2])
        self.assert_table_matches(tmp_path, grid, setup, snaps.states)

    def test_canonical_table_peak(self, canonical_setup, traced_peak):
        # the states simulate records on the canonical config: 12 at N = 4096
        grid = Grid.uniform(*canonical_setup.domain, 4096)
        cfg = SchemeConfig()
        steps = math.ceil(canonical_setup.t_final / (cfg.cfl * grid.h / canonical_setup.speed.c1))
        snaps = SnapshotTable(grid, canonical_setup, stride=max(1, steps // 10))
        snaps.ensure_last(run(canonical_setup, grid, cfg, observers=(snaps,)).state)
        assert len(snaps.states) == 12
        # chunks of 4,096 rows peak at 2.2 MiB
        rows = cli._snapshot_rows(grid, canonical_setup, snaps.states)
        assert traced_peak(lambda: sum(map(len, rows))) < 1.5

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_recorded_run(self, tmp_path, scheme):
        setup = snapshot_setup(3)
        grid = Grid.uniform(*setup.domain, 256)
        snaps = SnapshotTable(grid, setup, stride=40)
        result = run(setup, grid, SchemeConfig(scheme=scheme), observers=(snaps,))
        snaps.ensure_last(result.state)
        lives = [s.live for s in snaps.states]
        assert all(0 < a < b < grid.n for a, b in lives[:3])
        self.assert_table_matches(tmp_path, grid, setup, snaps.states)


class TestSnapshotWorker:
    """Given two CPUs, simulate and eps-sweep format the snapshot table on one
    worker process, which writes the bytes of the in-process table and
    outlives no call; given one, they write it in-process.  Each test sets
    the CPU count, so both sides run on any host."""

    @staticmethod
    def spy_shutdowns(monkeypatch) -> list:
        """The arguments of each process pool's shutdown, in call order."""
        shutdowns = []
        shutdown = ProcessPoolExecutor.shutdown

        def record(pool, **kwargs):
            shutdowns.append(kwargs)
            shutdown(pool, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "shutdown", record)
        return shutdowns

    @staticmethod
    def spy_tables(monkeypatch) -> list:
        """Every SnapshotTable the calls build."""
        tables = []

        class Table(SnapshotTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tables.append(self)

        monkeypatch.setattr(cli, "SnapshotTable", Table)
        return tables

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", ["simulate", "eps-sweep"])
    def test_no_process_outlives_a_call(self, tmp_path, monkeypatch, command, cpus):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        shutdowns = self.spy_shutdowns(monkeypatch)
        cfg = base_config(grid={"n": 128})
        runs = [tmp_path / "o"]
        if command == "eps-sweep":
            cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1, 0.05]}
            runs = [tmp_path / "o" / "eps_0.1", tmp_path / "o" / "eps_0.05"]
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        assert multiprocessing.active_children() == []
        # after a clean run the worker is joined once its jobs are done
        assert shutdowns == [{"cancel_futures": False}] * len(runs) * (cpus - 1)
        assert all((run_dir / "snapshots.csv").stat().st_size > 0 for run_dir in runs)

    @pytest.mark.parametrize("command", ["simulate", "eps-sweep"])
    def test_no_process_outlives_a_failed_march(self, tmp_path, capsys, monkeypatch, command):
        # the angles of TestAnglesOffTheTable's run leave the table mid-run,
        # after the worker has been sent the first states
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        shutdowns = self.spy_shutdowns(monkeypatch)
        cfg = base_config(grid={"n": 256})
        cfg["setup"].update(
            u0=0.6, speed=TestAnglesOffTheTable.tabulated([0.31, 0.5, 0.7, 0.89]),
            profile={"kind": "polynomial", "amplitude": 10.0},
        )
        if command == "eps-sweep":
            cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1]}
        path = write_config(tmp_path, cfg)
        code = main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert multiprocessing.active_children() == []
        assert shutdowns == [{"cancel_futures": True}]
        if command == "simulate":
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("varwave: run failed: angle left the speed table")
            assert not (tmp_path / "o").exists()
        else:  # the sweep collects the failure and makes no directory for its eps
            assert code == 0
            errors = json.loads((tmp_path / "o" / "sweep.json").read_text())["errors"]
            assert errors["0.1"].startswith("angle left the speed table")
            assert not (tmp_path / "o" / "eps_0.1").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("stride", [1, 0], ids=["stride=1", "stride=auto"])
    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_worker_table_equals_the_in_process_table(
        self, tmp_path, monkeypatch, scheme, stride, cpus
    ):
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        tables = self.spy_tables(monkeypatch)
        cfg = base_config(grid={"n": 256}, output={"snapshot_stride": stride})
        cfg["scheme"]["scheme"] = scheme
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        (table,) = tables
        steps = json.loads((tmp_path / "o" / "diagnostics.json").read_text())["run"]["steps"]
        assert len(table.states) == (steps + 1 if stride == 1 else 12)
        setup = build_setup(cfg)
        grid = cli.build_grid(cfg, setup)
        write_csv(
            tmp_path / "in_process.csv", cfg,
            (cli.SNAPSHOT_COLUMNS, cli._snapshot_rows(grid, setup, table.states)),
        )
        table = (tmp_path / "o" / "snapshots.csv").read_bytes()
        assert table == (tmp_path / "in_process.csv").read_bytes()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_table_sends_each_state_as_it_is_kept(self, monkeypatch, cpus):
        # every third state, the initial one first, and the last one once; given
        # two CPUs, each goes to the worker as it is kept, and with none on one
        monkeypatch.setattr(cli, "_cpus", lambda: cpus)
        sent = []
        submit = ProcessPoolExecutor.submit

        def spy(pool, fn, *args):
            sent.append(args[0])
            return submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        setup = snapshot_setup(1, speed=ConstantSpeed.of(1.0))
        states = [hand_state(setup, N_SNAP, 0.1 * k, (3, 6), [(0.5, k, 1.0)] * 3) for k in range(8)]
        with SnapshotTable(Grid.uniform(*setup.domain, N_SNAP), setup, 3) as table:
            for state in states:
                table(state)
                assert sent == (table.states if cpus == 2 else [])
            table.ensure_last(states[-1])
            table.ensure_last(states[-1])
            assert table.states == [states[0], states[3], states[6], states[7]]
            assert sent == (table.states if cpus == 2 else [])
        assert multiprocessing.active_children() == []


class TestValidation:
    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1

    def test_experiment_kind_mismatch(self, tmp_path):
        cfg = base_config()
        cfg["experiment"] = {"kind": "triangle", "r1": 0.9, "r2": 1.1}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    def test_unknown_speed_kind(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["speed"] = {"kind": "warp"}
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    def test_bad_bounds_rejected(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["speed"]["c1"] = 1.2  # true max is sqrt(2)
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    def test_eps_too_large_rejected(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["eps"] = 0.75
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [("setup", "domain", [0.5]), ("setup", "domain", [0.5, None])],
        ids=["domain-one-number", "domain-null-end"],
    )
    def test_malformed_value_is_one_line_config_error(self, tmp_path, capsys, section, key, value):
        cfg = base_config()
        cfg[section][key] = value
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("varwave: invalid configuration: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "section, key",
        [
            ("setup", "d"), ("setup", "r0"), ("setup", "eps"), ("setup", "u0"),
            ("scheme", "cfl"), ("scheme", "max_steps"), ("scheme", "gradient_ceiling"),
            ("output", "snapshot_stride"),
            ("experiment", "eps_list"), ("experiment", "n_list"),
            ("experiment", "r1"), ("experiment", "r2"),
        ],
        ids=lambda v: v,
    )
    def test_null_value_is_one_line_config_error(self, tmp_path, capsys, section, key):
        command, experiment = {
            "eps_list": ("eps-sweep", {"kind": "eps_sweep", "eps_list": [0.1]}),
            "n_list": ("convergence", {"kind": "convergence", "n_list": [64, 128, 256]}),
            "r1": ("triangle", {"kind": "triangle", "r1": 0.85, "r2": 1.15}),
            "r2": ("triangle", {"kind": "triangle", "r1": 0.85, "r2": 1.15}),
        }.get(key, ("simulate", {}))
        cfg = base_config(experiment=experiment)
        cfg[section][key] = None
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"varwave: invalid configuration: {section}.{key} must be a ")
        assert err.endswith(", got null\n") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, section",
        [
            ("simulate", "config"), ("simulate", "setup"), ("simulate", "setup.speed"),
            ("simulate", "scheme"), ("simulate", "grid"), ("simulate", "output"),
            ("simulate", "experiment"), ("triangle", "experiment"),
            ("eps-sweep", "experiment"), ("convergence", "experiment"),
        ],
        ids=lambda v: v,
    )
    def test_null_section_is_one_line_config_error(self, tmp_path, capsys, command, section):
        cfg = base_config()
        if section == "config":
            cfg = None
        elif section == "setup.speed":
            cfg["setup"]["speed"] = None
        else:
            cfg[section] = None
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"varwave: invalid configuration: {section} must be an object, got null\n"

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("setup", "d", 3.5, "must be an integer, got 3.5"),
            ("setup", "d", True, "must be a finite number, got true"),
            ("setup", "d", math.inf, "must be a finite number, got Infinity"),
            ("grid", "n", 512.5, "must be an integer, got 512.5"),
            ("grid", "n", "512", 'must be a finite number, got "512"'),
            ("grid", "n", math.inf, "must be a finite number, got Infinity"),
            ("grid", "n", [512], "must be a finite number, got [512]"),
            ("scheme", "max_steps", 10.5, "must be an integer, got 10.5"),
            ("output", "snapshot_stride", False, "must be a finite number, got false"),
            ("setup", "r0", math.nan, "must be a finite number, got NaN"),
            ("setup.speed", "c0", "1", 'must be a finite number, got "1"'),
            ("setup.speed", "k3", math.inf, "must be a finite number, got Infinity"),
            ("setup.profile", "amplitude", True, "must be a finite number, got true"),
            ("setup.profile", "kind", "bump", 'must be one of polynomial, got "bump"'),
            ("setup.speed", "kind", 5, "must be one of oseen_frank, constant, tabulated, got 5"),
        ],
        ids=lambda v: str(v),
    )
    def test_non_integral_or_non_number_is_one_line_config_error(
        self, tmp_path, capsys, section, key, value, message
    ):
        cfg = base_config()
        parent = cfg
        for name in section.split("."):
            parent = parent[name]
        parent[key] = value
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"varwave: invalid configuration: {section}.{key} {message}\n"

    def test_non_integral_grid_size_in_n_list_rejected(self, tmp_path, capsys):
        cfg = base_config(experiment={"kind": "convergence", "n_list": [64, 128.5, 256]})
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "varwave: invalid configuration: experiment.n_list must be an integer, got 128.5\n"

    def test_integral_float_keys_accepted(self):
        cfg = base_config()
        cfg["setup"]["d"] = 3.0
        setup = build_setup(cfg)
        assert setup.d == 3 and isinstance(setup.d, int)

    @pytest.mark.parametrize(
        "value", [[0.1], {"t": 0.1}, True, "0.1", math.inf], ids=lambda v: json.dumps(v)
    )
    def test_t_compare_must_be_a_number(self, tmp_path, capsys, value):
        cfg = base_config(
            experiment={"kind": "convergence", "n_list": [64, 128, 256], "t_compare": value}
        )
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "varwave: invalid configuration: experiment.t_compare must be a finite number, "
            f"got {json.dumps(value)}\n"
        )

    @pytest.mark.parametrize("value", [-1.0, 0.0, -0.0], ids=str)
    def test_t_compare_must_be_positive(self, tmp_path, capsys, value):
        cfg = base_config(
            experiment={"kind": "convergence", "n_list": [64, 128, 256], "t_compare": value}
        )
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "varwave: invalid configuration: experiment.t_compare must be positive, "
            f"got {value}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_t_compare_must_not_exceed_t_final(self, tmp_path, capsys):
        cfg = base_config()
        cfg["setup"]["d"] = 1
        cfg["setup"]["speed"] = {"kind": "constant", "c": 1.0}
        cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 1.0}
        t_final = build_setup(cfg).t_final
        cfg["experiment"] = {"kind": "convergence", "n_list": [64, 128, 256], "t_compare": 3.0}
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "varwave: invalid configuration: experiment.t_compare must not exceed "
            f"t_final = {t_final}, got 3.0\n"
        )
        assert not (tmp_path / "o").exists()
        # the window may end at t_final itself
        cfg["experiment"]["t_compare"] = t_final
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "domain, shown",
        [
            ([True, 3], "true"), ([0.5, False], "false"), ([0.5, "3"], '"3"'),
            ([0.5, math.inf], "Infinity"),
        ],
        ids=str,
    )
    def test_domain_ends_must_be_numbers(self, tmp_path, capsys, domain, shown):
        cfg = base_config()
        cfg["setup"]["domain"] = domain
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"varwave: invalid configuration: setup.domain must be a finite number, got {shown}\n"
        )

    def test_top_level_list_is_one_line_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, [base_config()])
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("varwave: invalid configuration: config must be an object, got [")
        assert len(err.splitlines()) == 1

    def test_theorem_profile_needs_steepening_speed(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["speed"] = {"kind": "constant", "c": 1.0}
        cfg["setup"]["profile"] = "theorem"
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1


def fuzz_configs():
    """A small valid config per command, with only the sections it reads."""
    setup = base_config()["setup"]
    scheme = base_config()["scheme"]
    grid, output = {"n": 64}, {"snapshot_stride": 50}
    return {
        "simulate": {"setup": setup, "grid": grid, "scheme": scheme, "output": output},
        "triangle": {
            "setup": setup, "grid": grid, "scheme": scheme,
            "experiment": {"kind": "triangle", "r1": 0.85, "r2": 1.15},
        },
        "eps-sweep": {
            "setup": setup, "grid": grid, "scheme": scheme, "output": output,
            "experiment": {"kind": "eps_sweep", "eps_list": [0.1]},
        },
        "convergence": {
            "setup": setup, "scheme": scheme,
            "experiment": {"kind": "convergence", "n_list": [16, 32, 64], "t_compare": 0.05},
        },
    }


def key_paths(cfg, prefix=()):
    """The path of every key of cfg, at every depth."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def lookup(cfg, path):
    """The value at the key path of cfg."""
    for key in path:
        cfg = cfg[key]
    return cfg


# every key of cli.KEYS that a command's fuzz config carries: the configs
# carry only what their command reads, so a malformed value there is read
FUZZ_KEYS = [
    (command, tuple(dotted.split(".")))
    for command, cfg in fuzz_configs().items()
    for dotted in cli.KEYS
    if tuple(dotted.split(".")) in set(key_paths(cfg))
]

# every object of each fuzz config, the document itself included
SECTIONS = [
    (command, path)
    for command, cfg in fuzz_configs().items()
    for path in [(), *(p for p in key_paths(cfg) if isinstance(lookup(cfg, p), dict))]
]

MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.lists(st.one_of(st.none(), st.booleans(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


def accepted(path, value, original):
    """Whether the key at path takes value, by its entry in cli.KEYS."""
    dotted = ".".join(path)
    key = cli.KEYS[dotted]
    if (isinstance(value, str) and value == original) or value in key.sentinels:
        return True
    if dotted == "experiment.kind":  # it must name the command, as the original does
        return False
    if dotted == "scheme.scheme":  # a "value" that SchemeConfig checks
        return value in SCHEMES
    # an empty section reads as its defaults when every key has one
    return key.kind == "object" and value == {} and all(
        cli.KEYS[f"{dotted}.{leaf}"].default is not cli._REQUIRED for leaf in cli._leaves(dotted)
    )


class TestConfigFuzz:
    """One malformed value anywhere in a valid config: exit 1, one stderr line."""

    @pytest.mark.parametrize("command", sorted(fuzz_configs()))
    def test_fuzz_configs_are_valid(self, tmp_path, command):
        cfg = fuzz_configs()[command]
        assert {".".join(p) for p in key_paths(cfg)} <= set(cli.KEYS)
        config = write_config(tmp_path, cfg)
        assert main([command, "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0

    @settings(
        max_examples=400, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(FUZZ_KEYS), MALFORMED)
    def test_malformed_value_is_one_line_config_error(self, tmp_path, capsys, where, value):
        command, path = where
        cfg = fuzz_configs()[command]
        parent = lookup(cfg, path[:-1])
        assume(not accepted(path, value, parent[path[-1]]))
        # a null grid.n is still an uncaught TypeError: the benchmark
        # self-test crashes a run with it until it has another trigger
        # (ROADMAP item 2c)
        assume(not (path == ("grid", "n") and value is None))
        parent[path[-1]] = value
        config = write_config(tmp_path, cfg)
        capsys.readouterr()
        code = main([command, "--config", str(config), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert err.startswith("varwave: invalid configuration: ")
        assert "Traceback" not in err

    @settings(
        max_examples=200, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(SECTIONS), st.text(min_size=1, max_size=8), MALFORMED)
    def test_unknown_key_is_one_line_config_error(self, tmp_path, capsys, where, name, value):
        command, path = where
        full = ".".join((*path, name))
        assume(full not in cli.KEYS)
        cfg = fuzz_configs()[command]
        lookup(cfg, path)[name] = value
        config = write_config(tmp_path, cfg)
        capsys.readouterr()
        code = main([command, "--config", str(config), "--out-dir", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert err.startswith(f"varwave: invalid configuration: unknown key {full}; known keys: ")
        assert not (tmp_path / "o").exists()


class TestConfigKeys:
    """One declared table: unknown keys are errors, defaults live in one place."""

    # five stray keys, in document order; the first one left is named
    STRAYS = [
        ("setup", "speed", "c0"), ("setup", "profile", "amplitdue"), ("scheme", "schem"),
        ("output", "snapshot_strid"), ("grdi",),
    ]
    PROBE = {
        "setup": {
            "d": 1, "r0": 1.0, "eps": 0.1, "u0": 0.5,
            "speed": {"kind": "constant", "c": 1.0, "c0": 1.0},
            "profile": {"kind": "polynomial", "amplitdue": 1.0},
        },
        "grid": {"n": 64},
        "scheme": {"schem": "muscl2", "cfl": 0.9},
        "output": {"snapshot_strid": 10},
        "grdi": {"n": 64},
    }

    @pytest.mark.parametrize(
        "removed, known",
        [
            (0, "kind, c"),
            (1, "kind, amplitude"),
            (2, "cfl, scheme, max_steps, gradient_ceiling"),
            (3, "snapshot_stride"),
            (4, "setup, scheme, grid, output, experiment"),
        ],
    )
    def test_stray_keys_exit_1_naming_the_first(self, tmp_path, capsys, removed, known):
        cfg = copy.deepcopy(self.PROBE)
        for path in self.STRAYS[:removed]:
            del lookup(cfg, path[:-1])[path[-1]]
        named = ".".join(self.STRAYS[removed])
        config = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"varwave: invalid configuration: unknown key {named}; known keys: {known}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, stray",
        [("constant", "c0"), ("constant", "knots"), ("oseen_frank", "c"), ("tabulated", "k1")],
    )
    def test_speed_keys_follow_the_kind(self, tmp_path, capsys, kind, stray):
        u = np.linspace(0.0, np.pi, 9)
        speed = {
            "oseen_frank": base_config()["setup"]["speed"],
            "constant": {"kind": "constant", "c": 1.0},
            "tabulated": {
                "kind": "tabulated", "c0": 1.0, "c1": SQRT2,
                "knots": list(u), "values": list(np.sqrt(1.0 + np.sin(u) ** 2)),
            },
        }[kind]
        cfg = base_config()
        cfg["setup"]["speed"] = {**speed, stray: 1.0}
        config = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"varwave: invalid configuration: unknown key setup.speed.{stray}; ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "path", [("setup", "d"), ("setup", "speed", "c0"), ("setup", "profile", "amplitude"),
                 ("setup", "speed", "kind"), ("grid", "n")],
        ids=".".join,
    )
    def test_missing_key_is_named_by_its_full_path(self, tmp_path, capsys, path):
        cfg = base_config()
        del lookup(cfg, path[:-1])[path[-1]]
        config = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"varwave: invalid configuration: missing {'.'.join(path)}\n"

    def test_unread_known_section_is_allowed_but_checked(self, tmp_path, capsys):
        # convergence does not read grid: it may be there, with declared keys only
        cfg = base_config(grid={"n": 4})
        cfg["experiment"] = {"kind": "convergence", "n_list": [16, 32, 64], "t_compare": 0.05}
        config = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 0
        cfg["grid"]["m"] = 4
        config = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(config), "--out-dir", str(tmp_path / "p")]) == 1
        assert capsys.readouterr().err.startswith("varwave: invalid configuration: unknown key grid.m;")

    def test_scheme_defaults_are_the_scheme_config_defaults(self):
        assert cli.build_scheme({}) == SchemeConfig()
        defaults = {f.name: f.default for f in dataclasses.fields(SchemeConfig)}
        for name, value in defaults.items():
            key = cli.KEYS[f"scheme.{name}"]
            assert key.default == value or (value is None and key.default in key.sentinels)

    def test_no_default_literal_is_written_twice(self):
        # a default of SchemeConfig appears in cli.py only through SchemeConfig
        tree = ast.parse(Path(cli.__file__).read_text())
        literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        shared = [f.default for f in dataclasses.fields(SchemeConfig) if f.default is not None]
        assert not [v for v in shared if v in literals]

    def test_readme_table_lists_the_declared_keys_and_defaults(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                keys, default = (cell.strip() for cell in line.split("|")[1:3])
                for key in re.findall(r"`([^`]+)`", keys):
                    rows[key] = default
        want = {
            path: "" if key.default is cli._REQUIRED else f"`{json.dumps(key.default)}`"
            for path, key in cli.KEYS.items()
        }
        assert rows == want


def _polynomial(amplitude):
    return {"kind": "polynomial", "amplitude": amplitude}


# d = 1 data on a domain of about 1e-300, at the canonical Oseen-Frank speed
# with c1 = 1e20, and at the constant speed 1e20
TINY_DOMAIN = {"d": 1, "r0": 1e-300, "eps": 4e-301, "u0": 0.5,
               "speed": {"c1": 1e20}, "profile": _polynomial(1.0)}
TINY_CONSTANT = {"r0": 1e-300, "eps": 4e-301, "speed": {"c": 1e20}, "profile": _polynomial(1e-300)}
CFL_STEP_UNDERFLOW = "the time step cfl*h/c1 = 0.0 is not a positive finite float"


# The exit-1 configs, one per message family, and the float-range cases,
# each (command, CI config, changes, the stderr line after
# "varwave: invalid configuration: ").
EXIT_1_CASES = {
    "bad_d": ("simulate", "simulate", {"setup": {"d": 3.5}}, "setup.d must be an integer, got 3.5"),
    "bad_t_compare": ("convergence", "convergence", {"experiment": {"t_compare": [0.1]}},
                      "experiment.t_compare must be a finite number, got [0.1]"),
    "bad_t_compare_late": ("convergence", "convergence", {"experiment": {"t_compare": 5.0}},
                           "experiment.t_compare must not exceed t_final = 0.9, got 5.0"),
    "bad_feet": ("triangle", "triangle", {"experiment": {"r1": 0.001}},
                 "need r_lo <= r1 < r2 <= r_hi on the domain [0.01, 2.1], got r1=0.001, r2=1.15"),
    "bad_schem": ("simulate", "simulate", {"scheme": {"schem": "muscl2"}},
                  "unknown key scheme.schem; known keys: cfl, scheme, max_steps, gradient_ceiling"),
    "bad_section": ("simulate", "simulate", {"grdi": {"n": 512}},
                    "unknown key grdi; known keys: setup, scheme, grid, output, experiment"),
    "bad_stride": ("simulate", "simulate", {"output": {"snapshot_stride": -1}},
                   "output.snapshot_stride must be non-negative, got -1"),
    "bad_eps_cfl": ("eps-sweep", "eps_sweep", {"scheme": {"cfl": 2.0}}, "cfl must lie in (0, 1]"),
    # u_r = (R - S)/(2 c r^alpha) would be 0/0 at r_lo
    "bad_d700": ("simulate", "simulate", {"setup": {"d": 700}, "grid": {"n": 64}},
                 "the weight c0 * r_lo**alpha = 0.0 at r_lo = 0.01 is below 1e-300"),
    # 2**alpha overflows
    "bad_d2050": ("simulate", "simulate", {"setup": {"d": 2050}},
                  "the theorem amplitude = inf is not a positive finite float"),
    # (r0 + eps)**(2 alpha) overflows, and so does E(0), checked first
    "bad_r0": ("simulate", "simulate", {"setup": {"r0": 1e300}},
               "the initial energy by quadrature of the initial data overflows a float"),
    "bad_amplitude": ("simulate", "zero_u0", {"setup": {"profile": _polynomial(1e200)}},
                      ENERGY_OVERFLOW.format(n=256)),
    "sweep_amplitude": ("eps-sweep", "zero_u0",
                        {"setup": {"profile": _polynomial(1e200)},
                         "experiment": {"kind": "eps_sweep", "eps_list": [0.1, 0.05]}},
                        ENERGY_OVERFLOW.format(n=256)),
    # R**2 overflows at 1e200; at 1.2e154 S**2 does, but R**2 and the
    # energy of the bump (about 4.2e307) do not
    "bad_conv_amplitude": ("convergence", "convergence", {"setup": {"profile": _polynomial(1e200)}},
                           ENERGY_OVERFLOW.format(n=256)),
    "bad_conv_amplitude_sq": ("convergence", "convergence",
                              {"setup": {"profile": _polynomial(1.2e154)}},
                              ENERGY_OVERFLOW.format(n=256)),
    "simulate_conv_amplitude": ("simulate", "convergence",
                                {"setup": {"profile": _polynomial(1e200)}, "experiment": None},
                                ENERGY_OVERFLOW.format(n=1024)),
    "simulate_conv_amplitude_sq": ("simulate", "convergence",
                                   {"setup": {"profile": _polynomial(1.2e154)}, "experiment": None},
                                   ENERGY_OVERFLOW.format(n=1024)),
    # c1**2 overflows
    "bad_c1": ("simulate", "simulate", {"setup": {"speed": {"c1": 1e300}}},
               "the theorem amplitude = inf is not a positive finite float"),
    "bad_r0_zero": ("simulate", "simulate", {"setup": {"r0": 0.0}}, "bump center r0 must be positive"),
    "bad_r0_negative": ("simulate", "simulate", {"setup": {"d": 2, "r0": -1.0}},
                        "bump center r0 must be positive"),
    # an explicit profile skips theorem_amplitude; (2 c1 + eps)**2 overflows
    "bad_c1_profile": ("simulate", "simulate",
                       {"setup": {"speed": {"c1": 1e300}, "profile": _polynomial(100.0)}},
                       "the constant K_envelope = inf is not a finite float"),
    # c1**2 is finite, 32 c1**2 is not
    "bad_c1_amplitude": ("simulate", "simulate", {"setup": {"speed": {"c1": 1e154}}},
                         "the theorem amplitude = inf is not a positive finite float"),
    # r0 c0 c'(u0) underflows to 0.0, a divisor of the amplitude
    "bad_c0_amplitude": ("simulate", "simulate", {"setup": {"r0": 0.5, "speed": {"c0": 5e-324}}},
                         "the theorem amplitude = inf is not a positive finite float"),
    # 4 c0**2 underflows to 0.0, a divisor of M
    "bad_c0_m": ("simulate", "simulate",
                 {"setup": {"eps": 1e-201, "speed": {"c0": 1e-200}, "profile": _polynomial(1.0)}},
                 "the constant M = inf is not a finite float"),
    # c1**2 is finite, K_envelope = (eps**2 + (2 c1 + eps)**2) ... is not
    "bad_c1_k_envelope": ("simulate", "simulate",
                          {"setup": {"speed": {"c1": 1e150}, "profile": _polynomial(1e5)}},
                          "the constant K_envelope = inf is not a finite float"),
    # (r0 - eps)/c1 overflows: t_final and the auto domain are inf
    "bad_t_final": ("simulate", "convergence",
                    {"setup": {"r0": 1e300, "eps": 1e-11, "speed": {"c": 1e-10}},
                     "grid": {"n": 64}, "experiment": None},
                    "t_final = (r0 - eps)/c1 = inf is not a positive finite float"),
    # (r0 - eps)/c1 = 2^-574/2^501 underflows to 0.0
    "t_final_underflow": ("simulate", "simulate",
                          {"setup": {"d": 1, "r0": 2.0**-574, "eps": 2.0**-624,
                                     "speed": {"c1": 2.0**501, "k1": 2.0**502, "k3": 2.0**501},
                                     "profile": _polynomial(1.0)},
                           "grid": {"n": 16}},
                          "t_final = (r0 - eps)/c1 = 0.0 is not a positive finite float"),
    # t_final is finite, the auto domain's right end r0 + eps + c1 t_final is not
    "domain_end": ("simulate", "zero_u0", {"setup": {"r0": 1e308}},
                   "the domain end r_hi = inf is not a finite float"),
    # lambda S(0, r0) overflows, so the estimate 1/lambda and the default t_compare are 0.0
    "bad_default_t_compare": (
        "convergence", "convergence",
        {"setup": {"d": 2, "r0": 1.3200860322505988e-187, "eps": 3.4414581864378946e-277,
                   "u0": math.pi / 4,
                   "speed": {"kind": "oseen_frank", "c": None, "k1": 8.335381453938766e73,
                             "k3": 4.167690726969383e73, "c0": 1.0000000413147923,
                             "c1": 4.167690554782114e73},
                   "profile": _polynomial(6.99343111910548e280)},
         "grid": None, "experiment": {"t_compare": None}},
        "the default t_compare 0.0 is not positive; set experiment.t_compare",
    ),
    # on a domain of about 1e-300, h/c1 with c1 = 1e20 underflows the step to
    # 0.0: simulate's and eps-sweep's stride default divided by it,
    # convergence marched steps of zero length, and triangle read its states
    # as not bracketing a step
    "cfl_step_underflow": ("simulate", "simulate",
                           {"setup": TINY_DOMAIN, "grid": {"n": 100000}}, CFL_STEP_UNDERFLOW),
    "sweep_cfl_step_underflow": ("eps-sweep", "eps_sweep",
                                 {"setup": TINY_DOMAIN, "grid": {"n": 100000},
                                  "experiment": {"eps_list": [4e-301]}},
                                 CFL_STEP_UNDERFLOW),
    "conv_cfl_step_underflow": ("convergence", "convergence",
                                {"setup": TINY_CONSTANT, "scheme": {"max_steps": 5},
                                 "experiment": {"n_list": [25000, 50000, 100000],
                                                "t_compare": 1e-321}},
                                CFL_STEP_UNDERFLOW),
    "triangle_cfl_step_underflow": ("triangle", "convergence",
                                    {"setup": TINY_CONSTANT, "grid": {"n": 100000},
                                     "experiment": {"kind": "triangle", "r1": 9e-301,
                                                    "r2": 1.1e-300, "n_list": None,
                                                    "t_compare": None}},
                                    CFL_STEP_UNDERFLOW),
}


def without_nulls(cfg):
    """cfg without its null values, at every depth."""
    return {k: without_nulls(v) if isinstance(v, dict) else v for k, v in cfg.items() if v is not None}


def exit_1_case(name):
    """(command, config, message) of an EXIT_1_CASES entry; a null change removes its key."""
    command, base, changes, message = EXIT_1_CASES[name]
    return command, without_nulls(merged(ci_config(base), changes)), message


# a positive or negative power of 2, from the least subnormal to the largest
POWERS_OF_2 = st.builds(math.ldexp, st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023))


@st.composite
def drawn_cases(draw):
    """(command, config, None): a command's fuzz config with d in 1..5, a constant
    or Oseen-Frank speed, the theorem or a polynomial profile, up to three of the
    numbers of cli.KEYS it carries drawn from POWERS_OF_2, at most 64 nodes and
    200 steps.  A null grid.n is never drawn: it is still the benchmark
    self-test's crash trigger, an uncaught TypeError (ROADMAP item 2c)."""
    command = draw(st.sampled_from(sorted(fuzz_configs())))
    cfg = copy.deepcopy(fuzz_configs()[command])
    setup = cfg["setup"]
    setup["d"] = draw(st.integers(1, 5))
    if draw(st.booleans()):
        setup["speed"] = {"kind": "constant", "c": 1.0}
    if draw(st.booleans()):
        setup["profile"] = "theorem"
    cfg["scheme"]["max_steps"] = draw(st.integers(1, 200))
    if "grid" in cfg:
        cfg["grid"]["n"] = draw(st.integers(8, 64))
    experiment = cfg.get("experiment", {})
    if "eps_list" in experiment:
        experiment["eps_list"] = draw(st.lists(POWERS_OF_2, min_size=1, max_size=2, unique=True))
    if "n_list" in experiment:
        experiment["n_list"] = draw(st.sampled_from([[8, 16, 32], [16, 32, 64]]))
        if draw(st.booleans()):
            del experiment["t_compare"]
    numbers = [path for path in key_paths(cfg) if cli.KEYS[".".join(path)].kind == "number"]
    for path in draw(st.lists(st.sampled_from(numbers), max_size=3, unique=True)):
        lookup(cfg, path[:-1])[path[-1]] = draw(POWERS_OF_2)
    return command, cfg, None


def with_exit_1_examples(test):
    """test with each of EXIT_1_CASES as an explicit example."""
    for name in EXIT_1_CASES:
        test = example(case=exit_1_case(name))(test)
    return test


# drawn_cases draws of d = 2 at the canonical speed whose hat path samples a
# subnormal S: 1/S overflows, or its square does, in the 1/S record of a run
# that exits 0
INV_S_OVERFLOW_CASES = tuple(
    ("simulate", merged(fuzz_configs()["simulate"], {
        "setup": {"d": 2, "profile": _polynomial(amplitude)},
        "grid": {"n": n}, "scheme": {"max_steps": max_steps},
    }), None)
    for amplitude, n, max_steps in ((5e-324, 22, 14), (1.87e-242, 38, 200))
)


class TestExitCodes:
    """Exit 1 for a fault of the config, exit 2 for a fault of the run."""

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyError("boom")], ids=repr)
    def test_fault_inside_the_run_exits_2(self, tmp_path, capsys, monkeypatch, error):
        def fail(self, state, dt=None):
            raise error

        monkeypatch.setattr(cli.Stepper, "step", fail)
        path = write_config(tmp_path, base_config(grid={"n": 64}))
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"varwave: run failed: {error}\n"

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("scheme", "cfl", 2.0, "cfl must lie in (0, 1]"),
            ("scheme", "scheme", "rk4", "scheme must be one of"),
            ("scheme", "max_steps", -1, "max_steps must be non-negative"),
            ("grid", "n", 4, "grid needs at least 8 nodes"),
            ("setup", "profile", {"amplitude": -1.0}, "amplitude must be non-negative"),
            ("output", "snapshot_stride", -1, "output.snapshot_stride must be non-negative"),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("command", ["simulate", "eps-sweep"])
    def test_constructor_check_is_config_error(
        self, tmp_path, capsys, command, section, key, value, message
    ):
        cfg = base_config()
        cfg[section][key] = value
        if command == "eps-sweep":
            cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1, 0.05]}
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"varwave: invalid configuration: {message}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()  # checked before any directory is made

    def test_sweep_config_error_is_not_collected_per_eps(self, tmp_path, capsys):
        cfg = base_config(grid={"n": 64}, output={"snapshot_stride": "x"})
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1]}
        path = write_config(tmp_path, cfg)
        assert main(["eps-sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            'varwave: invalid configuration: output.snapshot_stride must be a finite number, got "x"\n'
        )
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_one_handler_chooses_exit_1(self):
        # the error class alone decides: every error that means invalid
        # input is a ConfigError, and main's exit-1 handler names no other
        tree = ast.parse(textwrap.dedent(inspect.getsource(cli.main)))
        handlers = [
            ast.unparse(h.type) for h in ast.walk(tree)
            if isinstance(h, ast.ExceptHandler) and "invalid configuration" in ast.unparse(h)
        ]
        assert handlers == ["ConfigError"]
        input_errors = {HypothesisViolated, BoundsViolation, SpeedNotIncreasing, DomainMismatch}
        assert set(ConfigError.__subclasses__()) == input_errors
        assert set(VarwaveError.__subclasses__()) == {ConfigError, *RUN_ERRORS}

    @pytest.mark.parametrize(
        "error", [*RUN_ERRORS, HypothesisViolated, BoundsViolation, ConfigError], ids=repr
    )
    def test_sweep_collects_run_failures_and_stops_on_config_faults(
        self, tmp_path, capsys, monkeypatch, error
    ):
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "run", fail)
        cfg = base_config(grid={"n": 64})
        cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1, 1e-07]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        code = main(["eps-sweep", "--config", str(path), "--out-dir", str(out)])
        err = capsys.readouterr().err
        if issubclass(error, ConfigError):
            assert (code, err) == (1, "varwave: invalid configuration: boom\n")
            assert not (out / "sweep.json").exists()
        else:
            assert (code, err) == (0, "")
            summary = json.loads((out / "sweep.json").read_text())
            assert summary["errors"] == {"0.1": "boom", "1e-07": "boom"}

    @settings(
        max_examples=250, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @with_exit_1_examples
    @example(case=INV_S_OVERFLOW_CASES[0])
    @example(case=INV_S_OVERFLOW_CASES[1])
    @given(case=drawn_cases())
    def test_exit_contract(self, tmp_path, capsys, monkeypatch, case):
        # exit 0; or exit 1 or 2 with one stderr line, no traceback and no
        # numpy warning, and on exit 1 no output directory; a case with a
        # message exits 1 with it
        command, cfg, message = case
        monkeypatch.setattr(cli, "_cpus", lambda: 1)  # simulate writes its table in-process
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "o"
        path = write_config(out.parent, cfg)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out-dir", str(out)])
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and message is None
            return
        prefix = {1: "varwave: invalid configuration: ", 2: "varwave: run failed: "}[code]
        assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
        assert code == 2 or not out.exists()
        if message is not None:
            assert err == f"varwave: invalid configuration: {message}\n"

    def test_underflowing_riccati_rate_takes_half_t_final(self, tmp_path, capsys):
        # lambda S(0, r0) underflows to 0.0: the estimate predicts no finite
        # time, so the default t_compare is half of t_final
        cfg = ci_config("convergence")
        cfg["setup"].update(
            u0=1e-300, speed=ci_config("simulate")["setup"]["speed"],
            profile={"kind": "polynomial", "amplitude": 1e-30},
        )
        del cfg["experiment"]["t_compare"]
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "o" / "convergence.json").read_text())
        assert summary["t_compare"] == 0.5 * (1.0 - 0.1) / SQRT2

    def test_default_t_compare_that_underflows_is_named(self, tmp_path, capsys):
        # lambda S(0, r0) overflows, so the estimate 1/lambda is 0.0 and so is
        # the default t_compare: no grid would take a step
        cfg = ci_config("convergence")
        cfg["setup"] = {
            "d": 2, "r0": 1.3200860322505988e-187, "eps": 3.4414581864378946e-277,
            "u0": math.pi / 4,
            "speed": {"kind": "oseen_frank", "k1": 8.335381453938766e73,
                      "k3": 4.167690726969383e73, "c0": 1.0000000413147923,
                      "c1": 4.167690554782114e73},
            "profile": {"kind": "polynomial", "amplitude": 6.99343111910548e280},
        }
        del cfg["experiment"]["t_compare"]
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "varwave: invalid configuration: the default t_compare 0.0 is not positive; "
            "set experiment.t_compare\n"
        )
        assert not (tmp_path / "o").exists()

    def test_energy_quadrature_overflow_is_named(self, tmp_path, capsys):
        # on 64 nodes the grid's sum of the d = 1 data stays finite at
        # amplitude 6.1e153, but the theorem constants' quadrature of E(0)
        # does not: it is named the same way, without a warning
        cfg = ci_config("convergence")
        del cfg["experiment"]
        cfg["grid"]["n"] = 64
        cfg["setup"]["profile"]["amplitude"] = 6.1e153
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "varwave: invalid configuration: "
            "the initial energy by quadrature of the initial data overflows a float\n"
        )
        assert not (tmp_path / "o").exists()

    def test_builders_raise_config_error_with_the_message(self):
        with pytest.raises(cli.ConfigError, match=r"^cfl must lie in \(0, 1\]$"):
            cli.build_scheme({"scheme": {"cfl": 0.0}})

    def test_convergence_grid_below_8_nodes_is_config_error(self, tmp_path, capsys):
        cfg = base_config()
        cfg["experiment"] = {"kind": "convergence", "n_list": [4, 8, 16], "t_compare": 0.1}
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == (
            "varwave: invalid configuration: experiment.n_list entries must be at least 8, got 4\n"
        )


def _kill_worker(*args):
    """A snapshot job that ends the worker process running it."""
    os._exit(3)


class TestOneLineFailures:
    """An output error, a snapshot worker that dies, a bump center r0 <= 0,
    declared constants that overflow and an energy that overflows each exit
    with their code and one stderr line, with no traceback and no numpy
    warning, and leave no output directory and no process behind."""

    @staticmethod
    def fails(tmp_path, capsys, command, cfg, code, out=None, absent=None) -> str:
        """The one stderr line of a command that exits with code, checked as
        above; absent, the output directory out by default, must not exist."""
        out = tmp_path / "o" if out is None else out
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--config", str(path), "--out-dir", str(out)]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (out if absent is None else absent).exists()
        assert multiprocessing.active_children() == []
        return err.rstrip("\n")

    @pytest.mark.parametrize("command", ["simulate", "eps-sweep", "convergence"])
    def test_output_dir_under_a_file_exits_2(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(cli, "_cpus", lambda: 2)  # simulate writes with its worker
        cfg = ci_config("convergence" if command == "convergence" else "simulate")
        cfg["grid"]["n"] = 128
        if command == "eps-sweep":
            cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1]}
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "o"
        err = self.fails(tmp_path, capsys, command, cfg, 2, out)
        assert err == f"varwave: run failed: [Errno 20] Not a directory: '{out}'"

    @pytest.mark.parametrize("command", ["simulate", "eps-sweep"])
    def test_dead_snapshot_worker_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # the worker dies at its first job, and the march of about 2,000
        # steps sends one job a step: a job sent once the pool has seen the
        # death fails, long before the march would end and make the directory
        monkeypatch.setattr(cli, "_cpus", lambda: 2)
        monkeypatch.setattr(cli, "_table_add", _kill_worker)
        cfg = base_config(grid={"n": 4096}, output={"snapshot_stride": 1})
        absent = None
        if command == "eps-sweep":  # the sweep stops: it records no such failure per eps
            cfg["experiment"] = {"kind": "eps_sweep", "eps_list": [0.1, 0.05]}
            absent = tmp_path / "o" / "eps_0.1"
        err = self.fails(tmp_path, capsys, command, cfg, 2, absent=absent)
        assert err == (
            "varwave: run failed: A child process terminated abruptly, "
            "the process pool is not usable anymore"
        )
        assert not (tmp_path / "o" / "sweep.json").exists()

    @pytest.mark.parametrize(
        "d, r0", [(3, 0.0), (3, -0.0), (2, -1.0), (3, -1.0)], ids=["0", "-0", "-1-d=2", "-1-d=3"]
    )
    def test_bump_center_not_positive_is_named(self, tmp_path, capsys, d, r0):
        cfg = ci_config("simulate")
        cfg["setup"].update(d=d, r0=r0)
        err = self.fails(tmp_path, capsys, "simulate", cfg, 1)
        assert err == "varwave: invalid configuration: bump center r0 must be positive"

    def test_overflowing_speed_constant_is_named(self, tmp_path, capsys):
        # c1 of 1e300 and 1e154 are cases of TestExitCodes.test_exit_contract
        cfg = ci_config("simulate")
        cfg["setup"]["speed"]["k1"] = 1e300
        err = self.fails(tmp_path, capsys, "simulate", cfg, 1)
        assert err == (
            "varwave: invalid configuration: declared bounds c0=1.0, c1=1.4142135623730951 "
            "violated: sampled min c=1.0, max c=inf, max |c'|=1e+150"
        )

    def test_energy_overflow_is_named_by_the_observer(self, tmp_path, capsys):
        # the ceiling lets R grow until R**2 overflows on a finite state
        cfg = ci_config("simulate")
        cfg["grid"]["n"] = 64
        cfg["scheme"] = {"cfl": 1.0, "gradient_ceiling": 1e300}
        err = self.fails(tmp_path, capsys, "simulate", cfg, 2)
        assert err.startswith("varwave: run failed: the energy overflows a float at t=")

    @pytest.mark.parametrize("eps", [1e-200, 5e-324])
    def test_tiny_eps_runs_without_a_warning(self, tmp_path, capsys, eps):
        # off the support z = (r - r0)/eps overflows, or z * z does
        cfg = ci_config("simulate")
        cfg["setup"]["eps"] = eps
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""


class TestTabulatedConfig:
    def test_tabulated_speed_round_trips(self, tmp_path):
        u = np.linspace(0.0, np.pi, 65)
        c = np.sqrt(1.0 + np.sin(u) ** 2)
        cfg = base_config()
        cfg["setup"]["speed"] = {
            "kind": "tabulated",
            "knots": list(u),
            "values": list(c),
            "c0": float(c.min()),
            "c1": SQRT2,
        }
        cfg["setup"]["u0"] = math.pi / 4
        cfg["grid"]["n"] = 256
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0


    # a null derivative_values means that none are given
    @pytest.mark.parametrize(
        "key, value, message",
        [
            (key, value, message)
            for key in ("knots", "values", "derivative_values")
            for value, message in (
                (None, "must be a list of numbers, got null"),
                (5, "must be a list of numbers, got 5"),
                ([0.0, "1"], 'must be a finite number, got "1"'),
                ([0.0, True], "must be a finite number, got true"),
            )
            if not (key == "derivative_values" and value is None)
        ],
        ids=str,
    )
    def test_malformed_table_is_one_line_config_error(self, tmp_path, capsys, key, value, message):
        u = np.linspace(0.0, np.pi, 9)
        speed = {
            "kind": "tabulated", "c0": 1.0, "c1": SQRT2,
            "knots": list(u), "values": list(np.sqrt(1.0 + np.sin(u) ** 2)),
        }
        speed[key] = value
        cfg = base_config()
        cfg["setup"]["speed"] = speed
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"varwave: invalid configuration: setup.speed.{key} {message}\n"


class TestAnglesOffTheTable:
    """A tabulated speed is NaN off its knots: initial angles off the table are
    a config error, and angles that leave it during a run are named."""

    @staticmethod
    def tabulated(knots):
        knots = np.asarray(knots, dtype=float)
        return {
            "kind": "tabulated", "c0": 1.0, "c1": SQRT2,
            "knots": list(knots), "values": list(np.sqrt(1.0 + np.sin(knots) ** 2)),
        }

    # u0 = pi/4 lies off the first table; the theorem profile winds u over
    # several radians, off the second
    @pytest.mark.parametrize("knots", [[0.0, 0.5, 0.7], [0.0, 0.5, 0.8]], ids=str)
    @pytest.mark.parametrize("command", ["simulate", "convergence"])
    def test_initial_angles_off_the_table_are_config_error(self, tmp_path, capsys, command, knots):
        cfg = base_config(grid={"n": 512})
        cfg["setup"].update(eps=0.05, profile="theorem", speed=self.tabulated(knots))
        if command == "convergence":
            cfg["experiment"] = {"kind": "convergence", "n_list": [128, 256, 512]}
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        head = "varwave: invalid configuration: initial angles ["
        tail = f"] leave the speed table [0.0, {knots[-1]}]\n"
        assert err.startswith(head) and err.endswith(tail)
        u_min, u_max = map(float, err[len(head):-len(tail)].split(", "))
        if knots[-1] < math.pi / 4:
            assert u_min == u_max == math.pi / 4
        else:
            assert u_min < 0.0 and u_max - u_min > 5.0
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_angle_leaving_the_table_in_the_run_is_named(self, tmp_path, capsys, scheme):
        # u starts in [0.3145, 0.8849] and reaches about [0.307, 0.895] in the run
        cfg = base_config(grid={"n": 256})
        cfg["setup"].update(
            u0=0.6, speed=self.tabulated([0.31, 0.5, 0.7, 0.89]),
            profile={"kind": "polynomial", "amplitude": 10.0},
        )
        cfg["scheme"]["scheme"] = scheme
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("varwave: run failed: angle left the speed table at t=")
        assert len(err.splitlines()) == 1
        assert 0.0 < float(err.split("t=")[1]) < 0.05


class TestColdStart:
    """A command loads only what it runs, in a fresh interpreter.

    The package loads without scipy; only ``speed.kind: tabulated`` needs it.
    The package names resolve on first use, so ``import varwave.cli`` loads
    neither the characteristic solver, the path tracer nor the SVG writer:
    ``convergence`` runs without all three, ``triangle`` without ``--svg``
    needs only the path tracer, and no command loads the characteristic
    solver.
    """

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def _python(self, code: str, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [self.SRC, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_import_loads_no_scipy(self):
        proc = self._python(
            "import sys, varwave.cli, varwave\n"
            "[getattr(varwave, name) for name in varwave.__all__]\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    LAZY = ("varwave.characteristics", "varwave.charsolver", "varwave.plots")
    # the snapshot worker's process pool, which only simulate and eps-sweep open
    POOL = ("multiprocessing", "concurrent.futures.process")
    LOADED = f"print(json.dumps(sorted(m for m in {LAZY + POOL!r} if m in sys.modules)))"

    def test_import_loads_no_path_tracer_solver_or_writer(self):
        proc = self._python(
            "import json, sys, varwave.cli, varwave.diagnostics, varwave.solver\n" + self.LOADED
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "command, flags, unloaded",
        [
            ("convergence", (), LAZY + POOL),
            ("triangle", (), ("varwave.charsolver", "varwave.plots", *POOL)),
            ("simulate", ("--svg",), ("varwave.charsolver",)),
            ("eps-sweep", ("--svg",), ("varwave.charsolver",)),
            ("simulate", ("--one-cpu",), ("varwave.charsolver", "varwave.plots", *POOL)),
        ],
        ids=["convergence", "triangle", "simulate-svg", "eps-sweep-svg", "simulate-one-cpu"],
    )
    def test_command_loads_only_what_it_runs(self, tmp_path, command, flags, unloaded):
        cfg = base_config(grid={"n": 128})
        cfg["experiment"] = {
            "convergence": {"kind": "convergence", "n_list": [64, 128, 256], "t_compare": 0.1},
            "triangle": {"kind": "triangle", "r1": 0.85, "r2": 1.15},
            "simulate": {},
            "eps-sweep": {"kind": "eps_sweep", "eps_list": [0.1]},
        }[command]
        path = write_config(tmp_path, cfg)
        # "--one-cpu" pins the interpreter to one of its CPUs before the command
        pin = "--one-cpu" in flags
        flags = tuple(f for f in flags if f != "--one-cpu")
        proc = self._python(
            "import json, os, sys\n"
            + ("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" if pin else "")
            + "from varwave.cli import main, _cpus\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(_cpus())\n" + self.LOADED,
            command, *flags, "--config", str(path), "--out-dir", str(tmp_path / "o"),
        )
        assert proc.returncode == 0, proc.stderr
        cpus, loaded = map(json.loads, proc.stdout.splitlines())
        assert not set(loaded) & set(unloaded), loaded
        if command in ("simulate", "eps-sweep") and cpus >= 2:
            assert set(self.POOL) <= set(loaded), loaded

    def test_canonical_simulate_runs_with_scipy_blocked(self, tmp_path):
        cfg = base_config(grid={"n": 512})
        cfg["setup"].update(eps=0.05, profile="theorem")
        path = write_config(tmp_path, cfg)
        proc = self._python(
            "import sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from varwave.cli import main\n"
            "sys.exit(main(sys.argv[1:]))",
            "simulate", "--config", str(path), "--out-dir", str(tmp_path / "o"),
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "diagnostics.json").exists()
