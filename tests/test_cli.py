import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varwave import cli
from varwave.cli import SnapshotRecorder, build_setup, main, write_csv
from varwave.initial_data import PolynomialBump, ProblemSetup, auto_domain
from varwave.riemann_core import from_riemann
from varwave.solver import Grid, GridState, SchemeConfig, _live_span, run
from varwave.speed_models import ConstantSpeed, OseenFrankSpeed

SQRT2 = math.sqrt(2.0)


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


class TestSimulate:
    def test_zero_amplitude_run_reports_zero_energy(self, tmp_path):
        cfg = base_config()
        cfg["setup"]["profile"] = {"kind": "polynomial", "amplitude": 0.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = (out / "energy.csv").read_text().splitlines()
        assert rows[0].startswith("# config ")
        assert rows[1] == "t,E,flux_lo,flux_hi"
        energies = [float(line.split(",")[1]) for line in rows[2:]]
        assert all(e == 0.0 for e in energies)

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
    """State that is (u0, +0.0, +0.0) outside [a, b) and takes values[k] at
    node a + k inside it; live None keeps the range unknown."""
    u, R, S = np.full(n, setup.u0), np.zeros(n), np.zeros(n)
    a, b = live if live is not None else (0, n)
    for k, (uk, Rk, Sk) in enumerate(values[: b - a]):
        u[a + k], R[a + k], S[a + k] = uk, Rk, Sk
    return GridState(t, u, R, S, live)


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
        [None, (0, 0), (0, 5), (11, N_SNAP), (7, 8), (0, N_SNAP), (3, 13)],
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

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        d=st.sampled_from([1, 3]),
        ends=st.tuples(st.integers(0, N_SNAP), st.integers(0, N_SNAP)).map(sorted),
        unknown=st.booleans(),
        values=st.lists(
            st.tuples(*[st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))] * 3),
            min_size=N_SNAP, max_size=N_SNAP,
        ),
        t=st.floats(0.0, 1.0),
    )
    def test_hypothesis_states(self, tmp_path, d, ends, unknown, values, t):
        setup = snapshot_setup(d)
        grid = Grid.uniform(*setup.domain, N_SNAP)
        live = None if unknown else tuple(ends)
        states = [hand_state(setup, N_SNAP, t, live, values)]
        self.assert_table_matches(tmp_path, grid, setup, states)

    def test_zero_u0_range_from_the_live_scan(self, tmp_path):
        # the scan reads u = +0.0 as quiescent for u0 = -0.0, so the rows
        # outside its range cannot be written from the text of u0
        setup = snapshot_setup(1, u0=-0.0, speed=ConstantSpeed.of(1.0))
        grid = Grid.uniform(*setup.domain, N_SNAP)
        u, R, S = np.zeros(N_SNAP), np.zeros(N_SNAP), np.zeros(N_SNAP)
        R[6:9] = 0.25
        live = _live_span(u, R, S, setup.u0)
        assert live == (6, 9)
        self.assert_table_matches(tmp_path, grid, setup, [GridState(0.5, u, R, S, live)])

    @pytest.mark.filterwarnings("ignore:.*encountered in divide:RuntimeWarning")
    def test_underflowing_r_alpha_keeps_nan_u_r(self, tmp_path):
        # r_lo^alpha is 0 at the left end: u_r there is 0/0, not +0.0
        speed = ConstantSpeed.of(1.0)
        setup = ProblemSetup(
            d=5, r0=1e-160, eps=1e-161, u0=0.5, speed=speed,
            profile=PolynomialBump(amplitude=1.0), domain=(1e-170, 2.5e-160),
        )
        grid = Grid.uniform(*setup.domain, N_SNAP)
        assert grid.r_lo**setup.alpha == 0.0
        states = [hand_state(setup, N_SNAP, 0.0, (8, 10), [(0.4, 1.0, 2.0)] * 2)]
        self.assert_table_matches(tmp_path, grid, setup, states)

    @pytest.mark.parametrize("scheme", ["upwind1", "muscl2"])
    def test_recorded_run(self, tmp_path, scheme):
        setup = snapshot_setup(3)
        grid = Grid.uniform(*setup.domain, 256)
        snaps = SnapshotRecorder(stride=40)
        result = run(setup, grid, SchemeConfig(scheme=scheme), observers=(snaps,))
        snaps.ensure_last(result.state)
        lives = [s.live for s in snaps.states]
        assert lives[0] is None and all(0 < a < b < grid.n for a, b in lives[1:3])
        self.assert_table_matches(tmp_path, grid, setup, snaps.states)


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
        ],
        ids=lambda v: str(v),
    )
    def test_non_integral_or_non_number_is_one_line_config_error(
        self, tmp_path, capsys, section, key, value, message
    ):
        cfg = base_config()
        cfg[section][key] = value
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
        assert err == f"varwave: invalid configuration: speed.{key} {message}\n"


class TestColdStart:
    """The package loads without scipy; only ``speed.kind: tabulated`` needs it."""

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
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
