"""Workload seeds, the correctness gate and the BENCHMARK.json record."""

import json
import math

import pytest

from perfbench.gate import compare_scalars, load_golden
from perfbench.layers import LAYER_METRICS
from perfbench.run import END_TO_END, ROOT, Runner
from perfbench.workloads import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestSeeds:
    def test_seed_zero_is_the_canonical_config(self):
        sim = WORKLOADS["simulate-canonical"].config(0)
        assert sim["setup"]["u0"] == math.pi / 4
        assert sim["setup"]["eps"] == 0.05 and sim["grid"]["n"] == 4096
        tri = WORKLOADS["triangle-muscl2"].config(0)
        assert (tri["experiment"]["r1"], tri["experiment"]["r2"]) == (0.85, 1.15)
        assert tri["scheme"]["scheme"] == "muscl2" and tri["grid"]["n"] == 8192
        conv = WORKLOADS["convergence-transport"].config(0)
        assert conv["experiment"]["n_list"] == [2048, 4096, 8192, 16384]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_other_seeds_jitter_inputs_only(self, name):
        wl = WORKLOADS[name]
        base = wl.config(0)
        for seed in (1, 2, 3):
            cfg = wl.config(seed)
            assert cfg == wl.config(seed)
            assert cfg != base
            assert abs(cfg["setup"]["u0"] - base["setup"]["u0"]) <= 0.02
            assert cfg["grid"] == base["grid"] and cfg["scheme"] == base["scheme"]
            if "r1" in base.get("experiment", {}):
                shift = cfg["experiment"]["r1"] - base["experiment"]["r1"]
                assert abs(shift) <= 0.01
                assert cfg["experiment"]["r2"] - base["experiment"]["r2"] == pytest.approx(shift)


class TestGate:
    def test_scalars_compared_within_rtol(self):
        ref = {"residual": 0.5255394896653641, "steps": 735, "verdict": "FAIL"}
        last_bits = dict(ref, residual=ref["residual"] * (1 + 3e-15))
        assert compare_scalars(last_bits, ref, 1e-9) == []
        moved = dict(ref, residual=ref["residual"] * (1 + 1e-6))
        assert len(compare_scalars(moved, ref, 1e-9)) == 1
        assert len(compare_scalars(dict(ref, steps=736), ref, 1e-9)) == 1
        assert len(compare_scalars(dict(ref, verdict="PASS"), ref, 1e-9)) == 1

    def test_golden_recorded_for_every_workload(self):
        for name, wl in WORKLOADS.items():
            entry, rtol = load_golden(name)
            assert 0 < rtol < 1e-6
            assert set(entry["sha256"]) == set(wl.artifacts)

    @pytest.mark.parametrize(
        "setup_change",
        [
            {"eps": 0.75},  # rejected by the command: exit 1
            {"speed": {"kind": "oseen_frank", "k1": 2.0, "k3": 1.0, "c0": 1.0, "c1": 1.2}},
        ],
    )
    def test_invalid_config_counts_as_failed(self, tmp_path, setup_change):
        wl = WORKLOADS["simulate-canonical"]
        cfg = wl.config(0)
        cfg["setup"].update(setup_change)
        runner = Runner(wl, cfg, tmp_path, load_golden(wl.name))
        call = runner.call()
        assert not call.check.ok
        assert runner.problems()
        assert sum(not c.check.ok for c in runner.calls) / len(runner.calls) == 1.0

    def test_crash_inside_the_command_counts_as_failed(self, tmp_path):
        wl = WORKLOADS["triangle-muscl2"]
        cfg = wl.config(0)
        cfg["grid"]["n"] = None  # raises TypeError inside the command
        runner = Runner(wl, cfg, tmp_path, None)
        assert runner.call().check.problems == ["exit code None"]


class TestBenchmarkRecord:
    def test_workloads_and_whys(self):
        assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
            name: wl.why for name, wl in WORKLOADS.items()
        }

    def test_end_to_end_metrics(self):
        assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END

    def test_layer_map(self):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
            name: (spec["unit"], spec["better"]) for name, spec in LAYER_METRICS.items()
        }
        for spec in LAYER_METRICS.values():
            assert set(spec["moves"]) <= set(END_TO_END)
            assert set(spec["on"]) | set(spec["no_change_on"]) <= set(WORKLOADS)
            assert not set(spec["on"]) & set(spec["no_change_on"])
