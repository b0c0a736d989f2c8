"""Self-time arithmetic and the install/uninstall contract of the tracer."""

import threading

import numpy as np
import pytest

import varwave.cli
from perfbench.run import Runner
from perfbench.tracer import (
    POOL_JOB,
    Tracer,
    accounted_fraction,
    aggregate,
    count_within,
    self_times,
)
from perfbench.workloads import WORKLOADS
from varwave.solver import Stepper
from varwave.speed_models import OseenFrankSpeed


def span(sid, name, t0, t1, parent, tid=1, extra=None):
    return (sid, name, t0, t1, parent, tid, extra)


def small(name, **grid):
    wl = WORKLOADS[name]
    cfg = wl.config(0)
    if "n_list" in grid:
        cfg["experiment"]["n_list"] = grid["n_list"]
    else:
        cfg["grid"]["n"] = grid["n"]
    return wl, cfg


class TestSelfTime:
    def test_c_nested_in_c_prime(self):
        spans = [
            span(1, "cli.main", 0.0, 10.0, None),
            span(2, "speed_models.OseenFrankSpeed.c_prime", 1.0, 5.0, 1),
            span(3, "speed_models.OseenFrankSpeed.c", 2.0, 3.0, 2),
            span(4, "speed_models.OseenFrankSpeed.c", 6.0, 6.5, 1),
        ]
        assert self_times(spans) == {1: 5.5, 2: 3.0, 3: 1.0, 4: 0.5}
        agg = aggregate(spans)
        assert agg["speed_models.OseenFrankSpeed.c"]["calls"] == 2
        assert agg["speed_models.OseenFrankSpeed.c"]["self_s"] == pytest.approx(1.5)
        assert agg["speed_models.OseenFrankSpeed.c_prime"]["total_s"] == 4.0
        assert accounted_fraction(spans) == pytest.approx(1.0)

    def test_children_on_pool_threads(self):
        # two jobs overlap on two worker threads under one command span
        spans = [
            span(1, "cli.main", 0.0, 10.0, None),
            span(2, "cli.cmd_convergence", 0.5, 9.5, 1),
            span(3, POOL_JOB, 1.0, 6.0, 2, tid=2),
            span(4, POOL_JOB, 2.0, 8.0, 2, tid=3),
            span(5, "solver.Stepper.step", 1.5, 5.0, 3, tid=2),
        ]
        selfs = self_times(spans)
        assert selfs[2] == pytest.approx(9.0 - 7.0)  # union of [1,6] and [2,8]
        assert selfs[3] == pytest.approx(5.0 - 3.5)
        assert selfs[4] == pytest.approx(6.0)
        assert selfs[1] == pytest.approx(1.0)
        # self times sum to 14 s of thread time; 4 s of it ran in parallel
        assert sum(selfs.values()) == pytest.approx(14.0)
        assert accounted_fraction(spans) == pytest.approx(1.0)

    def test_orphan_span_breaks_accounting(self):
        spans = [span(1, "cli.main", 0.0, 10.0, None), span(2, POOL_JOB, 1.0, 3.0, None, tid=2)]
        assert accounted_fraction(spans) == pytest.approx(1.2)


class TestWrappers:
    def test_c_runs_inside_c_prime(self):
        speed = OseenFrankSpeed(c0=1.0, c1=np.sqrt(2.0), k1=2.0, k3=1.0)
        with Tracer() as tracer:
            speed.c_prime(np.linspace(0.0, 1.0, 16))
            speed.c(0.3)
        by_name = {s[1]: s for s in tracer.spans}
        outer = by_name["speed_models.OseenFrankSpeed.c_prime"]
        inner = [s for s in tracer.spans if s[1] == "speed_models.OseenFrankSpeed.c"]
        assert [s[4] for s in inner] == [outer[0], None]
        assert inner[0][6] == {"array": 1} and inner[1][6] is None
        is_c = lambda n: n.endswith(".c")  # noqa: E731
        assert count_within(tracer.spans, is_c, "speed_models.OseenFrankSpeed.c_prime", "array") == 1

    def test_pool_jobs_are_children_of_the_command(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VARWAVE_THREADS", "2")
        wl, cfg = small("convergence-transport", n_list=[256, 512, 1024])
        with Tracer() as tracer:
            Runner(wl, cfg, tmp_path, None).call()
        by_id = {s[0]: s for s in tracer.spans}
        jobs = [s for s in tracer.spans if s[1] == POOL_JOB]
        assert len(jobs) == 3
        assert {by_id[j[4]][1] for j in jobs} == {"cli.cmd_convergence"}
        assert {j[5] for j in jobs} != {threading.get_ident()}
        steps = [s for s in tracer.spans if s[1] == "solver.Stepper.step"]
        assert steps and all(by_id[s[4]][1] == POOL_JOB for s in steps)
        assert accounted_fraction(tracer.spans) == pytest.approx(1.0, abs=1e-9)

    def test_originals_restored_after_traced_run(self, tmp_path):
        originals = {
            "c": OseenFrankSpeed.__dict__["c"],
            "step": Stepper.__dict__["step"],
            "write_csv": varwave.cli.write_csv,
            "cmd": varwave.cli._COMMANDS["simulate"],
            "pool": varwave.cli.ThreadPoolExecutor,
        }
        wl, cfg = small("simulate-canonical", n=256)
        runner = Runner(wl, cfg, tmp_path, None)
        tracer = Tracer()
        with tracer:
            assert OseenFrankSpeed.__dict__["c"] is not originals["c"]
            assert varwave.cli.write_csv is not originals["write_csv"]
            runner.call()
        assert tracer.spans
        assert OseenFrankSpeed.__dict__["c"] is originals["c"]
        assert Stepper.__dict__["step"] is originals["step"]
        assert varwave.cli.write_csv is originals["write_csv"]
        assert varwave.cli._COMMANDS["simulate"] is originals["cmd"]
        assert varwave.cli.ThreadPoolExecutor is originals["pool"]
        assert tracer.not_restored() == []
        recorded = len(tracer.spans)
        assert runner.call().check.ok
        assert len(tracer.spans) == recorded
