"""Per-layer metrics of a traced run, and the end-to-end metric each should move.

``LAYER_METRICS`` maps every per-layer metric to its unit, its better
direction, the end-to-end metrics and workloads it should move, and the
workloads where the prediction is no change.  ``BENCHMARK.json`` lists
the same names and units; a self-test keeps the two in step.
"""

from __future__ import annotations

from .tracer import POOL_JOB, accounted_fraction, aggregate, count_within

SIM = "simulate-canonical"
TRI = "triangle-muscl2"
CONV = "convergence-transport"
ALL = (SIM, TRI, CONV)


def _m(unit, better, moves, on, steady=()):
    return {"unit": unit, "better": better, "moves": list(moves),
            "on": list(on), "no_change_on": list(steady)}


_SPEED = (("wall_s", "cell_steps_per_s"), (SIM, TRI), (CONV,))
_STEP = (("cell_steps_per_s",), ALL)
_PATH = (("wall_s",), (SIM, TRI), (CONV,))
_WRITER = (("wall_s", "peak_rss_mb"), (SIM,), (TRI, CONV))
_SETUP = (("setup_s",), ALL)

LAYER_METRICS = {
    "speed_models.c.calls": _m("count", "lower", *_SPEED),
    "speed_models.c.self_s": _m("s", "lower", *_SPEED),
    "speed_models.c_prime.calls": _m("count", "lower", *_SPEED),
    "speed_models.c_prime.self_s": _m("s", "lower", *_SPEED),
    "speed_models.c.evals_per_step": _m("1/step", "lower", *_SPEED),
    "speed_models.validate_bounds.probes": _m("count", "lower", *_SETUP),
    "speed_models.validate_bounds.s": _m("s", "lower", *_SETUP),
    "initial_data.problem_setup.s": _m("s", "lower", *_SETUP),
    "riemann_core.rhs_fields.calls": _m("count", "higher", *_STEP),
    "solver.step.calls": _m("count", "lower", *_STEP),
    "solver.step.self_s": _m("s", "lower", *_STEP),
    "solver.step.ns_per_cell": _m("ns", "lower", *_STEP),
    "solver.gradient_max.calls": _m("count", "lower", *_STEP),
    "solver.gradient_max.self_s": _m("s", "lower", *_STEP),
    "solver.run.loop_s": _m("s", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "solver.init_state.s": _m("s", "lower", *_SETUP),
    "characteristics.path.calls": _m("count", "lower", *_PATH),
    "characteristics.path.self_s": _m("s", "lower", *_PATH),
    "characteristics.reports.s": _m("s", "lower", *_PATH),
    "diagnostics.energy_observer.calls": _m("count", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "diagnostics.energy_observer.self_s": _m("s", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "diagnostics.inv_s_observer.calls": _m("count", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "diagnostics.inv_s_observer.self_s": _m("s", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "diagnostics.compute_constants.s": _m("s", "lower", *_SETUP),
    "diagnostics.triangle_identity.loop_s": _m("s", "lower", ("wall_s",), (TRI,), (SIM, CONV)),
    "diagnostics.reports.s": _m("s", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "cli.import_s": _m("s", "lower", *_SETUP),
    "cli.build_setup.s": _m("s", "lower", *_SETUP),
    "cli.write_csv.s": _m("s", "lower", *_WRITER),
    "cli.write_csv.bytes": _m("B", "lower", *_WRITER),
    "cli.write_json.s": _m("s", "lower", *_WRITER),
    "cli.write_json.bytes": _m("B", "lower", *_WRITER),
    "cli.pool.jobs": _m("count", "higher", ("wall_s",), (CONV,), (SIM, TRI)),
    "cli.pool.speedup_vs_serial": _m("ratio", "higher", ("wall_s",), (CONV,), (SIM, TRI)),
    "cli.command.self_s": _m("s", "lower", ("wall_s",), ALL),
    "plots.write_svg.s": _m("s", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "plots.write_svg.bytes": _m("B", "lower", ("wall_s",), (SIM,), (TRI, CONV)),
    "trace.overhead_s": _m("s", "lower", (), ()),
    "trace.accounted_frac": _m("ratio", "higher", (), ()),
}


def _sum(agg, names, key):
    return sum(agg[n][key] for n in names if n in agg and key in agg[n])


def _matching(agg, test):
    return [n for n in agg if test(n)]


def command_metrics(spans, command: str) -> dict:
    """Per-layer metrics of one traced ``varwave.cli.main`` call.

    ``cli.import_s``, ``cli.pool.speedup_vs_serial`` and
    ``trace.overhead_s`` need untraced runs and are filled in by the caller.
    """
    agg = aggregate(spans)

    def is_c(n):
        return n.startswith("speed_models.") and n.endswith(".c")

    c_names = _matching(agg, is_c)
    cp_names = _matching(agg, lambda n: n.startswith("speed_models.") and n.endswith(".c_prime"))
    step = agg.get("solver.Stepper.step", {})
    steps = step.get("calls", 0)
    cells = step.get("cells", 0)
    path = ("characteristics.CharacteristicPath.__call__", "characteristics.CharacteristicPath.advance")
    return {
        "speed_models.c.calls": _sum(agg, c_names, "calls"),
        "speed_models.c.self_s": _sum(agg, c_names, "self_s"),
        "speed_models.c_prime.calls": _sum(agg, cp_names, "calls"),
        "speed_models.c_prime.self_s": _sum(agg, cp_names, "self_s"),
        "speed_models.c.evals_per_step": (
            count_within(spans, is_c, "solver.Stepper.step", "array") / steps if steps else 0.0
        ),
        "speed_models.validate_bounds.probes": _sum(agg, ["speed_models.validate_bounds"], "probes"),
        "speed_models.validate_bounds.s": _sum(agg, ["speed_models.validate_bounds"], "total_s"),
        "initial_data.problem_setup.s": _sum(agg, ["initial_data.ProblemSetup.__init__"], "total_s"),
        "riemann_core.rhs_fields.calls": _sum(agg, ["riemann_core.rhs_fields"], "calls"),
        "solver.step.calls": steps,
        "solver.step.self_s": step.get("self_s", 0.0),
        "solver.step.ns_per_cell": step["self_s"] * 1e9 / cells if cells else 0.0,
        "solver.gradient_max.calls": _sum(agg, ["solver.Stepper.gradient_max"], "calls"),
        "solver.gradient_max.self_s": _sum(agg, ["solver.Stepper.gradient_max"], "self_s"),
        "solver.run.loop_s": _sum(agg, ["solver.run"], "self_s"),
        "solver.init_state.s": _sum(agg, ["solver.init_state"], "total_s"),
        "characteristics.path.calls": _sum(agg, path[:1], "calls"),
        "characteristics.path.self_s": _sum(agg, path, "self_s"),
        "characteristics.reports.s": _sum(
            agg,
            [f"characteristics.{f}" for f in ("u_drift_along", "c_prime_sign_along", "find_intersection")],
            "total_s",
        ),
        "diagnostics.energy_observer.calls": _sum(agg, ["diagnostics.EnergyObserver.__call__"], "calls"),
        "diagnostics.energy_observer.self_s": _sum(agg, ["diagnostics.EnergyObserver.__call__"], "self_s"),
        "diagnostics.inv_s_observer.calls": _sum(agg, ["diagnostics.InvSObserver.__call__"], "calls"),
        "diagnostics.inv_s_observer.self_s": _sum(agg, ["diagnostics.InvSObserver.__call__"], "self_s"),
        "diagnostics.compute_constants.s": _sum(agg, ["diagnostics.compute_constants"], "total_s"),
        "diagnostics.triangle_identity.loop_s": _sum(agg, ["diagnostics.triangle_identity"], "self_s"),
        "diagnostics.reports.s": _sum(
            agg,
            [f"diagnostics.{f}" for f in ("build_blowup_report", "blowup_verdict", "build_report")],
            "total_s",
        ),
        "cli.build_setup.s": _sum(agg, ["cli.build_setup"], "total_s"),
        "cli.write_csv.s": _sum(agg, ["cli.write_csv"], "total_s"),
        "cli.write_csv.bytes": _sum(agg, ["cli.write_csv"], "bytes"),
        "cli.write_json.s": _sum(agg, ["cli.write_json"], "total_s"),
        "cli.write_json.bytes": _sum(agg, ["cli.write_json"], "bytes"),
        "cli.pool.jobs": _sum(agg, [POOL_JOB], "calls"),
        # the pool job span stands for the command's own job closure
        "cli.command.self_s": _sum(agg, [f"cli.cmd_{command.replace('-', '_')}", POOL_JOB], "self_s"),
        "plots.write_svg.s": _sum(agg, ["plots.write_svg"], "total_s"),
        "plots.write_svg.bytes": _sum(agg, ["plots.write_svg"], "bytes"),
        "trace.accounted_frac": accounted_fraction(spans),
    }


def top_self_times(spans, k: int = 12) -> list[tuple[str, int, float]]:
    """The k span names with the most self time: (name, calls, self seconds)."""
    agg = aggregate(spans)
    rows = sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])[:k]
    return [(name, a["calls"], a["self_s"]) for name, a in rows]
