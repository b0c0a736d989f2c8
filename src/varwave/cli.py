"""Config-driven command line front end.

    varwave simulate|triangle|eps-sweep|convergence --config cfg.json
            [--out-dir DIR] [--svg]

The configuration is one JSON document (see README.md for the schema).  Every
CSV and SVG artifact starts with a comment header embedding the full
config; JSON artifacts embed it under the "config" key (JSON has no
comment syntax).  Identical configs produce bit-identical outputs: the
summation order is fixed and floats are written with round-trip precision.
Exit codes: 0 success, 1 validation error, 2 runtime error.  The jobs of
eps-sweep and convergence run one after another.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import plots
from .characteristics import CharacteristicPath, c_prime_sign_along, u_drift_along
from .diagnostics import (
    EnergyObserver,
    _trapezoid_energy,
    blowup_time_estimate,
    build_blowup_report,
    build_report,
    compute_constants,
    triangle_identity,
)
from .errors import (
    BoundsViolation,
    ConfigError,
    DomainMismatch,
    HypothesisViolated,
    SpeedNotIncreasing,
    VarwaveError,
)
from .initial_data import PolynomialBump, ProblemSetup
from .riemann_core import from_riemann
from .solver import Grid, GridState, SchemeConfig, Stepper, init_state, run
from .speed_models import ConstantSpeed, OseenFrankSpeed, TabulatedSpeed


def _number(raw, cast, label: str):
    """raw, a finite JSON number, converted by cast (float or int).

    Anything else (null, a boolean, a string, a list, an object, an infinity
    or NaN) is a ConfigError, and so is a non-integral number for cast=int.
    """
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            value = cast(raw)
            finite = math.isfinite(value)
        except (OverflowError, ValueError):
            finite = False
        if finite:
            if cast is int and value != raw:
                raise ConfigError(f"{label} must be an integer, got {json.dumps(raw)}")
            return value
    raise ConfigError(f"{label} must be a finite number, got {json.dumps(raw)}")


def _require(cfg: dict, key: str, where: str, cast=None):
    """cfg[key], converted by cast (see _number) when one is given."""
    if key not in cfg:
        raise ConfigError(f"missing '{key}' in {where}")
    return cfg[key] if cast is None else _number(cfg[key], cast, f"{where}.{key}")


def _object(raw, label: str) -> dict:
    """raw when it is a JSON object; null or any other value is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be an object, got {json.dumps(raw)}")
    return raw


def _number_list(cfg: dict, key: str, where: str, cast=float) -> list:
    raw = _require(cfg, key, where)
    if not isinstance(raw, list):
        raise ConfigError(f"{where}.{key} must be a list of numbers, got {json.dumps(raw)}")
    return [_number(x, cast, f"{where}.{key}") for x in raw]


def build_speed(cfg: dict):
    kind = _require(cfg, "kind", "speed")
    if kind == "oseen_frank":
        return OseenFrankSpeed(
            c0=_require(cfg, "c0", "speed", float),
            c1=_require(cfg, "c1", "speed", float),
            k1=_require(cfg, "k1", "speed", float),
            k3=_require(cfg, "k3", "speed", float),
        )
    if kind == "constant":
        return ConstantSpeed.of(_require(cfg, "c", "speed", float))
    if kind == "tabulated":
        return TabulatedSpeed(
            c0=_require(cfg, "c0", "speed", float),
            c1=_require(cfg, "c1", "speed", float),
            knots=tuple(_number_list(cfg, "knots", "speed")),
            values=tuple(_number_list(cfg, "values", "speed")),
            derivative_values=tuple(_number_list(cfg, "derivative_values", "speed"))
            if cfg.get("derivative_values") is not None
            else None,
        )
    raise ConfigError(f"unknown speed kind '{kind}'")


def build_setup(cfg: dict, eps_override: float | None = None) -> ProblemSetup:
    sc = _object(_require(cfg, "setup", "config"), "setup")
    d = _require(sc, "d", "setup", int)
    r0 = _require(sc, "r0", "setup", float)
    eps = float(eps_override) if eps_override is not None else _require(sc, "eps", "setup", float)
    u0 = _require(sc, "u0", "setup", float)
    speed = build_speed(_object(_require(sc, "speed", "setup"), "setup.speed"))

    prof_cfg = sc.get("profile", "theorem")
    if prof_cfg == "theorem":
        profile = None
    elif isinstance(prof_cfg, dict):
        kind = prof_cfg.get("kind", "polynomial")
        if kind != "polynomial":
            raise ConfigError(f"unknown profile kind '{kind}'")
        profile = PolynomialBump(amplitude=_require(prof_cfg, "amplitude", "profile", float))
    else:
        raise ConfigError("profile must be 'theorem' or an object with an amplitude")

    dom_cfg = sc.get("domain", "auto")
    if dom_cfg == "auto":
        domain = None
    elif isinstance(dom_cfg, list) and len(dom_cfg) == 2:
        domain = tuple(_number(x, float, "setup.domain") for x in dom_cfg)
    else:
        raise ConfigError(f"setup domain must be 'auto' or a pair of numbers, got {dom_cfg!r}")
    return ProblemSetup.theorem(d, r0, eps, u0, speed, domain=domain, profile=profile)


def build_scheme(cfg: dict) -> SchemeConfig:
    sc = _object(cfg.get("scheme", {}), "scheme")
    default = SchemeConfig()
    ceiling = sc.get("gradient_ceiling", "auto")
    return SchemeConfig(
        cfl=_number(sc.get("cfl", default.cfl), float, "scheme.cfl"),
        scheme=sc.get("scheme", default.scheme),
        max_steps=_number(sc.get("max_steps", default.max_steps), int, "scheme.max_steps"),
        gradient_ceiling=None
        if ceiling == "auto"
        else _number(ceiling, float, "scheme.gradient_ceiling"),
    )


def build_grid(cfg: dict, setup: ProblemSetup) -> Grid:
    gc = _object(_require(cfg, "grid", "config"), "grid")
    raw = _require(gc, "n", "grid")
    # a null grid.n stays an uncaught TypeError: it is the benchmark
    # self-test's crash trigger until it gets another (ROADMAP item 2c)
    n = int(raw) if raw is None else _number(raw, int, "grid.n")
    return Grid.uniform(*setup.domain, n)


def _config_comment(config: dict) -> str:
    return "config " + json.dumps(config, sort_keys=True)


CSV_CHUNK_ROWS = 4096


def _chunks(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Ranges [i, j) of at most CSV_CHUNK_ROWS rows that cover [lo, hi)."""
    return ((i, min(i + CSV_CHUNK_ROWS, hi)) for i in range(lo, hi, CSV_CHUNK_ROWS))


def _array_rows(columns: dict[str, np.ndarray]) -> Iterator[str]:
    """Text of the rows of equal-length columns, a chunk of rows at a time.

    The lengths are checked at once, not when the text is first asked for.
    """
    arrays = [np.atleast_1d(np.asarray(a, dtype=np.float64)) for a in columns.values()]
    lengths = {k: a.size for k, a in zip(columns, arrays)}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    row_format = ",".join(["%.17g"] * len(arrays)) + "\n"
    return (
        row_format * (j - i) % tuple(np.column_stack([a[i:j] for a in arrays]).ravel().tolist())
        for i, j in _chunks(0, arrays[0].size if arrays else 0)
    )


def write_csv(path, config: dict, columns) -> None:
    """CSV with a '#' provenance header and 17-significant-digit floats.

    ``columns`` maps each name to its column; rows are formatted a chunk at
    a time, which bounds the memory of the text, and columns of unequal
    length raise ValueError.  It may also be a pair (names, text) of the
    column names and an iterable of row text already formatted, which is
    written as it is produced (the snapshot table streams that way).
    """
    names, text = (list(columns), _array_rows(columns)) if isinstance(columns, dict) else columns
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_config_comment(config)}\n")
        fh.write(",".join(names) + "\n")
        for block in text:
            fh.write(block)


def _snapshot_rows(grid: Grid, setup: ProblemSetup, states: list[GridState]) -> Iterator[str]:
    """Text of the snapshot table, state by state, a chunk of rows at a time.

    Outside a state's live range every node is (u0, +0.0, +0.0), so its row
    is (t, r, u0, 0, 0, 0): u_r = (+0 - +0)/(2 c(u0) r^alpha) = +0.0.  Those
    rows are joined from text made once per run, with t formatted once per
    state; only the live rows go through %.17g and from_riemann.  The bytes
    are those of the whole columns written by write_csv.  A state whose
    range is not known (the t = 0 one) is all live, and so is every state
    when u0 is zero (the live scan compares u with u0 as numbers, so a
    quiescent u may be either zero) or 2 c0 r_lo^alpha is near underflow
    (u_r would be 0/0 there).
    """
    n = grid.n
    r_text = [f"{x:.17g}" for x in grid.r.tolist()]
    rest = [f",{x},{setup.u0:.17g},0,0,0\n" for x in r_text]
    all_live = setup.u0 == 0.0 or setup.speed.c0 * grid.r_lo**setup.alpha < 1e-300
    for st in states:
        t = f"{st.t:.17g}"
        a, b = (0, n) if st.live is None or all_live else st.live
        w = slice(a, b)
        _, u_r = from_riemann(grid.r[w], st.u[w], st.R[w], st.S[w], setup.speed, setup.alpha)
        row = t + ",%s,%.17g,%.17g,%.17g,%.17g\n"
        for i, j in _chunks(0, a):
            yield t + t.join(rest[i:j])
        for i, j in _chunks(a, b):
            fields = (st.u[i:j], st.R[i:j], st.S[i:j], u_r[i - a : j - a])
            cells = zip(r_text[i:j], *(f.tolist() for f in fields))
            yield row * (j - i) % tuple(itertools.chain.from_iterable(cells))
        for i, j in _chunks(b, n):
            yield t + t.join(rest[i:j])


def write_json(path, config: dict, doc: dict) -> None:
    doc = dict(doc)
    doc["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class SnapshotRecorder:
    """Keeps every stride-th state (plus the initial one) for CSV dumping."""

    def __init__(self, stride: int):
        self.stride = stride
        self.count = 0
        self.states: list[GridState] = []

    def __call__(self, state: GridState):
        if self.count % self.stride == 0:
            self.states.append(state)
        self.count += 1

    def ensure_last(self, state: GridState):
        if not self.states or self.states[-1] is not state:
            self.states.append(state)


def _estimate_steps(setup: ProblemSetup, grid: Grid, cfg: SchemeConfig) -> int:
    return max(1, math.ceil(setup.t_final / (cfg.cfl * grid.h / setup.speed.c1)))


def _simulate_once(config: dict, out_dir: Path, svg: bool, eps_override=None) -> dict:
    """Shared body of simulate / eps-sweep: run, write artifacts, return doc."""
    setup = build_setup(config, eps_override)
    cfg = build_scheme(config)
    grid = build_grid(config, setup)
    # tolerate c'(u0) <= 0 so negative-control runs still produce reports
    constants = compute_constants(setup, require_hypothesis=False)

    out = _object(config.get("output", {}), "output")
    stride = _number(out.get("snapshot_stride", 0), int, "output.snapshot_stride")
    if stride <= 0:
        stride = max(1, _estimate_steps(setup, grid, cfg) // 10)

    energy = EnergyObserver(grid, setup.speed)
    hat = CharacteristicPath("plus", setup.r0, grid, setup.speed)
    snaps = SnapshotRecorder(stride)
    result = run(setup, grid, cfg, observers=(energy, hat, snaps))
    snaps.ensure_last(result.state)

    blowup = build_blowup_report(result, hat, constants, setup)
    doc = build_report(
        constants, energy, blowup, u_drift_along(hat, constants), c_prime_sign_along(hat, setup)
    )
    doc["run"] = {
        "reason": result.reason,
        "steps": result.steps,
        "t_end": result.state.t,
        "t_final": setup.t_final,
        "gradient_ceiling": result.gradient_ceiling,
        "grid_n": grid.n,
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    ea = energy.arrays()
    write_csv(out_dir / "energy.csv", config, ea)
    write_csv(out_dir / "hat_path.csv", config, hat.arrays())

    write_csv(
        out_dir / "snapshots.csv",
        config,
        (["t", "r", "u", "R", "S", "u_r"], _snapshot_rows(grid, setup, snaps.states)),
    )
    write_json(out_dir / "diagnostics.json", config, doc)

    if svg:
        comment = _config_comment(config)
        plots.write_svg(
            out_dir / "u_snapshots.svg",
            [(grid.r, st.u, f"t={st.t:.4g}") for st in snaps.states[:: max(1, len(snaps.states) // 5)]],
            title="u(r) snapshots",
            xlabel="r",
            ylabel="u",
            comment=comment,
        )
        plots.write_svg(
            out_dir / "energy.svg",
            [(ea["t"], ea["E"], "E(t)")],
            title="energy",
            xlabel="t",
            ylabel="E",
            comment=comment,
        )
        ht = blowup.inv_S_trace
        if ht.size:
            plots.write_svg(
                out_dir / "inv_s.svg",
                [(ht[:, 0], ht[:, 1], "1/S along hat path")],
                title="reciprocal steepening gradient",
                xlabel="t",
                ylabel="1/S",
                comment=comment,
            )
    return doc


def cmd_simulate(config: dict, out_dir: Path, svg: bool) -> int:
    _simulate_once(config, out_dir, svg)
    return 0


def cmd_triangle(config: dict, out_dir: Path, svg: bool) -> int:
    exp = config.get("experiment", {})
    setup = build_setup(config)
    cfg = build_scheme(config)
    grid = build_grid(config, setup)
    r1 = _require(exp, "r1", "experiment", float)
    r2 = _require(exp, "r2", "experiment", float)
    report, plus, minus = triangle_identity(setup, grid, cfg, r1, r2)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "plus_path.csv", config, plus.arrays())
    write_csv(out_dir / "minus_path.csv", config, minus.arrays())
    write_json(out_dir / "triangle.json", config, dataclasses.asdict(report))
    if svg:
        plots.write_svg(
            out_dir / "triangle_paths.svg",
            [
                (plus.arrays()["r"], plus.arrays()["t"], "plus path"),
                (minus.arrays()["r"], minus.arrays()["t"], "minus path"),
            ],
            title="characteristic triangle",
            xlabel="r",
            ylabel="t",
            comment=_config_comment(config),
        )
    return 0


# The convergence grids run one after another on a one-worker pool: the
# step loop holds the GIL, so two worker threads ran them at 0.94x the speed
# of one.  The pool stays while the benchmark's tracer test pins its job
# spans (ROADMAP item 2f); eps-sweep runs its jobs in a plain loop.
_JOB_WORKERS = 1


def cmd_eps_sweep(config: dict, out_dir: Path, svg: bool) -> int:
    exp = config.get("experiment", {})
    eps_list = _number_list(exp, "eps_list", "experiment")
    if not eps_list:
        raise ConfigError("eps_list must be nonempty")
    # validate every eps up front so the sweep fails fast on bad input
    for eps in eps_list:
        build_setup(config, eps_override=eps)

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {"eps": [], "detected": [], "t_detect": [], "t_star_extrapolated": [], "t_final": []}
    errors = {}
    largest_detected = None
    for eps in eps_list:
        try:
            doc = _simulate_once(config, out_dir / f"eps_{eps:g}", svg, eps_override=eps)
        except VarwaveError as exc:  # collect, keep sweeping
            errors[eps] = str(exc)
            continue
        b = doc["blowup"]
        rows["eps"].append(eps)
        rows["detected"].append(1.0 if b["detected"] else 0.0)
        rows["t_detect"].append(b["t_detect"] if b["t_detect"] is not None else math.nan)
        rows["t_star_extrapolated"].append(
            b["t_star_extrapolated"] if b["t_star_extrapolated"] is not None else math.nan
        )
        rows["t_final"].append(doc["run"]["t_final"])
        if b["detected"] and (largest_detected is None or eps > largest_detected):
            largest_detected = eps

    write_csv(out_dir / "sweep.csv", config, {k: np.asarray(v) for k, v in rows.items()})
    write_json(
        out_dir / "sweep.json",
        config,
        {
            "largest_eps_detected": largest_detected,
            "errors": {f"{k:g}": v for k, v in errors.items()},
        },
    )
    return 0


def cmd_convergence(config: dict, out_dir: Path, svg: bool) -> int:
    exp = config.get("experiment", {})
    n_list = _number_list(exp, "n_list", "experiment", int)
    if len(n_list) < 3:
        raise ConfigError("n_list needs at least 3 entries")
    for a, b in zip(n_list, n_list[1:]):
        if b != 2 * a:
            raise ConfigError("each grid size must double the previous one")

    setup = build_setup(config)
    cfg = build_scheme(config)
    t_cmp = exp.get("t_compare")
    if t_cmp is None:
        t_cmp = float(min(0.5 * blowup_time_estimate(setup), 0.5 * setup.t_final))
    else:
        t_cmp = _number(t_cmp, float, "experiment.t_compare")
        if t_cmp <= 0.0:
            raise ConfigError(f"experiment.t_compare must be positive, got {t_cmp}")

    def solve(n: int):
        grid = Grid.uniform(*setup.domain, n)
        stepper = Stepper(setup, grid, cfg)
        state = init_state(setup, grid)
        dr = np.diff(grid.r)
        e0 = _trapezoid_energy(state, dr)
        drift = 0.0
        while state.t < t_cmp - 1e-15:
            state = stepper.step(state, min(stepper.base_dt, t_cmp - state.t))
            e = _trapezoid_energy(state, dr)
            if e0 > 0:
                drift = max(drift, abs(e - e0) / e0)
        return grid, state, drift

    with ThreadPoolExecutor(max_workers=_JOB_WORKERS) as pool:
        solved = list(pool.map(solve, n_list))

    errs = {"R": [], "S": [], "u": []}
    drifts = [d for _, _, d in solved]
    for (gc, sc, _), (gf, sf, _) in zip(solved, solved[1:]):
        for key in errs:
            coarse = getattr(sc, key)
            fine = np.interp(gc.r, gf.r, getattr(sf, key))
            errs[key].append(float(np.sum(np.abs(coarse - fine)) * gc.h))

    def rates(vals: list[float]):
        out = []
        for a, b in zip(vals, vals[1:]):
            if a == 0.0 or b == 0.0:
                out.append("exact")
            else:
                out.append(math.log2(a / b))
        return out

    doc = {
        "n_list": n_list,
        "t_compare": t_cmp,
        "l1_self_errors": errs,
        "l1_self_rates": {k: rates(v) for k, v in errs.items()},
        "energy_drifts": drifts,
        "energy_drift_rates": rates(drifts),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(
        out_dir / "convergence.csv",
        config,
        {
            "n": np.asarray(n_list[:-1], dtype=float),
            "err_R": np.asarray(errs["R"]),
            "err_S": np.asarray(errs["S"]),
            "err_u": np.asarray(errs["u"]),
        },
    )
    write_json(out_dir / "convergence.json", config, doc)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "triangle": cmd_triangle,
    "eps-sweep": cmd_eps_sweep,
    "convergence": cmd_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="varwave",
        description="Radial variational wave equation runs and diagnostics",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out-dir", default="out", help="artifact directory")
    parser.add_argument("--svg", action="store_true", help="write SVG plots")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"varwave: cannot read config: {exc}", file=sys.stderr)
        return 1

    try:
        config = _object(config, "config")
        kind = _object(config.get("experiment", {}), "experiment").get("kind")
        if kind is not None and kind != args.command.replace("-", "_"):
            raise ConfigError(
                f"config experiment kind '{kind}' does not match command "
                f"'{args.command}'"
            )
        return _COMMANDS[args.command](config, Path(args.out_dir), args.svg)
    except (
        ConfigError,
        HypothesisViolated,
        BoundsViolation,
        SpeedNotIncreasing,
        DomainMismatch,
        ValueError,
        KeyError,
    ) as exc:
        print(f"varwave: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except VarwaveError as exc:
        print(f"varwave: run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
