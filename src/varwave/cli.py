"""Config-driven command line front end.

    varwave simulate|triangle|eps-sweep|convergence --config cfg.json
            [--out-dir DIR] [--svg]

The configuration is one JSON document; KEYS declares its keys.  Every
CSV and SVG artifact starts with a comment header embedding the full
config; JSON artifacts embed it under the "config" key (JSON has no
comment syntax).  Identical configs produce bit-identical outputs: the
summation order is fixed and floats are written with round-trip precision.
Exit codes: 0 success, 1 invalid input (a ConfigError or a subclass), 2 any
other failure of the run, an output path that cannot be written or a dead
snapshot worker among them.  The jobs of eps-sweep and convergence run one
after another, each after the previous one has returned, and the first grid
that fails ends convergence.  simulate, and eps-sweep per eps, solve a run
into a RunRecord and write it; the run's SnapshotTable formats snapshots.csv
on a worker process given two CPUs, and joins it before the command returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .diagnostics import (
    BlowupReport,
    EnergyObserver,
    TheoremConstants,
    blowup_time_estimate,
    build_blowup_report,
    build_report,
    check_initial_energy,
    compute_constants,
    triangle_identity,
)
from .errors import ConfigError, VarwaveError
from .initial_data import PolynomialBump, ProblemSetup
from .riemann_core import from_riemann
from .solver import Grid, GridState, RunResult, SchemeConfig, Stepper, init_state, reached, run
from .speed_models import ConstantSpeed, OseenFrankSpeed, TabulatedSpeed

if TYPE_CHECKING:  # imported by the commands that trace a path
    from .characteristics import PathSamples


_REQUIRED = object()  # the default of a key that must be given


class _Key(NamedTuple):
    kind: str
    default: object = _REQUIRED
    sentinels: tuple = ()
    choices: tuple = ()
    when: tuple = ()
    build: object = None


_SPEEDS = {
    "oseen_frank": OseenFrankSpeed,
    "constant": lambda c: ConstantSpeed.of(c),
    "tabulated": TabulatedSpeed,
}
_PROFILES = {"polynomial": PolynomialBump}
_EXPERIMENTS = ("simulate", "triangle", "eps_sweep", "convergence")

# Every key of the config document by its dotted path, as README.md's
# "Configuration" table lists them; no other key is accepted.  A missing key
# reads as its default, a sentinel as None (its consumer's own default).  A
# "value" is checked by the constructor it goes to.  A key with a nonempty
# when belongs to those kinds of its section only.  A section with a build
# reads as build(**its other keys), or build[its kind](...) for a table.
KEYS = {
    # looked up per call, as a tracer that patches ProblemSetup.theorem expects
    "setup": _Key("object", build=lambda **keys: ProblemSetup.theorem(**keys)),
    "setup.d": _Key("integer"),
    "setup.r0": _Key("number"),
    "setup.eps": _Key("number"),
    "setup.u0": _Key("number"),
    "setup.speed": _Key("object", build=_SPEEDS),
    "setup.speed.kind": _Key("choice", choices=tuple(_SPEEDS)),
    "setup.speed.c0": _Key("number", when=("oseen_frank", "tabulated")),
    "setup.speed.c1": _Key("number", when=("oseen_frank", "tabulated")),
    "setup.speed.k1": _Key("number", when=("oseen_frank",)),
    "setup.speed.k3": _Key("number", when=("oseen_frank",)),
    "setup.speed.c": _Key("number", when=("constant",)),
    "setup.speed.knots": _Key("numbers", when=("tabulated",)),
    "setup.speed.values": _Key("numbers", when=("tabulated",)),
    "setup.speed.derivative_values": _Key("numbers", None, (None,), when=("tabulated",)),
    "setup.profile": _Key("object", "theorem", ("theorem",), build=_PROFILES),
    "setup.profile.kind": _Key("choice", "polynomial", choices=tuple(_PROFILES)),
    "setup.profile.amplitude": _Key("number"),
    "setup.domain": _Key("pair", "auto", ("auto",)),
    "scheme": _Key("object", {}, build=SchemeConfig),
    "scheme.cfl": _Key("number", SchemeConfig.cfl),
    "scheme.scheme": _Key("value", SchemeConfig.scheme),
    "scheme.max_steps": _Key("integer", SchemeConfig.max_steps),
    "scheme.gradient_ceiling": _Key("number", "auto", ("auto",)),
    "grid": _Key("object"),
    "grid.n": _Key("integer"),
    "output": _Key("object", {}),
    "output.snapshot_stride": _Key("integer", 0),
    "experiment": _Key("object", {}),
    "experiment.kind": _Key("choice", None, (None,), _EXPERIMENTS),
    "experiment.r1": _Key("number"),
    "experiment.r2": _Key("number"),
    "experiment.eps_list": _Key("numbers"),
    "experiment.n_list": _Key("integers"),
    "experiment.t_compare": _Key("number", None, (None,)),
}


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


def _object(raw, label: str) -> dict:
    """raw when it is a JSON object; null or any other value is a ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be an object, got {json.dumps(raw)}")
    return raw


def _read(section: dict, path: str):
    """The key at the dotted path, read from its section by its KEYS entry."""
    key = KEYS[path]
    raw = section.get(path.rpartition(".")[2], key.default)
    if raw is _REQUIRED:
        raise ConfigError(f"missing {path}")
    if raw in key.sentinels:
        return None
    if key.kind in ("number", "integer"):
        return _number(raw, int if key.kind == "integer" else float, path)
    if key.kind in ("numbers", "integers", "pair"):
        if not isinstance(raw, list) or (key.kind == "pair" and len(raw) != 2):
            what = "a pair of numbers" if key.kind == "pair" else "a list of numbers"
            raise ConfigError(f"{path} must be {what}, got {json.dumps(raw)}")
        return tuple(_number(x, int if key.kind == "integers" else float, path) for x in raw)
    if key.kind == "object":
        return _object(raw, path) if key.build is None else _built(_object(raw, path), path)
    if key.kind == "choice" and raw not in key.choices:
        raise ConfigError(f"{path} must be one of {', '.join(key.choices)}, got {json.dumps(raw)}")
    return raw


def _leaves(section: str, kind=None) -> list[str]:
    """The keys KEYS declares in a section, those of its kind where they depend on one."""
    return [
        path.rpartition(".")[2]
        for path, key in KEYS.items()
        if path.rpartition(".")[0] == section and (not key.when or kind in key.when)
    ]


def _built(section: dict, path: str):
    """build(**keys) of the section's KEYS entry, its kind's build for a table."""
    build, kind = KEYS[path].build, None
    if isinstance(build, dict):
        kind = _read(section, f"{path}.kind")
        build = build[kind]
    leaves = [leaf for leaf in _leaves(path, kind) if leaf != "kind"]
    fields = {leaf: _read(section, f"{path}.{leaf}") for leaf in leaves}
    try:
        return build(**fields)
    except ValueError as exc:  # the constructor's own check of its arguments
        raise ConfigError(str(exc)) from exc


def _check_keys(doc: dict, path: str = "") -> None:
    """ConfigError at the first key of doc, depth first, that KEYS does not declare."""
    kind = _read(doc, f"{path}.kind") if f"{path}.kind" in KEYS else None
    known = _leaves(path, kind)
    for leaf, value in _object(doc, path or "config").items():
        full = f"{path}.{leaf}" if path else leaf
        if leaf not in known:
            raise ConfigError(f"unknown key {full}; known keys: {', '.join(known)}")
        if isinstance(value, dict) and KEYS[full].kind == "object":
            _check_keys(value, full)


def build_setup(cfg: dict, eps_override: float | None = None) -> ProblemSetup:
    sc = cfg.get("setup")
    if eps_override is not None and isinstance(sc, dict):
        # eps-sweep overrides eps, but an eps that is given must still be a number
        if "eps" in sc:
            _read(sc, "setup.eps")
        cfg = {**cfg, "setup": {**sc, "eps": float(eps_override)}}
    return _read(cfg, "setup")


def build_scheme(cfg: dict) -> SchemeConfig:
    return _read(cfg, "scheme")


def build_grid(cfg: dict, setup: ProblemSetup) -> Grid:
    gc = _read(cfg, "grid")
    # a null grid.n stays an uncaught TypeError: it is the benchmark
    # self-test's crash trigger until it gets another (ROADMAP item 2c)
    n = int(gc["n"]) if gc.get("n", 0) is None else _read(gc, "grid.n")
    try:
        return Grid.uniform(*setup.domain, n)
    except ValueError as exc:  # the grid's own checks, such as at least 8 nodes
        raise ConfigError(str(exc)) from exc


def _config_comment(config: dict) -> str:
    return "config " + json.dumps(config, sort_keys=True)


# Rows of CSV text formatted at a time, by write_csv and _snapshot_rows.
# The text of a chunk and its row tuple are the writers' largest
# temporaries: 1,024 rows of the canonical snapshot table (N = 4,096) keep
# the table's traced peak at 1.2 MiB, against 2.2 MiB at 4,096 rows.
CSV_CHUNK_ROWS = 1024


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


# Columns of snapshots.csv.
SNAPSHOT_COLUMNS = ["t", "r", "u", "R", "S", "u_r"]


class _SnapshotText:
    """Text of the snapshot table of one grid, state by state, a chunk of rows at a time.

    Outside a state's live range every node is (u0, +0.0, +0.0), so its row
    is (t, r, u0, 0, 0, 0): u_r = (+0 - +0)/(2 c(u0) r^alpha) = +0.0.  Those
    rows are joined from text made once per table, with t formatted once per
    state; only the live rows go through %.17g and from_riemann.  The bytes
    are those of the whole columns written by write_csv.  ProblemSetup
    rejects a weight c0 r_lo^alpha below 1e-300, where u_r would be 0/0, and
    one that is not a finite float.
    """

    def __init__(self, grid: Grid, setup: ProblemSetup):
        self.grid, self.setup = grid, setup
        self.r_text = [f"{x:.17g}" for x in grid.r.tolist()]
        self.rest = [f",{x},{setup.u0:.17g},0,0,0\n" for x in self.r_text]

    def rows(self, state: GridState) -> Iterator[str]:
        """Text of the rows of the state, from its block (u, R, S) on its live range."""
        r_text, rest, t = self.r_text, self.rest, f"{state.t:.17g}"
        a, b = state.live
        u, R, S = state.window(a, b)
        _, u_r = from_riemann(self.grid.r[a:b], u, R, S, self.setup.speed, self.setup.alpha)
        row = t + ",%s,%.17g,%.17g,%.17g,%.17g\n"
        for i, j in _chunks(0, a):
            yield t + t.join(rest[i:j])
        for i, j in _chunks(a, b):
            cells = zip(r_text[i:j], *(f[i - a : j - a].tolist() for f in (u, R, S, u_r)))
            yield row * (j - i) % tuple(itertools.chain.from_iterable(cells))
        for i, j in _chunks(b, self.grid.n):
            yield t + t.join(rest[i:j])


def _snapshot_rows(grid: Grid, setup: ProblemSetup, states: list[GridState]) -> Iterator[str]:
    """Text of the snapshot table of the states, in order (see _SnapshotText)."""
    text = _SnapshotText(grid, setup)
    for st in states:
        yield from text.rows(st)


# The snapshot worker's table of the run in progress: its row maker and the
# text of the states sent so far.  It lives in the worker process only.
_worker_table: tuple[_SnapshotText, list[str]] | None = None


def _table_open(grid: Grid, setup: ProblemSetup) -> None:
    global _worker_table
    _worker_table = (_SnapshotText(grid, setup), [])


def _table_add(state: GridState) -> None:
    text, done = _worker_table
    done.extend(text.rows(state))


def _table_write(path, config: dict) -> None:
    write_csv(path, config, (SNAPSHOT_COLUMNS, _worker_table[1]))


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def write_json(path, config: dict, doc: dict) -> None:
    doc = dict(doc)
    doc["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_svgs(out_dir: Path, config: dict, figures: dict) -> None:
    """Each name -> (series, title, xlabel, ylabel) as an SVG that echoes the config."""
    from . import plots

    comment = _config_comment(config)
    for name, (series, title, xlabel, ylabel) in figures.items():
        labels = {"title": title, "xlabel": xlabel, "ylabel": ylabel}
        plots.write_svg(out_dir / name, series, comment=comment, **labels)


class SnapshotTable:
    """snapshots.csv of one run: a march observer that keeps every stride-th
    state, the initial one first, and the last one.

    Entered given two CPUs, it starts a worker process, forked where it can
    be, that runs its jobs in order: each state's rows as it is kept, then
    the file while the caller writes the rest (a thread would hold the GIL).
    Else write formats in-process, with the same bytes.  Its exit joins the
    worker after every job, or drops those not started if the block failed.
    """

    def __init__(self, grid: Grid, setup: ProblemSetup, stride: int):
        self.grid, self.setup, self.stride = grid, setup, stride
        self.count = 0
        self.states: list[GridState] = []
        self._worker = None
        self._jobs = []

    def __enter__(self) -> SnapshotTable:
        if _cpus() >= 2:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            fork = "fork" in multiprocessing.get_all_start_methods()
            self._worker = ProcessPoolExecutor(
                max_workers=1,
                mp_context=multiprocessing.get_context("fork" if fork else None),
                initializer=_table_open,
                initargs=(self.grid, self.setup),
            )
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if self._worker is not None:
            self._worker.shutdown(cancel_futures=exc_type is not None)
        for job in self._jobs if exc_type is None else ():
            job.result()

    def __call__(self, state: GridState):
        if self.count % self.stride == 0:
            self._keep(state)
        self.count += 1

    def ensure_last(self, state: GridState):
        if not self.states or self.states[-1] is not state:
            self._keep(state)

    def _keep(self, state: GridState):
        self.states.append(state)
        if self._worker is not None:
            self._jobs.append(self._worker.submit(_table_add, state))

    def write(self, path, config: dict) -> None:
        if self._worker is None:
            rows = _snapshot_rows(self.grid, self.setup, self.states)
            write_csv(path, config, (SNAPSHOT_COLUMNS, rows))
        else:
            self._jobs.append(self._worker.submit(_table_write, path, config))


class Plan(NamedTuple):
    """The setup, scheme, grid, snapshot stride and theorem constants of one simulate run."""

    setup: ProblemSetup
    scheme: SchemeConfig
    grid: Grid
    stride: int
    constants: TheoremConstants


class RunRecord(NamedTuple):
    """What one planned run found; energy holds the (t, E) columns, table the kept states."""

    plan: Plan
    result: RunResult
    hat: PathSamples
    blowup: BlowupReport
    energy_drift: float
    energy: dict[str, np.ndarray]
    table: SnapshotTable


def _plan(config: dict, setup: ProblemSetup) -> Plan:
    """The plan of one simulate run, checked before any directory is made."""
    cfg = build_scheme(config)
    grid = build_grid(config, setup)
    stride = _read(_read(config, "output"), "output.snapshot_stride")
    if stride < 0:
        raise ConfigError(f"output.snapshot_stride must be non-negative, got {stride}")
    if stride == 0:  # about ten states of the run's estimated steps
        stride = max(1, math.ceil(setup.t_final / cfg.cfl_step(grid, setup.speed)) // 10)
    check_initial_energy(setup, grid)
    # tolerate c'(u0) <= 0 so negative-control runs still produce reports
    return Plan(setup, cfg, grid, stride, compute_constants(setup, require_hypothesis=False))


def solve(plan: Plan, table: SnapshotTable) -> RunRecord:
    """March the planned run with the energy, the hat path and the table as
    observers, and report its blow-up."""
    from .characteristics import CharacteristicPath

    setup, cfg, grid, _, constants = plan
    energy = EnergyObserver(grid)
    hat = CharacteristicPath("plus", setup.r0, grid, setup.speed)
    result = run(setup, grid, cfg, observers=(energy, hat, table))
    table.ensure_last(result.state)
    samples = hat.samples()
    blowup = build_blowup_report(result, samples, constants, setup)
    columns = {"t": np.asarray(energy.t), "E": np.asarray(energy.E)}
    return RunRecord(plan, result, samples, blowup, energy.max_relative_drift, columns, table)


def write(record: RunRecord, config: dict, out_dir: Path, svg: bool) -> None:
    """The artifacts of a solved run in out_dir, made once the report is built;
    snapshots.csv is whole once the record's table exits."""
    from .characteristics import c_prime_sign_along, u_drift_along

    (setup, _, grid, _, constants), result, hat, blowup, drift, ea, table = record
    doc = build_report(
        constants, drift, blowup, u_drift_along(hat, constants), c_prime_sign_along(hat, setup)
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
    table.write(out_dir / "snapshots.csv", config)
    write_csv(out_dir / "energy.csv", config, ea)
    write_csv(out_dir / "hat_path.csv", config, hat.columns())
    write_json(out_dir / "diagnostics.json", config, doc)

    if svg:
        kept = table.states[:: max(1, len(table.states) // 5)]
        u_lines = [(grid.r, st.u, f"t={st.t:.4g}") for st in kept]
        figures = {
            "u_snapshots.svg": (u_lines, "u(r) snapshots", "r", "u"),
            "energy.svg": ([(ea["t"], ea["E"], "E(t)")], "energy", "t", "E"),
        }
        ht = blowup.inv_S_trace
        if ht.size:
            inv_s = [(ht[:, 0], ht[:, 1], "1/S along hat path")]
            figures["inv_s.svg"] = (inv_s, "reciprocal steepening gradient", "t", "1/S")
        _write_svgs(out_dir, config, figures)


def cmd_simulate(config: dict, out_dir: Path, svg: bool) -> int:
    plan = _plan(config, build_setup(config))
    with SnapshotTable(plan.grid, plan.setup, plan.stride) as table:
        write(solve(plan, table), config, out_dir, svg)
    return 0


def cmd_triangle(config: dict, out_dir: Path, svg: bool) -> int:
    exp = _read(config, "experiment")
    setup = build_setup(config)
    cfg = build_scheme(config)
    grid = build_grid(config, setup)
    r1, r2 = _read(exp, "experiment.r1"), _read(exp, "experiment.r2")
    report, plus, minus = triangle_identity(setup, grid, cfg, r1, r2)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "plus_path.csv", config, plus.columns())
    write_csv(out_dir / "minus_path.csv", config, minus.columns())
    write_json(out_dir / "triangle.json", config, dataclasses.asdict(report))
    if svg:
        paths = [(plus.r, plus.t, "plus path"), (minus.r, minus.t, "minus path")]
        figure = (paths, "characteristic triangle", "r", "t")
        _write_svgs(out_dir, config, {"triangle_paths.svg": figure})
    return 0


def cmd_eps_sweep(config: dict, out_dir: Path, svg: bool) -> int:
    eps_list = _read(_read(config, "experiment"), "experiment.eps_list")
    if not eps_list:
        raise ConfigError("experiment.eps_list must be nonempty")
    if len(set(eps_list)) < len(eps_list):
        raise ConfigError(f"experiment.eps_list repeats an entry: {json.dumps(eps_list)}")
    # plan every run up front, so bad input fails before any directory is made
    plans = [_plan(config, build_setup(config, eps_override=eps)) for eps in eps_list]

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = {"eps": [], "detected": [], "t_detect": [], "t_star_extrapolated": [], "t_final": []}
    errors = {}
    for eps, plan in zip(eps_list, plans):
        try:
            with SnapshotTable(plan.grid, plan.setup, plan.stride) as table:
                record = solve(plan, table)
                write(record, config, out_dir / f"eps_{eps!r}", svg)
        except ConfigError:  # a fault of the config stops the sweep
            raise
        except VarwaveError as exc:  # collect, keep sweeping
            errors[eps] = str(exc)
            continue
        b = record.blowup
        row = (eps, float(b.detected), b.t_detect, b.t_star_extrapolated, plan.setup.t_final)
        for key, value in zip(rows, row):
            rows[key].append(math.nan if value is None else value)
    detected = [eps for eps, hit in zip(rows["eps"], rows["detected"]) if hit]

    write_csv(out_dir / "sweep.csv", config, {k: np.asarray(v) for k, v in rows.items()})
    write_json(
        out_dir / "sweep.json",
        config,
        {
            "largest_eps_detected": max(detected, default=None),
            "errors": {repr(k): v for k, v in errors.items()},
        },
    )
    return 0


def cmd_convergence(config: dict, out_dir: Path, svg: bool) -> int:
    exp = _read(config, "experiment")
    n_list = _read(exp, "experiment.n_list")
    if len(n_list) < 3:
        raise ConfigError("experiment.n_list needs at least 3 entries")
    if min(n_list) < 8:
        raise ConfigError(f"experiment.n_list entries must be at least 8, got {min(n_list)}")
    if any(b != 2 * a for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("each grid size of experiment.n_list must double the previous one")

    setup = build_setup(config)
    cfg = build_scheme(config)
    t_cmp = _read(exp, "experiment.t_compare")
    if t_cmp is None:
        t_cmp = float(min(0.5 * blowup_time_estimate(setup), 0.5 * setup.t_final))
        if not t_cmp > 0.0:  # 1/lambda underflows where the Riccati rate lambda overflows
            raise ConfigError(
                f"the default t_compare {t_cmp} is not positive; set experiment.t_compare"
            )
    elif t_cmp <= 0.0:
        raise ConfigError(f"experiment.t_compare must be positive, got {t_cmp}")
    elif t_cmp > setup.t_final:
        raise ConfigError(
            f"experiment.t_compare must not exceed t_final = {setup.t_final}, got {t_cmp}"
        )

    grids = [Grid.uniform(*setup.domain, n) for n in n_list]
    for grid in grids:
        check_initial_energy(setup, grid)

    # the march without run's gradient ceiling, which would cost a
    # gradient_max per step; t_compare wins over the budget when the last
    # step reaches both, as t_final does in run
    def solve_grid(grid: Grid):
        energy = EnergyObserver(grid)
        state = init_state(setup, grid)
        with np.errstate(over="ignore"):  # as in run: the energy names its overflow
            energy(state)
            for state in Stepper(setup, grid, cfg).march(state, t_cmp, (energy,), cfg.max_steps):
                pass
        if not reached(state.t, t_cmp):
            raise VarwaveError(
                f"the grid of {grid.n} nodes used up scheme.max_steps = {cfg.max_steps} "
                f"at t={state.t}, before t_compare = {t_cmp}"
            )
        return grid, state, energy.max_relative_drift

    # a one-worker pool only for the benchmark tracer's job spans (ROADMAP 2f)
    with ThreadPoolExecutor(max_workers=1) as pool:
        solved = [pool.submit(solve_grid, grid).result() for grid in grids]

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
    columns = {"n": np.asarray(n_list[:-1], dtype=float)}
    columns.update((f"err_{k}", np.asarray(v)) for k, v in errs.items())
    write_csv(out_dir / "convergence.csv", config, columns)
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
        _check_keys(config)
        kind = _read(_read(config, "experiment"), "experiment.kind")
        if kind is not None and kind != args.command.replace("-", "_"):
            raise ConfigError(f"experiment.kind {kind} does not match command {args.command}")
        return _COMMANDS[args.command](config, Path(args.out_dir), args.svg)
    except ConfigError as exc:
        print(f"varwave: invalid configuration: {exc}", file=sys.stderr)
        return 1
    # past the builders, a ValueError or KeyError is a fault of the run, and
    # so are an output error and a snapshot worker that died
    except (VarwaveError, ValueError, KeyError, OSError, BrokenExecutor) as exc:
        print(f"varwave: run failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
