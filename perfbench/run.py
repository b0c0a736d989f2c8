"""Benchmark of the varwave command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all ...    # every workload, one process each

Run from the repository root; varwave is imported from ``src/``.  One run
is one process.  It first measures set-up (the fresh-interpreter import of
``varwave.cli`` plus the public builders on the workload's config) in
several fresh interpreters and reports the median.  It then calls
``varwave.cli.main`` on the workload's config over and over for
``--seconds`` and gates every call (see ``gate.py``).

Times are reported in reference seconds.  The host's CPU speed drifts by
tens of percent from minute to minute under other tenants' load, which
would swamp any change worth detecting.  So a fixed calibration kernel
(numpy array updates and float formatting, like the program's own mix)
runs right before and after every timed call and set-up probe, on as
many threads as the call uses, and each time is scaled by CALIB_REF_S
over the mean of its two kernel times.  On
a machine running at the reference speed the two agree; the raw times
are kept in the ``record`` line.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of
``layers.py`` (raw seconds), from a traced run that is compared with
untraced calls in the same process.  The lines before it are a readable
report and a ``record`` line with the environment and the working set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.gate import check_call, load_golden  # noqa: E402
from perfbench.layers import LAYER_METRICS, command_metrics, top_self_times  # noqa: E402
from perfbench.setup_probe import SRC  # noqa: E402
from perfbench.tracer import Tracer, aggregate  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

WORK = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
MIN_CALLS = 3
# median time of ``calibration(threads)`` by thread count, on the machine
# the benchmark was defined on (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4)
CALIB_REF_S = {1: 0.045, 2: 0.078}
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy_err": "1",
    "err_x_wall_s": "s",
}


def _kernel() -> None:
    u = np.linspace(0.0, 3.0, 4096)
    for _ in range(180):
        c = np.sqrt(2.0 * np.sin(u) ** 2 + np.cos(u) ** 2)
        d = np.zeros_like(u)
        d[1:] = (c[1:] - c[:-1]) * 0.5
        u = u + 1e-3 * d
        ",".join(f"{v:.17g}" for v in u[:100])


def calibration(threads: int = 1) -> float:
    """Seconds for ``threads`` copies of a fixed kernel run at once.

    A threaded workload is scaled by a kernel on as many threads, which
    shares the interpreter lock the way the workload does.
    """
    workers = [threading.Thread(target=_kernel) for _ in range(threads)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


@dataclass
class Call:
    wall_s: float
    calib_s: float
    ref_s: float  # wall_s in reference seconds
    check: object


class Runner:
    """Calls ``varwave.cli.main`` on one workload config and gates the call."""

    def __init__(self, workload, cfg: dict, work: Path, golden):
        self.workload = workload
        self.cfg = cfg
        self.work = work
        self.golden = golden
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(cfg), encoding="utf-8")
        self.calls: list[Call] = []
        self.threads = workload.threads or 1
        self._calib = calibration(self.threads)

    def call(self, threads: int | None = None) -> Call:
        import varwave.cli

        out = self.work / f"out{len(self.calls)}"
        argv = self.workload.argv(self.config_path, out)
        threads = threads or self.workload.threads
        saved = os.environ.get("VARWAVE_THREADS")
        if threads is not None:
            os.environ["VARWAVE_THREADS"] = str(threads)
        t0 = time.perf_counter()
        try:
            # looked up on the module at call time, so a tracer's wrapper applies
            rc = varwave.cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        if threads is not None:
            if saved is None:
                os.environ.pop("VARWAVE_THREADS", None)
            else:
                os.environ["VARWAVE_THREADS"] = saved
        before, self._calib = self._calib, calibration(self.threads)
        check = check_call(self.workload, self.cfg, rc, out, self.golden)
        shutil.rmtree(out, ignore_errors=True)
        calib = 0.5 * (before + self._calib)
        call = Call(wall, calib, wall * CALIB_REF_S[self.threads] / calib, check)
        self.calls.append(call)
        return call

    def window(self, seconds: float, min_calls: int = 1, **kw) -> list[Call]:
        """Call repeatedly until ``seconds`` have passed and ``min_calls`` are made."""
        out = []
        t_end = time.perf_counter() + seconds
        while len(out) < min_calls or time.perf_counter() < t_end:
            out.append(self.call(**kw))
        return out

    def problems(self) -> list[str]:
        found = []
        for i, c in enumerate(self.calls):
            found += [f"call {i}: {p}" for p in c.check.problems]
        digests = {json.dumps(c.check.digests, sort_keys=True) for c in self.calls if c.check.ok}
        if len(digests) > 1:
            found.append("identical configs gave different artifacts within one run")
        return found

    def first_ok(self):
        return next((c.check for c in self.calls if c.check.ok), None)


def probe_setup(config_path: Path) -> dict:
    """Set-up timings of a fresh interpreter, with the calibration around it."""
    before = calibration()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(config_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    times = json.loads(out.stdout.strip().splitlines()[-1])
    times["calib_s"] = 0.5 * (before + calibration())
    return times


def environment(workload, cfg: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "varwave").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "cache_per_core_or_shared": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "working_set_computed": workload.working_set(cfg),
    }


def end_to_end(runner: Runner, setups: list, calls: list) -> dict:
    wl, cfg = runner.workload, runner.cfg
    wall = statistics.median([c.ref_s for c in calls])
    ok = runner.first_ok()
    cells = wl.cell_steps(cfg, ok.scalars) if ok else 0
    acc = float(ok.scalars[wl.accuracy_key]) if ok else 0.0
    return {
        "wall_s": wall,
        "setup_s": statistics.median([s["total_s"] * CALIB_REF_S[1] / s["calib_s"] for s in setups]),
        "cell_steps_per_s": cells / wall if wall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_err": acc,
        "err_x_wall_s": acc * wall,
    }


def traced(runner: Runner, seconds: float, setups: list, problems: list) -> dict:
    wl = runner.workload
    tracer = Tracer()
    untraced, serial, traced_walls, per_call = [], [], [], []
    top, traced_cells = [], None
    # untraced, serial and traced calls take turns, so that drift in the
    # machine's speed cancels out of the overhead and the speed-up
    t_end = time.perf_counter() + seconds
    while len(per_call) < MIN_CALLS or time.perf_counter() < t_end:
        untraced.append(runner.call().wall_s)
        if wl.threads:
            serial.append(runner.call(threads=1).wall_s)
        with tracer:
            tracer.reset()
            traced_walls.append(runner.call().wall_s)
        per_call.append(command_metrics(tracer.spans, wl.command))
        top = top_self_times(tracer.spans)
        if traced_cells is None:
            traced_cells = aggregate(tracer.spans).get("solver.Stepper.step", {}).get("cells", 0)
        problems += [f"left patched after a traced call: {p}" for p in tracer.not_restored()]
    ok = runner.first_ok()
    if ok is not None and traced_cells != wl.cell_steps(runner.cfg, ok.scalars):
        problems.append(
            f"traced steps cover {traced_cells} cell-steps, "
            f"artifacts say {wl.cell_steps(runner.cfg, ok.scalars)}"
        )
    metrics = {k: statistics.median([m[k] for m in per_call]) for k in per_call[0]}
    metrics["cli.import_s"] = statistics.median([s["import_s"] for s in setups])
    # 0 marks a workload without a pool, where there is no speed-up to measure
    metrics["cli.pool.speedup_vs_serial"] = (
        statistics.median(serial) / statistics.median(untraced) if serial else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    print(f"  calls: {len(traced_walls)} traced, {len(untraced)} untraced, {len(serial)} serial")
    print("  top self time in the last traced call (name, calls, s):")
    for name, calls, self_s in top:
        print(f"    {name:<48} {calls:>8} {self_s:10.4f}")
    return {k: (metrics[k], spec["unit"]) for k, spec in LAYER_METRICS.items()}


def bench(workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    cfg = workload.config(seed)
    runner = Runner(workload, cfg, work, load_golden(workload.name) if seed == 0 else None)
    setups = [probe_setup(runner.config_path) for _ in range(SETUP_SAMPLES)]
    print(f"perfbench {workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    problems: list[str] = []
    if trace:
        metrics = traced(runner, seconds, setups, problems)
    else:
        calls = runner.window(seconds, MIN_CALLS)
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(runner, setups, calls).items()}
    problems = runner.problems() + problems
    attempted = len(runner.calls)
    failed = sum(1 for c in runner.calls if not c.check.ok)
    ok = runner.first_ok()

    if not trace:
        for label, key in (("reference", "ref_s"), ("raw", "wall_s")):
            walls = [getattr(c, key) for c in calls]
            q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
            print(f"  {attempted} calls, {label} wall quartiles {q[0]:.4g} {q[1]:.4g} {q[2]:.4g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    if not trace:
        print(f"  {'failed_frac':<40} {failed / attempted:>16.6g} ratio")
    for p in problems:
        print(f"  GATE: {p}")
    record = {
        "workload": workload.name,
        "seed": seed,
        "config": cfg,
        "calls": attempted,
        "failed_frac": failed / attempted,
        "call_wall_s": [c.wall_s for c in runner.calls],
        "call_calib_s": [c.calib_s for c in runner.calls],
        "calib_ref_s": CALIB_REF_S[runner.threads],
        "setup_samples": setups,
        "key_scalars": ok.scalars if ok else None,
        "artifacts_identical": ok.identical if ok else None,
        "environment": environment(workload, cfg),
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "varwave" / "cli.py").is_file():
        print(f"perfbench: no varwave sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
