"""Span tracing of varwave from outside the package.

``Tracer.install`` wraps, at run time, every public function of the traced
``varwave`` modules and the public methods (plus ``__init__`` and
``__call__``) of their classes.  A wrapped function is patched wherever it
is looked up: on its own module and on every varwave module that imported
it by name (``varwave.cli.run`` for ``varwave.solver.run``).  Methods are
patched on their class.  The cli thread pool is swapped for one whose jobs
record a ``cli.pool.job`` span parented to the span that submitted them,
so work on the pool threads stays inside the command's tree.
``Tracer.uninstall`` puts every original back.

A span is (id, name, start, end, parent id, thread id, extra).  Spans stay
in memory; ``aggregate`` turns them into per-name call counts, inclusive
time and self time, where a span's self time is its duration minus the
length of the union of its children's intervals, from any thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MODULES = (
    "speed_models",
    "initial_data",
    "riemann_core",
    "solver",
    "characteristics",
    "diagnostics",
    "cli",
    "plots",
)

POOL_JOB = "cli.pool.job"
ROOT = "cli.main"


def _file_bytes(args, kwargs):
    try:
        return {"bytes": os.path.getsize(args[0])}
    except (OSError, IndexError, TypeError):
        return None


def _array_arg(args, kwargs):
    u = args[1] if len(args) > 1 else kwargs.get("u")
    return {"array": 1} if isinstance(u, np.ndarray) and u.ndim > 0 else None


def _step_cells(args, kwargs):
    return {"cells": args[0].grid.n}


def _probe_count(fn):
    sig = inspect.signature(fn)

    def hook(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"probes": int(bound.arguments["probe_count"])}

    return hook


def _hook_for(name: str, fn):
    """Counters recorded on top of timing, by span name."""
    if name in ("cli.write_csv", "cli.write_json", "plots.write_svg"):
        return _file_bytes
    if name.startswith("speed_models.") and name.endswith(".c"):
        return _array_arg
    if name == "solver.Stepper.step":
        return _step_cells
    if name == "speed_models.validate_bounds":
        return _probe_count(fn)
    return None


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []  # (owner, attr, original) of the last install
        self._installed = False

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call_in_span(self, name, parent, fn, args, kwargs, hook=None):
        stack = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        clock = time.perf_counter
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            extra = hook(args, kwargs) if hook is not None else None
            self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), extra))

    def wrap(self, name: str, fn, hook=None):
        call = self.call_in_span
        current = self.current

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, current(), fn, args, kwargs, hook)

        return wrapper

    def reset(self) -> None:
        self.spans.clear()

    # -- patching --------------------------------------------------------
    @staticmethod
    def _get(owner, attr):
        if isinstance(owner, dict):
            return owner.get(attr)
        return vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)

    @staticmethod
    def _set(owner, attr, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _patch(self, owner, attr, new) -> None:
        old = self._get(owner, attr)
        self._patches.append((owner, attr, old))
        self._set(owner, attr, new)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        self._patches = []
        modules = {m: importlib.import_module(f"varwave.{m}") for m in MODULES}
        wrapped = {}  # original function -> wrapper
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, _hook_for(name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(short, obj)
        # patch each function wherever a varwave module holds it: by name,
        # or as a value of a module-level table such as cli's command map
        def patch_in(owner, items):
            for key, obj in items:
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(owner, key, wrapped[obj])

        for mod in [importlib.import_module("varwave"), *modules.values()]:
            patch_in(mod, list(vars(mod).items()))
            for attr, table in list(vars(mod).items()):
                if isinstance(table, dict) and not attr.startswith("__"):
                    patch_in(table, list(table.items()))
        self._patch(modules["cli"], "ThreadPoolExecutor", self._pool_class())

    def _wrap_class(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self.wrap(name, member, _hook_for(name, member)))
            elif isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                self._patch(cls, attr, type(member)(self.wrap(name, fn, _hook_for(name, fn))))

    def _pool_class(self):
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def job(*a, **k):
                    return tracer.call_in_span(POOL_JOB, parent, fn, a, k)

                return super().submit(job, *args, **kwargs)

        return TracedThreadPoolExecutor

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, old in reversed(self._patches):
                self._set(owner, attr, old)
            self._installed = False

    def not_restored(self) -> list[str]:
        """Every place the last install patched that does not hold its original."""
        bad = []
        for owner, attr, old in self._patches:
            if self._get(owner, attr) is not old:
                where = "table" if isinstance(owner, dict) else owner.__name__
                bad.append(f"{where}.{attr}")
        return bad

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> self time: duration minus the union of its children."""
    children: dict = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    return {
        s[0]: (s[3] - s[2]) - _union_length(children.get(s[0], ()), s[2], s[3])
        for s in spans
    }


def accounted_fraction(spans) -> float:
    """Self times summed over the tree, less parallel overlap, over root time.

    Children that run at the same time on pool threads are each charged
    their own self time, so the overlap of sibling intervals is taken off
    once.  The result is 1 when every span hangs under the single root and
    no time is lost or counted twice.
    """
    selfs = self_times(spans)
    children: dict = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    overlap = 0.0
    for s in spans:
        kids = children.get(s[0], ())
        if len(kids) > 1:
            busy = sum(k[3] - k[2] for k in kids)
            overlap += busy - _union_length([(k[2], k[3]) for k in kids], s[2], s[3])
    roots = [s for s in spans if s[4] is None]
    wall = sum(s[3] - s[2] for s in roots if s[1] == ROOT)
    return (sum(selfs.values()) - overlap) / wall if wall > 0 else 0.0


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed extras."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        a = out.setdefault(s[1], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        a["calls"] += 1
        a["total_s"] += s[3] - s[2]
        a["self_s"] += selfs[s[0]]
        if s[6]:
            for k, v in s[6].items():
                a[k] = a.get(k, 0) + v
    return out


def count_within(spans, name_test, ancestor: str, flag: str) -> int:
    """Spans passing ``name_test`` with ``flag`` set that run inside ``ancestor``."""
    by_id = {s[0]: s for s in spans}
    n = 0
    for s in spans:
        if not (s[6] and s[6].get(flag) and name_test(s[1])):
            continue
        p = s[4]
        while p is not None:
            ps = by_id[p]
            if ps[1] == ancestor:
                n += 1
                break
            p = ps[4]
    return n
