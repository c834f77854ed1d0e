"""Spans around the calls into each layer, recorded from outside.

`Tracer.install` rebinds every public function of the program's modules at
every module attribute that holds it (`from .x import y` copies a binding,
so `scenario.solve_power_flow` and `powerflow.solve_power_flow` are both
rebound), plus the dense `numpy.linalg` kernels the program calls.
Nothing under `src/` is edited. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "network", "powerflow", "linearize", "coherency", "scenario",
          "reportio", "machines")
LINALG = ("solve", "eig", "eigh", "cond", "svd")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Records a span per wrapped call: name, start, end and parent.

    The parent is the innermost open span of the calling thread. A call on
    a thread with no open span (a `batch_run` worker) gets the outermost
    open span of the tracing thread as its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.newton_iters = 0
        self.emitted: list = []
        self._local = threading.local()
        self._root: Span | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        after = {
            "powerflow.solve_power_flow": self._count_newton,
            "reportio.emit": self.emitted.append,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else self._root)
            if not stack and self._root is None:
                self._root = span
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if self._root is span:
                    self._root = None
                self.spans.append(span)
            if after is not None:
                after(result)
            return result

        return traced

    def _count_newton(self, sol) -> None:
        self.newton_iters += sol.iterations

    def install(self) -> None:
        mods = {m: importlib.import_module(f"coherence_lab.{m}") for m in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in [*mods.values(), importlib.import_module("coherence_lab")]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._rebind(mod, attr, wrappers[value])
        for attr in LINALG:
            self._rebind(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))

    def _rebind(self, mod, attr: str, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is the span's duration minus the part of it that its
        child spans cover; concurrent children are merged first."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            row = out[s.name]
            row["calls"] += 1
            row["s"] += s.end - s.start
            row["self_s"] += s.end - s.start - covered
        return dict(out)

    def batch_overlap(self) -> float:
        """Summed `run_pipeline` time inside `batch_run` calls divided by
        their wall time; 0 when no `batch_run` ran."""
        batch = [s for s in self.spans if s.name == "scenario.batch_run"]
        wall = sum(s.end - s.start for s in batch)
        if not wall:
            return 0.0
        ids = {id(s) for s in batch}
        busy = sum(s.end - s.start for s in self.spans
                   if s.name == "scenario.run_pipeline" and s.parent is not None
                   and id(s.parent) in ids)
        return busy / wall

    def dump(self) -> dict:
        """Spans as lists of [name, start, end, parent index]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "spans": [
                [s.name, s.start, s.end, index.get(id(s.parent)) if s.parent else None]
                for s in self.spans
            ],
        }
