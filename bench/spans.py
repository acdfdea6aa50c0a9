"""In-memory span tracing of cavityclock, applied from outside the package.

`instrument` replaces every public function of the six pipeline modules in
the namespace where its callers look it up (e.g. `cavityclock.clock.
apply_reduced`, `cavityclock.modes.junction_map`) and the public methods of
`BogoliubovMap` with wrappers that record one span per call: id, parent id,
name, start, end.  Nothing under src/ changes; `restore` undoes the patch.

Spans opened on a worker thread with an empty stack take the open
`clock.sweep` span as their parent, so sweep points nest under the sweep that
started them.  `modes.compose` spans also record the maps' n_max.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "clock", "trajectory", "modes", "gauss", "metrology")


class Tracer:
    """Collects spans as (id, parent id, name, start, end, size) tuples."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._next_id = itertools.count(1).__next__
        self._local = threading.local()
        self._sweep_parent = 0
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        sweep = name == "clock.sweep"
        compose = name == "modes.compose"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._sweep_parent
            sid = self._next_id()
            stack.append(sid)
            if sweep:
                outer, self._sweep_parent = self._sweep_parent, sid
            size = args[0].n_max if compose else None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if sweep:
                    self._sweep_parent = outer
                self.spans.append((sid, parent, name, start, end, size))

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def instrument(self) -> None:
        """Wrap the pipeline's public functions and BogoliubovMap methods."""
        import importlib

        from cavityclock.modes import BogoliubovMap

        methods = [attr for attr, obj in vars(BogoliubovMap).items()
                   if inspect.isfunction(obj) and not attr.startswith("_")]
        for attr in methods:
            self._patch(BogoliubovMap, attr, f"modes.{attr}")
        for short in MODULES:
            module = importlib.import_module(f"cavityclock.{short}")
            for attr, obj in list(vars(module).items()):
                # module-level aliases of the methods would double-count
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and attr not in methods
                        and obj.__module__.startswith("cavityclock.")):
                    owner = obj.__module__.rsplit(".", 1)[1]
                    self._patch(module, attr, f"{owner}.{obj.__name__}")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


class Profile:
    """Per-name totals over many traced calls, each a tree of spans."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        # computed per compose of n x n maps: 4 complex matmuls of 8 n^3 real
        # flops; 4 operand and 2 result arrays of 16 n^2 bytes
        self.compose_flop = 0.0
        self.compose_bytes = 0.0
        self.sweep_child_s = 0.0     # wall of the spans directly under clock.sweep

    def add(self, spans: list[tuple]) -> None:
        children = defaultdict(list)
        names = {}
        for sid, parent, name, start, end, _ in spans:
            children[parent].append((start, end))
            names[sid] = name
        for sid, parent, name, start, end, size in spans:
            wall = end - start
            self.calls[name] += 1
            self.wall_s[name] += wall
            self.self_s[name] += wall - _covered(children[sid], start, end)
            if name == "modes.compose":
                self.compose_flop += 32 * size ** 3
                self.compose_bytes += 96 * size ** 2
            if names.get(parent) == "clock.sweep":
                self.sweep_child_s += wall


def write_spans(path, spans: list[tuple]) -> None:
    """Tab-separated spans, times relative to the first start."""
    t0 = min((s[3] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\tsize\n")
        for sid, parent, name, start, end, size in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{start - t0:.9f}\t"
                     f"{end - t0:.9f}\t{'' if size is None else size}\n")
