"""Spans around the calls into isonorm's modules, recorded from outside.

`Tracer.install()` replaces every public function of the traced modules, and
every public method of their public classes, with a wrapper that records a
span.  A function is replaced at every module attribute it is bound to
(`from .foliation import t_coord` in hessian.py makes a second binding), so
calls made inside the library are seen too.  Nothing under src/ changes.

Aggregates (calls, points, inclusive and self time) are kept for every span;
the individual spans (id, name, start, end, parent id, op id) are kept in
memory up to a cap and written out when the run ends.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("profile", "planar", "foliation", "fd", "hessian", "isometry",
           "cli")
# functions whose first argument after self is an angle array: points counted
POINT_ARGS = {"profile.Profile.evaluate", "planar.DualProfile.evaluate"}
# spans kept for the span file; calls and times are counted past it
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.points: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.module_self: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._next_id = 0
        self._stack: list[list] = []   # [name, start, child time, span id]
        self._depth: dict[str, int] = defaultdict(int)

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, module: str, fn):
        stack, depth = self._stack, self._depth
        count_points = name in POINT_ARGS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if count_points:
                t = args[1] if len(args) > 1 else kwargs["t"]
                self.points[name] += int(np.size(t))
            parent = stack[-1][3] if stack else -1
            span_id = self._next_id
            self._next_id += 1
            depth[name] += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                own = dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                self.self_time[name] += own
                self.module_self[module] += own
                if depth[name] == 0:    # recursion counts once inclusively
                    self.incl[name] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, frame[1], end, parent,
                                       self.op_id))
                else:
                    self.dropped += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        """Wrap the public functions and methods of every traced module."""
        mods = {m: importlib.import_module(f"isonorm.{m}") for m in MODULES}
        package = importlib.import_module("isonorm")
        replace: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                defined_here = getattr(obj, "__module__", None) == mod.__name__
                if attr.startswith("_") or not defined_here:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    replace[id(obj)] = self._wrap(name, short, obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        name = f"{short}.{attr}.{meth}"
                        setattr(obj, meth, self._wrap(name, short, fn))
        for mod in (*mods.values(), package):
            for attr, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    # --------------------------------------------------------------- output

    def write(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent id, op id."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
