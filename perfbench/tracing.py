"""Span tracing of obtusewalk's layers, from outside the package.

``Tracer.install()`` replaces every public function of each layer module
with a wrapper that records a span ``(name, start, end, parent, op)``, at
every ``obtusewalk`` namespace that binds the function (the package
``__init__``, the defining module and every module that imported it), so
nested library calls nest as spans.  ``uninstall()`` puts the originals
back.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "obtusewalk"
LAYERS = ("obtuse", "takagi", "tensor", "limits", "multop", "simulate", "serialize", "cli")


def layer_functions():
    """{original function: "layer.name"} for every public function of each layer."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    """Span recorder; ``with tracer:`` installs the wrappers for the block."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._patched = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        return wrapper

    def install(self):
        names = layer_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patched.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, parent, op), c in zip(spans, child)]


def aggregate(spans):
    """{name: [calls, self seconds]} and {op: self seconds summed over spans}."""
    by_name = defaultdict(lambda: [0, 0.0])
    by_op = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        entry = by_name[span[0]]
        entry[0] += 1
        entry[1] += own
        by_op[span[4]] += own
    return dict(by_name), dict(by_op)
