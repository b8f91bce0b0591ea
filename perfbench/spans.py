"""Spans around calls into qtorb's layers, recorded from outside the program.

Every public function of a layer module is replaced, in every ``qtorb``
module that binds it (``from .sectors import box_of_columns`` binds a
separate name in ``ehrhart``, ``cli`` and ``blowup``), by a wrapper that
counts the call.  A call that enters a layer from another one, or from
the benchmark, also records a span: its operation, its parent span, the
function and its start and end.  A layer's self time is the length of
its spans minus the part covered by their child spans.  Calls inside one
layer are counted but open no span, so their time stays with the layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "model", "intlat", "sectors", "cohomology", "blowup", "ehrhart", "kernels")

# Call counts reported per operation.
COUNTED = (
    "model.faces",
    "model.h_vector",
    "intlat.smith_normal_form",
    "intlat.coords_in_basis",
    "sectors.box_of_columns",
    "cohomology.cr_report",
    "blowup.mckay_check",
    "ehrhart.dilate_count",
    "kernels.count_in_dilate",
    "kernels.box_solutions",
)

# Inclusive time of the outermost call into any of these functions.
TIMERS = {
    "model.generate_test_models": ("model.generate_test_models",),
    "sectors.quasi_sl": ("sectors.ensure_quasi_sl", "sectors.is_quasi_sl"),
    "blowup.triangulation": (
        "blowup.star_subdivide",
        "blowup.induced_triangulation",
        "blowup.check_triangulation_identity",
    ),
}

# Poly methods counted as polynomial operations (qtorb.exact).
POLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "shifted")


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj):
            continue
        if (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    """Installs the wrappers and keeps spans and counts in memory."""

    def __init__(self):
        self.active = False
        self.ops = 0
        self.stack: list[tuple[int, str]] = []
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.timer_depth: Counter = Counter()
        self.timer_ns: list[Counter] = [Counter()]
        self.poly_ops = 0
        self.box_elements = 0
        self.box_faces = 0
        self._op_cones: set = set()

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name == "qtorb" or name.startswith("qtorb.")}
        wrappers = {}
        for layer in LAYERS:
            for name, fn in _public_functions(modules[f"qtorb.{layer}"]):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])
        poly = modules["qtorb.exact"].Poly
        for name in POLY_OPS:
            setattr(poly, name, self._count_poly(getattr(poly, name)))

    def end(self) -> None:
        """Close the current operation; set ``active`` to open the next."""
        self.active = False
        self.ops += 1
        self.timer_ns.append(Counter())
        self.box_faces += len(self._op_cones)
        self._op_cones.clear()

    def _count_poly(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                self.poly_ops += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, key: str, fn):
        layer = key.split(".", 1)[0]
        timers = [t for t, keys in TIMERS.items() if key in keys]
        observe_box = key == "sectors.box_of_columns"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            stack = tracer.stack
            opens = not stack or stack[-1][1] != layer
            if not opens and not timers:
                result = fn(*args, **kwargs)
            else:
                if opens:
                    span_id = len(tracer.spans) + len(stack)
                    stack.append((span_id, layer))
                for t in timers:
                    tracer.timer_depth[t] += 1
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    for t in timers:
                        tracer.timer_depth[t] -= 1
                        if not tracer.timer_depth[t]:
                            tracer.timer_ns[-1][t] += end - start
                    if opens:
                        stack.pop()
                        parent = stack[-1][0] if stack else -1
                        tracer.spans.append((tracer.ops, span_id, parent, key, start, end))
            if observe_box:
                tracer.box_elements += len(result)
                tracer._op_cones.add((tuple(map(tuple, args[0])), args[1]))
            return result

        return traced

    def self_seconds(self, scales: list[float]) -> dict[str, float]:
        """Per layer: span time minus the time of its child spans, with each
        operation's times multiplied by its entry in ``scales``."""
        child_ns: Counter = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        for op, span_id, _, key, start, end in self.spans:
            self_ns[key.split(".", 1)[0]] += (end - start - child_ns[span_id]) * scales[op]
        return {layer: self_ns[layer] / 1e9 for layer in LAYERS}

    def metrics(self, scales: list[float]) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, each per operation, as (value, unit);
        ``scales`` converts each operation's times to reference speed."""
        ops = max(self.ops, 1)
        out: dict[str, tuple[float, str]] = {}
        for layer, seconds in self.self_seconds(scales).items():
            out[f"{layer}.self_s"] = (seconds / ops, "s/op")
        for key in COUNTED:
            out[f"{key}.calls"] = (self.calls[key] / ops, "calls/op")
        for timer in TIMERS:
            ns = sum(op_ns[timer] * k for op_ns, k in zip(self.timer_ns, scales))
            out[f"{timer}.s"] = (ns / 1e9 / ops, "s/op")
        out["sectors.box_elements"] = (self.box_elements / ops, "elements/op")
        out["sectors.box_per_face"] = (self.calls["sectors.box_of_columns"] / max(self.box_faces, 1), "calls/face")
        out["exact.poly_ops"] = (self.poly_ops / ops, "calls/op")
        return out

    def write(self, path) -> None:
        """All spans, one JSON array per line: op, id, parent, function,
        start and end in nanoseconds."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
