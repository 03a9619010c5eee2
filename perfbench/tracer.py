"""Per-layer tracing of ``prelie`` from outside the package.

``install`` wraps the module-level public functions of each layer module,
and the public methods of ``TreeSum`` (products) and ``CoeffMatrix``
(matrix), then rebinds every name in every ``prelie`` namespace that still
points at an original, e.g. ``psi.bilinear_extend``, ``cli.psi_map`` and
``prelie.psi``.  A span is recorded only where a call crosses into another
layer; a nested call into the layer already on top passes straight through.

Per-node and per-entry helpers are not wrapped (tree ``serialize``,
``__hash__``, ``vertices``, ``TreeSum.coefficient``, ``CoeffMatrix.entry``,
``tree_less``, ``serial_key``, ``canonical_key``, ``potential_energy``), nor
private ``_`` functions: their cost lands in the self time of the layer that
calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("trees", "products", "psi", "projection", "monomials", "orders", "matrix", "cli")
PER_ENTRY = {
    "serial_key", "canonical_key", "potential_energy", "tree_less",
    "coefficient", "entry",
}
CLASSES = {"products": "TreeSum", "matrix": "CoeffMatrix"}
OPERATORS = {"__add__", "__sub__"}
CACHES = {
    "psi.cache_hit_ratio": ("psi", "psi"),
    "psi.coeff_cache_hit_ratio": ("psi", "coeff_c_recursive"),
    "projection.embed_cache_hit_ratio": ("projection", "planar_embeddings"),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [layer, time spent in child spans]
        self.spans: list[tuple] = []  # (layer, name, start, duration)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = {"products.pairs": 0, "products.terms_out": 0,
                       "matrix.cells": 0, "matrix.nonzeros": 0}
        self.caches = {}
        self.matrix_type = None

    def wrap(self, layer: str, name: str, fn):
        stack, spans = self.stack, self.spans
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((layer, name, start, duration))
            if type(result) is self.matrix_type:
                self._count_matrix(result)
            return result

        return traced

    def _count_matrix(self, m):
        rows, cols = m.shape
        self.counts["matrix.cells"] += rows * cols
        self.counts["matrix.nonzeros"] += sum(1 for row in m.entries for e in row if e)

    def _counted_bilinear_extend(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def bilinear_extend(name, a, b):
            counts["products.pairs"] += len(a.terms) * len(b.terms)
            out = fn(name, a, b)
            counts["products.terms_out"] += len(out.terms)
            return out

        return bilinear_extend

    def install(self):
        modules = {layer: importlib.import_module(f"prelie.{layer}") for layer in LAYERS}
        self.matrix_type = modules["matrix"].CoeffMatrix
        for key, (layer, name) in CACHES.items():
            self.caches[key] = getattr(modules[layer], name)
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or name in PER_ENTRY or isinstance(obj, type):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # a span would only cover creating the generator
                target = obj
                if name == "bilinear_extend":
                    target = self._counted_bilinear_extend(obj)
                replaced[id(obj)] = self.wrap(layer, name, target)
            if layer in CLASSES:
                self._wrap_class(layer, getattr(mod, CLASSES[layer]))
        namespaces = [m for n, m in sys.modules.items() if n == "prelie" or n.startswith("prelie.")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, name, replaced[id(obj)])
                elif type(obj) is dict:
                    for k, v in obj.items():
                        if id(v) in replaced:
                            obj[k] = replaced[id(v)]

    def _wrap_class(self, layer: str, cls):
        for name, raw in list(vars(cls).items()):
            if name in PER_ENTRY or (name.startswith("_") and name not in OPERATORS):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self.wrap(layer, label, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self.wrap(layer, label, raw))

    def metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out.update(self.counts)
        for key, fn in self.caches.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[key] = info.hits / lookups if lookups else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_chrome(self, path):
        """Chrome trace-event JSON (opens in Perfetto or chrome://tracing)."""
        if not self.spans:
            return
        origin = min(s[2] for s in self.spans)
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": round((start - origin) * 1e6, 3), "dur": round(duration * 1e6, 3)}
            for layer, name, start, duration in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
