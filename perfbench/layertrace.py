"""Per-layer spans recorded from outside the program.

``Tracer.install`` rebinds, in the traced process only, every public
function of each ``trigonal4`` module at every module binding that holds
it (the defining module and each importer, e.g. ``cli.delta_nu_c_test``),
and wraps the public methods, properties and operator dunders of every
class those modules define (``Scalar.__mul__``, ``Matrix.kernel_basis``,
...).  A layer is one module of ``src/trigonal4``.

A call opens a span only when it enters a layer from another one; a call
made from inside the same layer runs unrecorded, so a layer's self time is
its spans' time minus the spans of other layers they contain.  Spans
(id, name, start, end, parent, op) are kept in memory and written out at
the end.  The layers are single-threaded and nothing queues between them,
so there is no waiting time to record.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import os
import time
import types
from array import array

LAYERS = (
    "cli",
    "report",
    "deformation",
    "canonical_ideal",
    "rulings",
    "qz24",
    "numeric",
    "curve",
    "series",
    "polynomials",
    "linalg",
    "scalars",
    "prng",
)

# Scalar arithmetic, counted on every call for ``scalars.ops_per_op``.
ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)
OPERATORS = frozenset(ARITHMETIC) | {
    "__floordiv__", "__mod__", "__eq__", "__hash__", "__bool__", "__complex__",
    "__ge__", "__le__", "__str__",
}
# Functions whose every call is counted, whichever layer makes it.
COUNTED = {"curve.divisor_of", "linalg.Matrix.kernel_basis"} | {
    f"scalars.Scalar.{op}" for op in ARITHMETIC
}
# (metric, lru_cache-wrapped functions whose cache_info() it sums)
CACHES = (
    ("canonical_ideal.cache_hit_ratio", (("canonical_ideal", "sym2_relation"), ("canonical_ideal", "canonical_cubic"))),
    ("curve.branch_inversion.cache_hit_ratio", (("curve", "branch_inversion"),)),
)
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op")


def _is_function(value) -> bool:
    return isinstance(value, (types.FunctionType, functools._lru_cache_wrapper))


class Tracer:
    def __init__(self):
        self.op = 0
        self.names: list[str] = []
        self.spans = array("q")
        self._next_id = 0
        self._stack = [[None, 0, -1]]  # [layer, ns spent in child spans, span id]
        self._self_ns = dict.fromkeys(LAYERS, 0)
        self._entries: dict[str, list] = {}  # name -> [calls entering from another layer]
        self._counts: dict[str, list] = {}  # name -> [all calls], for COUNTED names
        self._caches = []

    def _wrap(self, func, layer: str, name: str):
        name_id = len(self.names)
        self.names.append(name)
        stack, spans, self_ns = self._stack, self.spans.extend, self._self_ns
        entries = self._entries.setdefault(name, [0])
        clock = time.perf_counter_ns
        tracer = self
        counted = self._counts.setdefault(name, [0]) if name in COUNTED else None

        def wrapper(*args, **kwargs):
            if counted is not None:
                counted[0] += 1
            parent = stack[-1]
            if parent[0] is layer:
                return func(*args, **kwargs)
            entries[0] += 1
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [layer, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[layer] += elapsed - frame[1]
                parent[1] += elapsed
                spans((span_id, name_id, start, end, parent[2], tracer.op))

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"trigonal4.{layer}") for layer in LAYERS}
        for metric, targets in CACHES:
            self._caches.append((metric, [getattr(modules[m], f) for m, f in targets]))
        replaced = {}
        for layer, module in modules.items():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if _is_function(value) and not inspect.isgeneratorfunction(value):
                    replaced[id(value)] = (value, self._wrap(value, layer, f"{layer}.{name}"))
                elif isinstance(value, type) and not issubclass(value, (enum.Enum, BaseException)):
                    self._wrap_class(value, layer)
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in replaced and replaced[id(value)][0] is value:
                    setattr(module, name, replaced[id(value)][1])

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, label)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, label)))
            elif isinstance(attr, property) and attr.fget is not None:
                setattr(cls, name, property(self._wrap(attr.fget, layer, label), attr.fset, attr.fdel, attr.__doc__))
            elif isinstance(attr, types.FunctionType) and not inspect.isgeneratorfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, label))

    def metrics(self, ops: int) -> dict:
        """Per-layer figures per op, plus the exact counts and cache ratios."""
        values = {}
        for layer in LAYERS:
            entered = sum(cell[0] for name, cell in self._entries.items() if name.split(".", 1)[0] == layer)
            values[f"{layer}.self_ms_per_op"] = (self._self_ns[layer] / 1e6 / ops, "ms")
            values[f"{layer}.calls_per_op"] = (entered / ops, "count")
        values["curve.divisor_of.calls_per_op"] = (self._counts["curve.divisor_of"][0] / ops, "count")
        values["linalg.Matrix.kernel_basis.calls_per_op"] = (
            self._counts["linalg.Matrix.kernel_basis"][0] / ops,
            "count",
        )
        scalar_ops = sum(self._counts[f"scalars.Scalar.{op}"][0] for op in ARITHMETIC)
        values["scalars.ops_per_op"] = (scalar_ops / ops, "count")
        for metric, functions in self._caches:
            infos = [f.cache_info() for f in functions]
            lookups = sum(i.hits + i.misses for i in infos)
            values[metric] = (sum(i.hits for i in infos) / lookups if lookups else 0.0, "ratio")
        return values

    def write(self, directory: str) -> None:
        """Write the spans as raw int64 rows plus a JSON index of names."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "spans.bin"), "wb") as f:
            self.spans.tofile(f)
        with open(os.path.join(directory, "spans.json"), "w") as f:
            json.dump({"fields": SPAN_FIELDS, "names": self.names, "count": len(self.spans) // len(SPAN_FIELDS)}, f)
