"""Spans and exact counters around the public functions of edgecolorkit.

Nothing under src/ is touched at rest: install() rebinds every public
function of the seven layer modules, at every module that binds it (the
CLI imports count_assignments, extension_matrix and others by name, so
cli.count_assignments, reduction.count_assignments and
counting.count_assignments all name one function), to one wrapper per
function; uninstall() puts the originals back.

A span is (name, start, end, parent span index, invocation id). Spans and
counters live in memory; write_spans() dumps them at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "gadgets", "counting", "holant", "reduction", "cnf")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _graph_key(g) -> tuple:
    return (type(g).__name__, g.vertex_count, g.edges, getattr(g, "dangling", ()))


def _count_graph_input(stats, args, kwargs, result):
    key = (_graph_key(_arg(args, kwargs, 0, "g")), _arg(args, kwargs, 1, "kappa"))
    stats.setdefault("keys", set()).add(key)


def _count_assignments_edges(stats, args, kwargs, result):
    _count_graph_input(stats, args, kwargs, result)
    stats["edges"] += _arg(args, kwargs, 0, "g").edge_count


def _count_grid_edges(stats, args, kwargs, result):
    stats["grid_edges"] += _arg(args, kwargs, 0, "grid").graph.edge_count


def _count_vandermonde(stats, args, kwargs, result):
    # A system over m chained edges has m + 1 unknowns.
    nodes = _arg(args, kwargs, 0, "nodes")
    stats["m"] = max(stats["m"], len(nodes) - 1)
    stats["node_bits"] = max([stats["node_bits"]] + [abs(v).bit_length() for v in nodes])


def _count_replaced(stats, args, kwargs, result):
    stats["out_edges"] += result[0].edge_count


def _count_sat_assignments(stats, args, kwargs, result):
    stats["assignments"] += 2 ** _arg(args, kwargs, 0, "phi").variable_count


# Counters beyond .calls, computed at the wrapper boundary from the
# arguments and the result.
COUNTERS = {
    "counting.extension_matrix": _count_graph_input,
    "counting.count_assignments": _count_assignments_edges,
    "holant.eval_grid": _count_grid_edges,
    "reduction.solve_vandermonde": _count_vandermonde,
    "graphs.replace_edges": _count_replaced,
    "cnf.count_sat": _count_sat_assignments,
}


class Tracer:
    def __init__(self, package):
        modules = [getattr(package, layer) for layer in LAYERS]
        self.wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self.wrappers[fn] = self._wrap("%s.%s" % (layer, name), fn)
        self.bindings = []
        for module in [package, *modules]:
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in self.wrappers:
                    self.bindings.append((module, name, obj))
        self.reset()

    def reset(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.invocation = -1
        self.stats: dict = defaultdict(lambda: defaultdict(int))

    def _wrap(self, qualname, fn):
        counter = COUNTERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            stack = self.stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (qualname, start, end, parent, self.invocation)
                self.stats[qualname]["calls"] += 1
            if counter is not None:
                counter(self.stats[qualname], args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for module, name, fn in self.bindings:
            setattr(module, name, self.wrappers[fn])

    def uninstall(self):
        for module, name, fn in self.bindings:
            setattr(module, name, fn)

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive seconds per function, exact counters, and self time
        per layer (each span's duration minus its direct children's)."""
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            inclusive[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            self_s[name.split(".", 1)[0]] += end - start - children
        out: dict[str, float] = {}
        for name, seconds in inclusive.items():
            out[name + ".s"] = seconds
        for name, stats in self.stats.items():
            calls = stats["calls"]
            out[name + ".calls"] = calls
            for key, value in stats.items():
                if key == "keys":
                    out[name + ".distinct_ratio"] = len(value) / calls if calls else 0.0
                elif key != "calls":
                    out[name + "." + key] = value
        for layer, seconds in self_s.items():
            out[layer + ".self_s"] = seconds
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
