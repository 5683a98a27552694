"""Tracing graftkit from outside: spans and call counts per public function.

The tracer replaces each public function of graftkit's computing modules
by a wrapper, in every graftkit namespace that holds it (the package and
complex_graph import functions by name, so patching the defining module
alone would miss those calls). It also wraps ComplexGraph.rank_by_kind
and ComplexGraph.to_json_bytes, complex_graph's export API. Each call
records a span [name, start, end, parent index] and bumps a call count;
self time is computed afterwards from the spans.

Layers are modules; a span is named "<module>.<function>".
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

LAYERS = ("torus", "grid_oracle", "surface", "complex_graph")
# ComplexGraph methods with a per-layer metric of their own; the rest of
# the export (to_json_obj, cycle_rank) counts as to_json_bytes self time.
GRAPH_METHODS = ("rank_by_kind", "to_json_bytes")

# Outcome counters read from a traced function's result, measured where
# the work happens: name -> function(result) -> {counter: increment}.
OUTCOMES: Dict[str, Callable[[object], Mapping[str, int]]] = {
    "surface.is_admissible": lambda adm: {
        "surface.is_admissible.admitted": int(bool(adm))},
    "complex_graph.build_complex": lambda graph: {
        "complex_graph.vertices": len(graph.vertices),
        "complex_graph.edges": len(graph.edges)},
    "complex_graph.to_json_bytes": lambda data: {
        "complex_graph.export_bytes": len(data)},
}

Span = List  # [name, start, end, parent index or -1]


class Tracer:
    """Spans and counts of one traced region; install() / uninstall()
    bracket the region. Not thread-safe: the benchmark is one thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.outcomes: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.calls = Counter()
        self.outcomes = Counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        outcome = OUTCOMES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            tracer.calls[name] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if outcome is not None:
                tracer.outcomes.update(outcome(result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer of the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if mod is not None and (
                          key == package.__name__
                          or key.startswith(package.__name__ + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for ns_attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, ns_attr, wrapper)
        graph_cls = sys.modules[f"{package.__name__}.complex_graph"] \
            .ComplexGraph
        for attr in GRAPH_METHODS:
            self._patch(graph_cls, attr,
                        self._wrap(f"complex_graph.{attr}",
                                   vars(graph_cls)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per span name: each span's duration minus the part of
    its interval that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name] += (end - start) - covered
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better); the order is the order of the report.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "grid_oracle.crossing_list.calls": ("count", "lower"),
    "grid_oracle.crossing_lists_per_pair": ("ratio", "lower"),
    "grid_oracle.crossing_list.self_s": ("s", "lower"),
    "grid_oracle.oracle_draw.self_s": ("s", "lower"),
    "grid_oracle.oracle_resolve.self_s": ("s", "lower"),
    "grid_oracle.draw_pair.self_s": ("s", "lower"),
    "torus.calls": ("count", "lower"),
    "torus.self_s": ("s", "lower"),
    "surface.is_admissible.calls": ("count", "lower"),
    "surface.admissibility_checks_per_graft": ("ratio", "lower"),
    "surface.admissible_ratio": ("ratio", "higher"),
    "surface.canonical_key.calls": ("count", "lower"),
    "surface.keys_per_vertex": ("ratio", "lower"),
    "surface.canonical_key.self_s": ("s", "lower"),
    "surface.canonicalize.self_s": ("s", "lower"),
    "surface.twist_about_meridian.calls": ("count", "lower"),
    "surface.twist_about_meridian.self_s": ("s", "lower"),
    "surface.graft_along.calls": ("count", "lower"),
    "surface.graft_spiraling.self_s": ("s", "lower"),
    "surface.graft_disjoint.self_s": ("s", "lower"),
    "complex_graph.build_complex.self_s": ("s", "lower"),
    "complex_graph.vertices": ("count", "higher"),
    "complex_graph.edges": ("count", "higher"),
    "complex_graph.to_json_bytes.self_s": ("s", "lower"),
    "complex_graph.export_bytes": ("bytes", "lower"),
    "complex_graph.rank_by_kind.self_s": ("s", "lower"),
    "complex_graph.verify_suite.self_s": ("s", "lower"),
    "trace.job_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(calls: Mapping[str, int], outcomes: Mapping[str, int],
                  self_s: Mapping[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (all but the
    trace.* ones), from its call counts, outcome counts and self times."""
    grafts = calls.get("surface.graft_spiraling", 0) + calls.get(
        "surface.graft_disjoint", 0)
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".calls") and name != "torus.calls":
            out[name] = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s") and name != "torus.self_s":
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
    out["torus.calls"] = sum(n for k, n in calls.items()
                             if k.startswith("torus."))
    out["torus.self_s"] = sum(t for k, t in self_s.items()
                              if k.startswith("torus."))
    out["grid_oracle.crossing_lists_per_pair"] = _ratio(
        calls.get("grid_oracle.crossing_list", 0),
        calls.get("grid_oracle.draw_pair", 0))
    out["surface.admissibility_checks_per_graft"] = _ratio(
        calls.get("surface.is_admissible", 0), grafts)
    out["surface.admissible_ratio"] = _ratio(
        outcomes.get("surface.is_admissible.admitted", 0),
        calls.get("surface.is_admissible", 0))
    out["surface.keys_per_vertex"] = _ratio(
        calls.get("surface.canonical_key", 0),
        outcomes.get("complex_graph.vertices", 0))
    for name in ("complex_graph.vertices", "complex_graph.edges",
                 "complex_graph.export_bytes"):
        out[name] = outcomes.get(name, 0)
    return out
