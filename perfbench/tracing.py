"""Spans around the package's public functions, kept in memory.

``Tracer.install`` rebinds each wrapped function wherever a loaded propconn
module holds it (``cli`` imports ``copvc_exact`` by name, for instance), and
the wrapped ``Graph`` methods on the class.  Nothing on disk changes, and
``uninstall`` puts the originals back.

A span is (id, layer, start, end, parent id).  A layer's self time is its
spans' time minus the time of the spans they enclose and of the speed
probe's handler (speed.py), scaled to the machine's quiet speed.
``component_masks`` runs up to millions of times per pass, so its spans
are timed and subtracted from their parent like any other but are not kept
one record each.  ``Graph.remove_vertices``, ``Graph.remove_edges`` and
``enumerate_gnm`` are counted, not timed.  A layer the workload does not
reach reports 0, and so does a ratio whose base is 0.
"""

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from propconn import (Graph, Threshold, bounds, cli, enumeration, families,
                      formats, solver)

# layer name -> (module, public functions wrapped under that name)
LAYERS = {
    "solver.copvc": (solver, ("copvc_exact", "copvc_value")),
    "solver.copec": (solver, ("copec_exact", "copec_value")),
    "enumeration.canonical_graph": (enumeration, ("canonical_graph",)),
    "enumeration.family_profile": (enumeration, ("family_profile",)),
    "families.extremal": (families, ("extremal_by_enumeration",)),
    "families.formula": (families, ("covmin", "coemin", "covmax_tail",
                                    "coemax_tail")),
    "bounds.conjecture": (bounds, ("check_equal_partition_conjecture",
                                   "check_coemax_upper_bound")),
    "bounds.max_cut": (bounds, ("max_bipartite_subgraph",)),
    "formats": (formats, ("parse_edge_list", "serialize_edge_list",
                          "parse_graph6", "encode_graph6", "fraction_str",
                          "witness_payload", "build_report", "dump_report",
                          "write_scan_csv")),
    "cli": (cli, ("main",)),
}


class Tracer:
    def __init__(self, probe):
        self.probe = probe               # speed.SpeedProbe of the pass
        self.spans = []                  # recorded spans, in end order
        self.calls = Counter()           # layer -> spans closed
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.counts = Counter()          # work counters
        self.levels = {}                 # n -> highest G(n, m) level asked for
        self.copec_exact_runs = []       # (graph, tau, timing) per call
        self._stack = []                 # open spans: [id, enclosed seconds]
        self._open = Counter()           # layer -> open spans
        self._next_id = 0
        self._patches = []

    def _span(self, layer, fn, record=True):
        stack, open_, spans = self._stack, self._open, self.spans
        calls, self_s, probe = self.calls, self.self_s, self.probe

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            open_[layer] += 1
            handler_s = probe.handler_s
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                seconds = end - start - (probe.handler_s - handler_s)
                stack.pop()
                open_[layer] -= 1
                calls[layer] += 1
                self_s[layer] += seconds - frame[1]
                if stack:
                    stack[-1][1] += seconds
                if record:
                    spans.append((span_id, layer, start, end, parent))
        return wrapper

    def _count_inside(self, layer, counter, fn):
        open_, counts = self._open, self.counts

        def wrapper(*args, **kwargs):
            if open_[layer]:
                counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _copec_exact(self, fn):
        counts = self.counts

        def wrapper(g, r):
            before = counts["solver.copec.witness_resolves"]
            timing, result = self._timed(fn, g, r)
            tau = Threshold.for_order(r, g.n).tau
            if tau >= 1:
                # One subset DP for the value, one per witness trial; each
                # takes (3^n - 1)/2 inner steps.  Computed, not counted.
                solves = 1 + counts["solver.copec.witness_resolves"] - before
                counts["solver.copec.dp_steps_computed"] += solves * (3 ** g.n - 1) // 2
                self.copec_exact_runs.append((g, tau, timing))
            return result
        return wrapper

    def _timed(self, fn, *args):
        """((measured seconds, start, end), result) of one call; scale the
        times once the pass is over, when the probe has samples around
        them."""
        handler_s = self.probe.handler_s
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        return (end - start - (self.probe.handler_s - handler_s), start, end), result

    def _copec_value(self, fn):
        counts = self.counts

        def wrapper(g, tau):
            if tau >= 1:
                counts["solver.copec.dp_steps_computed"] += (3 ** g.n - 1) // 2
            return fn(g, tau)
        return wrapper

    def _enumerate_gnm(self, fn):
        def wrapper(n, m):
            self.levels[n] = max(m, self.levels.get(n, -1))
            return fn(n, m)
        return wrapper

    def _rebind(self, original, replacement):
        for name, module in list(sys.modules.items()):
            if name != "propconn" and not name.startswith("propconn."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, attr, replacement):
        self._patches.append((Graph, attr, getattr(Graph, attr)))
        setattr(Graph, attr, replacement)

    def install(self):
        for layer, (module, names) in LAYERS.items():
            for name in names:
                fn = getattr(module, name)
                inner = {"copec_exact": self._copec_exact,
                         "copec_value": self._copec_value}.get(name)
                self._rebind(fn, self._span(layer, inner(fn) if inner else fn))
        self._rebind(enumeration.enumerate_gnm,
                     self._enumerate_gnm(enumeration.enumerate_gnm))
        self._patch_method("component_masks", self._span(
            "graph.component_masks", Graph.component_masks, record=False))
        self._patch_method("remove_vertices", self._count_inside(
            "solver.copvc", "solver.copvc.candidates", Graph.remove_vertices))
        self._patch_method("remove_edges", self._count_inside(
            "solver.copec", "solver.copec.witness_resolves", Graph.remove_edges))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, start: float, end: float) -> dict:
        """Per-layer metrics of a traced pass that ran over [start, end].
        Call after ``uninstall`` and before the probe stops: it times
        ``copec_value`` on the graphs ``copec_exact`` solved, untraced.
        Self times are scaled by the pass's median slowdown."""
        value_runs = [self._timed(solver.copec_value, g, tau)[0]
                      for g, tau, _ in self.copec_exact_runs]
        value_s = sum(self.probe.scaled(*timing) for timing in value_runs)
        exact_s = sum(self.probe.scaled(*timing)
                      for _, _, timing in self.copec_exact_runs)
        classes = sum(enumeration.count_classes(n, m)
                      for n, top in self.levels.items() for m in range(top + 1))
        canonical_calls = self.calls["enumeration.canonical_graph"]
        out = {}
        for layer in ("solver.copvc", "graph.component_masks", "solver.copec",
                      "enumeration.canonical_graph", "bounds.max_cut"):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for layer in (*LAYERS, "graph.component_masks"):
            out[f"{layer}.self_s"] = (
                self.probe.scaled(self.self_s[layer], start, end), "s")
        for counter in ("solver.copvc.candidates",
                        "solver.copec.witness_resolves",
                        "solver.copec.dp_steps_computed"):
            out[counter] = (self.counts[counter], "count")
        out["solver.copec.exact_s"] = (exact_s, "s")
        out["solver.copec.value_s"] = (value_s, "s")
        out["solver.copec.witness_over_value"] = (
            exact_s / value_s if value_s else 0.0, "ratio")
        out["enumeration.classes"] = (classes, "count")
        out["enumeration.useful_ratio"] = (
            classes / canonical_calls if canonical_calls else 0.0, "ratio")
        return out
