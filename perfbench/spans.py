"""Span recorder for the traced run.

A span wraps each public function named in ``LAYERS``.  The wrapper is
bound under every name a caller looks the function up by: each
``ahomotopy`` module attribute that is the original function, or the
class attribute for a method.  Spans (name, parent, start, end) are kept
in memory in flat arrays and written out once, at exit; self times are
computed from the file afterwards.  Counters are updated after a span
closes, from its arguments and result.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array


def _gamma_q(c, args, kwargs, out):
    n = len(out.vertices)
    c["complexes.gamma_q.pairs"] += n * (n - 1) // 2
    c["complexes.gamma_q.edges"] += len(out.edges)


def _loop_to_word(c, args, kwargs, out):
    c.distinct.add((args[1], tuple(args[0])))


def _smith(c, args, kwargs, out):
    c["presentations.smith_diagonal.entries"] += len(args[0]) * args[1]


def _tietze(c, args, kwargs, out):
    c["presentations.tietze_with_rewriter.gens_in"] += len(args[0].generators)
    c["presentations.tietze_with_rewriter.gens_out"] += len(out.presentation.generators)


def _search(c, args, kwargs, out):
    c["grids.bounded_homotopy_search.hits"] += out is not None


def _f_vector(c, args, kwargs, out):
    c["cells.f_vector.cells"] += sum(out)


def _enumerate_paths(c, args, kwargs, out):
    c["loopspace.enumerate_paths.walks"] += len(out)


def _loop_graph(c, args, kwargs, out):
    n = len(out.vertices)
    c["loopspace.build_loop_graph.pairs"] += n * (n - 1) // 2
    c["loopspace.build_loop_graph.edges"] += len(out.edges)


# (span name, module, attribute, metrics reported, counter)
LAYERS = (
    ("graphs.check_walk", "graphs", "check_walk", ("calls", "self_s"), None),
    ("graphs.from_json", "graphs", "Graph.from_json", ("self_s",), None),
    ("graphs.cartesian_product", "graphs", "cartesian_product", ("self_s",), None),
    ("complexes.parse_facets", "complexes", "parse_facets", ("self_s",), None),
    ("complexes.gamma_q", "complexes", "gamma_q", ("self_s", "pairs", "edge_ratio"), _gamma_q),
    ("fundamental.a1_presentation", "fundamental", "a1_presentation", ("calls", "self_s"), None),
    ("fundamental.loop_to_word", "fundamental", "loop_to_word",
     ("calls", "self_s", "distinct_ratio"), _loop_to_word),
    ("fundamental.loops_equivalent_detail", "fundamental", "loops_equivalent_detail",
     ("self_s",), None),
    ("presentations.smith_diagonal", "presentations", "smith_diagonal",
     ("calls", "self_s", "entries"), _smith),
    ("presentations.in_row_lattice", "presentations", "in_row_lattice", ("calls", "self_s"), None),
    ("presentations.tietze_with_rewriter", "presentations", "tietze_with_rewriter",
     ("calls", "self_s", "gens_in", "gens_out"), _tietze),
    ("presentations.TietzeResult.rewrite", "presentations", "TietzeResult.rewrite",
     ("calls", "self_s"), None),
    ("presentations.abelianization", "presentations", "abelianization", ("self_s",), None),
    ("grids.bounded_homotopy_search", "grids", "bounded_homotopy_search",
     ("calls", "self_s", "hit_ratio"), _search),
    ("cells.f_vector", "cells", "f_vector", ("calls", "self_s", "cells"), _f_vector),
    ("loopspace.enumerate_paths", "loopspace", "enumerate_paths",
     ("calls", "self_s", "walks"), _enumerate_paths),
    ("loopspace.build_loop_graph", "loopspace", "build_loop_graph",
     ("self_s", "pairs", "edge_ratio"), _loop_graph),
    ("loopspace.a0", "loopspace", "a0", ("self_s",), None),
    ("cli.run", "cli", "run", ("calls", "self_s"), None),
)

UNITS = {"calls": "count", "self_s": "s", "pairs": "count", "edge_ratio": "ratio",
         "distinct_ratio": "ratio", "entries": "count", "gens_in": "count",
         "gens_out": "count", "hit_ratio": "ratio", "cells": "count", "walks": "count"}

OVERHEAD = "tracing.overhead_ratio"


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    out = [(f"{span}.{m}", UNITS[m]) for span, _, _, metrics, _ in LAYERS for m in metrics]
    return out + [(OVERHEAD, "ratio")]


class Counters(dict):
    def __init__(self):
        super().__init__()
        self.distinct = set()

    def __missing__(self, key):
        return 0


class Recorder:
    """Collects spans in flat arrays: name id, parent index (-1 for a
    root), start and end in ``time.perf_counter`` seconds."""

    def __init__(self):
        self.names = [span for span, *_ in LAYERS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counters()
        self._stack = []

    def wrap(self, sid, fn, count):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def span(*args, **kwargs):
            idx = len(start)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        span.__wrapped__ = fn
        return span

    def install(self):
        """Rebind every layer function, in every ahomotopy module that
        holds it, to its span wrapper."""
        for mod in {mod for _, mod, *_ in LAYERS}:
            importlib.import_module(f"ahomotopy.{mod}")
        modules = [m for n, m in sys.modules.items()
                   if n == "ahomotopy" or n.startswith("ahomotopy.")]
        for sid, (span, mod, attr, _, count) in enumerate(LAYERS):
            module = sys.modules[f"ahomotopy.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(sid, raw.__func__, count)))
                else:
                    setattr(cls, meth, self.wrap(sid, raw, count))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(sid, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def dump(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        header = {"names": self.names, "n": len(self.start),
                  "counters": dict(self.counters),
                  "distinct": {"fundamental.loop_to_word": len(self.counters.distinct)}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def load(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in "iidd":
            arr = array(code)
            arr.fromfile(fh, header["n"])
            arrays.append(arr)
    return header, arrays


def self_times(name, parent, start, end, nnames):
    """Calls and self time per span name.  A span's self time is its
    duration minus the durations of its direct children; spans on one
    thread nest, so the children never overlap."""
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * nnames
    own = [0.0] * nnames
    for i, sid in enumerate(name):
        calls[sid] += 1
        own[sid] += dur[i] - child[i]
    return calls, own


def layer_metrics(path):
    """Per-layer metrics, by name, from a span file."""
    header, (name, parent, start, end) = load(path)
    names = header["names"]
    calls, own = self_times(name, parent, start, end, len(names))
    c = header["counters"]
    out = {}
    for sid, (span, _, _, metrics, _) in enumerate(LAYERS):
        n = calls[sid]
        derived = {
            "calls": n,
            "self_s": own[sid],
            "distinct_ratio": header["distinct"].get(span, 0) / n if n else 0.0,
            "hit_ratio": c.get(f"{span}.hits", 0) / n if n else 0.0,
        }
        pairs = c.get(f"{span}.pairs", 0)
        derived["edge_ratio"] = c.get(f"{span}.edges", 0) / pairs if pairs else 0.0
        for m in metrics:
            out[f"{span}.{m}"] = derived[m] if m in derived else c.get(f"{span}.{m}", 0)
    return out
