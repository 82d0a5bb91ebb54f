"""Spans around the calls each notegraph module makes into another layer.

The tracer replaces public functions by wrappers in every loaded
``notegraph`` module that holds them, so calls inside a layer (for
example ``compute_report`` calling ``global_efficiency``) are caught as
well. Spans (name, start, end, parent) are kept in memory; counts are
taken at the same boundaries. Nothing inside the package is changed on
disk, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# (module, function) -> span name; the span name's prefix is the layer
WRAPPED = {
    ("midi", "parse_midi"): "midi.parse",
    ("midi", "onset_stream"): "midi.onsets",
    ("graph", "graph_from_onsets"): "graph.build",
    ("metrics", "compute_report"): "metrics.report",
    ("metrics", "global_efficiency"): "metrics.efficiency",
    ("nullmodels", "rewire_edges"): "nullmodels.rewire",
    ("nullmodels", "shuffle_out_weights"): "nullmodels.shuffle",
    ("markov", "network_entropy"): "markov.entropy",
    ("embeddings", "interval_vector"): "embeddings.interval",
    ("embeddings", "group_embedding"): "embeddings.gs",
    ("embeddings", "pca_project"): "embeddings.pca",
    ("embeddings", "component_correlations"): "embeddings.corr",
    ("stats", "mann_whitney_u"): "stats.mwu",
    ("stats", "holm_correction"): "stats.holm",
    ("stats", "mann_kendall"): "stats.mk",
    ("stats", "pearson"): "stats.pearson",
    ("catalog", "load_catalog"): "catalog.load",
    ("pipeline", "scan_inputs"): "pipeline.scan",
    ("pipeline", "run_pipeline"): "pipeline.run",
    ("pipeline", "analyze_song"): "pipeline.analyze",
    ("pipeline", "write_aggregates"): "pipeline.aggregate",
    ("pipeline", "pairwise_genre_tests"): "pipeline.tests",
    ("pipeline", "trend_report"): "pipeline.trend",
    ("cli", "main"): "cli.main",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Callable]] = []
        self._seen_content: set[str] = set()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            # counting is tracer work: book it as a child span so the
            # caller's self time leaves it out
            observe = Span("trace.observe", time.perf_counter(), 0.0, span.parent)
            self._observe(name, args, result)
            observe.end = time.perf_counter()
            self.spans.append(observe)
            return result
        return wrapper

    def _observe(self, name: str, args: tuple, result: Any) -> None:
        """Counts taken at the boundary, outside the span's own interval."""
        self.count(name + "_calls", 1)
        if name == "midi.parse":
            self.count("midi.tempo_changes", len(result.tempo_changes))
        elif name == "midi.onsets":
            self.count("midi.onsets", len(result))
        elif name == "graph.build":
            self.count("graph.nodes", result.node_count)
            self.count("graph.edges", result.edge_count)
        elif name == "nullmodels.rewire":
            g, cfg = args[0], args[1]
            self.count("nullmodels.rewire_attempts", cfg.swap_multiplier * g.edge_count)
            self.count("nullmodels.rewire_moved", sum(1 for e in result.edges if e not in g.edges))
        elif name == "stats.mwu":
            self.count("stats.mwu_pairs", len(args[0]) * len(args[1]))
        elif name == "catalog.load":
            self.count("catalog.rows", len(result))
        elif name == "pipeline.run":
            self._seen_content.clear()
        elif name == "pipeline.analyze":
            digest = hashlib.sha256(args[1]).hexdigest()
            if digest in self._seen_content:
                self.count("pipeline.duplicate_analyses", 1)
            self._seen_content.add(digest)

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items() if k.startswith("notegraph.")}
        for (module, attr), name in WRAPPED.items():
            original = getattr(modules[f"notegraph.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def totals(self, probes: list[tuple[float, float]]) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) per span name.

        ``probes`` are the calibration sampler's (start, end) intervals;
        a probe interrupts a span from inside, so its time is taken off
        every span that encloses it.
        """
        starts = [begin for begin, _ in probes]
        spent = [0.0]
        for begin, end in probes:
            spent.append(spent[-1] + end - begin)
        total: dict[str, float] = {}
        child: dict[str, float] = {}
        for span in self.spans:
            inside = spent[bisect.bisect_right(starts, span.end)] - spent[bisect.bisect_left(starts, span.start)]
            d = span.end - span.start - inside
            total[span.name] = total.get(span.name, 0.0) + d
            if span.parent >= 0:
                parent = self.spans[span.parent].name
                child[parent] = child.get(parent, 0.0) + d
        own = {name: t - child.get(name, 0.0) for name, t in total.items()}
        return total, own
