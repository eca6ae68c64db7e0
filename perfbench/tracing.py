"""Tracing the program from outside.

Each traced function is wrapped by replacing the module attribute
through which its calls are made: the package root for calls the
benchmark makes, and the calling module's globals for calls the program
makes internally (``tagcloud.mincut.bipartition_fm``,
``tagcloud.reorder.dp_break`` for the DP runs inside ``shuffle_best``).
Nothing under ``src/`` changes.  Spans are kept in memory with their
parent; self time is a span's duration minus the time its children
cover.  Counts are taken afterwards from the objects the wrapped
functions returned, so they cost the traced run nothing but a list
append.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module, attribute)
TARGETS = (
    ("ingest.tokenize_filter", "tagcloud.ingest", "tokenize_filter"),
    ("ingest.build_tag_cloud", "tagcloud.ingest", "build_tag_cloud"),
    ("ingest.cooccurrence_graph", "tagcloud.ingest", "cooccurrence_graph"),
    ("model.cloud_from_json", "tagcloud", "cloud_from_json"),
    ("inline.dp_break", "tagcloud", "dp_break"),
    ("inline.dp_break", "tagcloud.reorder", "dp_break"),
    ("inline.greedy_break", "tagcloud", "greedy_break"),
    # nfdh imports greedy_break from tagcloud.inline when it runs
    ("inline.greedy_break", "tagcloud.inline", "greedy_break"),
    ("reorder.shuffle_best", "tagcloud", "shuffle_best"),
    ("reorder.nfdh", "tagcloud", "nfdh"),
    ("reorder.ffdh", "tagcloud", "ffdh"),
    ("reorder.ffdhw", "tagcloud", "ffdhw"),
    ("mincut.layout_mincut", "tagcloud", "layout_mincut"),
    ("mincut.build_slicing_tree", "tagcloud.mincut", "build_slicing_tree"),
    ("mincut.bipartition_exhaustive", "tagcloud.mincut", "bipartition_exhaustive"),
    ("mincut.bipartition_fm", "tagcloud.mincut", "bipartition_fm"),
    ("mincut.compute_pulls", "tagcloud.mincut", "compute_pulls"),
    ("sizing.default_leaf_shapes", "tagcloud.mincut", "default_leaf_shapes"),
    ("sizing.combine_shapes", "tagcloud.mincut", "combine_shapes"),
    ("sizing.select_and_place", "tagcloud.mincut", "select_and_place"),
    ("metrics.line_badnesses", "tagcloud", "line_badnesses"),
    ("metrics.layout_to_placement", "tagcloud", "layout_to_placement"),
    ("metrics.weighted_distance", "tagcloud", "weighted_distance"),
    ("htmlgen.emit_nested_tables", "tagcloud.htmlgen", "emit_nested_tables"),
    ("htmlgen.emit_inline", "tagcloud.htmlgen", "emit_inline"),
)

# dp_break spans are split by the aggregate they minimize.
DP_AGGREGATES = ("l1", "l2", "linf")

# Functions whose return values feed the counts.
KEEP_RETURNS = {
    "ingest.tokenize_filter", "ingest.cooccurrence_graph",
    "mincut.layout_mincut", "mincut.build_slicing_tree",
    "mincut.bipartition_exhaustive", "mincut.bipartition_fm",
    "sizing.combine_shapes",
}

ROOT = "bench.request"

# Largest share of the traced request time that may fall outside every
# named layer: the root span's self time (the stats line, bbox_area,
# order_indices, build_cloud_from_text's own body) plus the root
# wrapper's entry and exit.  Measured: 1.8% on inline-mix, under 0.1%
# on the mincut workloads.
GLUE_TOLERANCE = 0.05


def span_names() -> list[str]:
    names = []
    for name, _, _ in TARGETS:
        if name == "inline.dp_break":
            names += [f"{name}.{a}" for a in DP_AGGREGATES]
        else:
            names.append(name)
    return list(dict.fromkeys(names))


COUNT_NAMES = (
    "ingest.tokens", "ingest.edges", "inline.lines",
    "mincut.splits.exhaustive", "mincut.splits.fm", "mincut.splits.relaxed",
    "mincut.fm.runs", "mincut.fm.passes", "mincut.fm.improving_pass_ratio",
    "mincut.width_attempts", "sizing.shapes.max", "sizing.shapes.mean",
    "htmlgen.bytes", "trace.overhead_ratio", "trace.glue_ms",
)


def per_layer_spec() -> list[dict]:
    """The per-layer metrics, as listed in BENCHMARK.json."""

    spec = []
    for name in span_names():
        spec.append({"name": f"{name}.self_ms", "unit": "ms", "better": "lower"})
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    for name in COUNT_NAMES:
        unit = ("ratio" if name.endswith("ratio") else
                "ms" if name.endswith("_ms") else "count")
        better = "higher" if name == "mincut.fm.improving_pass_ratio" else "lower"
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


class Recorder:
    """Spans as [name, request, parent, start_ns, end_ns] in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.returns: list[tuple[str, object]] = []
        self.stack: list[int] = []
        self.request = -1
        self.installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, returns = self.spans, self.stack, self.returns
        keep = name in KEEP_RETURNS
        clock = time.perf_counter_ns
        split_by_agg = name == "inline.dp_break"

        def traced(*args, **kwargs):
            span_name = name
            if split_by_agg:
                agg = args[2] if len(args) > 2 else kwargs.get("agg")
                span_name = f"{name}.{agg.value if agg is not None else 'l2'}"
            idx = len(spans)
            span = [span_name, self.request, stack[-1] if stack else -1, 0, 0]
            spans.append(span)
            stack.append(idx)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if keep:
                returns.append((name, result))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that could not be found."""

        missing = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self.installed.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.installed):
            setattr(module, attr, fn)
        self.installed.clear()

    def take_returns(self) -> list[tuple[str, object]]:
        out = self.returns[:]
        self.returns.clear()
        return out


def self_times(spans: list[list]) -> tuple[list[int], int]:
    """Self time per span, and how many spans break nesting (a child
    outside its parent, or overlapping its previous sibling)."""

    covered = [0] * len(spans)
    last_end: dict[int, int] = {}
    broken = 0
    for name, _, parent, t0, t1 in spans:
        if parent < 0:
            continue
        p = spans[parent]
        if t0 < p[3] or t1 > p[4] or t0 < last_end.get(parent, p[3]):
            broken += 1
        last_end[parent] = t1
        covered[parent] += t1 - t0
    return [s[4] - s[3] - c for s, c in zip(spans, covered)], broken


class Counts:
    """Work counts taken from returned objects, plus their cross-checks."""

    def __init__(self, fm_runs_per_split: int):
        self.fm_runs_per_split = fm_runs_per_split
        self.totals: dict[str, float] = defaultdict(float)
        self.shape_sizes: list[int] = []
        self.cut_nodes = 0
        self.retried_splits = 0
        self.problems: list[str] = []

    def add(self, returns, outcome, kind: str) -> None:
        t = self.totals
        splits_in_tree = 0
        prev_group = None
        for name, value in returns:
            if name == "ingest.tokenize_filter":
                t["ingest.tokens"] += len(value)
            elif name == "ingest.cooccurrence_graph":
                t["ingest.edges"] += len(value.edges)
            elif name in ("mincut.bipartition_exhaustive", "mincut.bipartition_fm"):
                key = "exhaustive" if name.endswith("exhaustive") else "fm"
                t[f"mincut.splits.{key}"] += 1
                t["mincut.splits.relaxed"] += bool(value.relaxed)
                t["mincut.fm.runs"] += len(value.runs)
                t["mincut.fm.passes"] += sum(r.passes for r in value.runs)
                # A region wider than tall first tries a vertical split;
                # if a half cannot hold its widest tag, the same group is
                # split again horizontally.  Only the second makes a cut.
                group = frozenset(value.part_a + value.part_b)
                if group == prev_group:
                    self.retried_splits += 1
                    splits_in_tree -= 1
                prev_group = group
                splits_in_tree += 1
            elif name == "mincut.build_slicing_tree":
                cuts = _cut_nodes(value)
                self.cut_nodes += cuts
                if cuts != splits_in_tree:
                    self.problems.append(
                        f"{splits_in_tree} splits made a tree of {cuts} cuts")
                splits_in_tree, prev_group = 0, None
            elif name == "mincut.layout_mincut":
                t["mincut.width_attempts"] += value.iterations
            elif name == "sizing.combine_shapes":
                self.shape_sizes += [len(v) for v in value.values()]
        if kind == "inline":
            t["inline.lines"] += len(outcome.layout.lines)
        t["htmlgen.bytes"] += len(outcome.html.encode())

    def check(self) -> list[str]:
        t = self.totals
        problems = list(self.problems)
        if t["mincut.fm.runs"] != self.fm_runs_per_split * t["mincut.splits.fm"]:
            problems.append(f"{t['mincut.fm.runs']:.0f} FM runs for"
                            f" {t['mincut.splits.fm']:.0f} FM splits")
        return problems

    def metrics(self, requests: int) -> dict[str, float]:
        t = self.totals
        out = {name: t[name] / requests for name in (
            "ingest.tokens", "ingest.edges", "inline.lines",
            "mincut.splits.exhaustive", "mincut.splits.fm", "mincut.splits.relaxed",
            "mincut.fm.runs", "mincut.fm.passes", "mincut.width_attempts",
            "htmlgen.bytes")}
        passes = t["mincut.fm.passes"]
        out["mincut.fm.improving_pass_ratio"] = (
            (passes - t["mincut.fm.runs"]) / passes if passes else 0.0)
        sizes = self.shape_sizes
        out["sizing.shapes.max"] = float(max(sizes, default=0))
        out["sizing.shapes.mean"] = sum(sizes) / len(sizes) if sizes else 0.0
        return out


def _cut_nodes(tree) -> int:
    count, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if not hasattr(node, "tag"):
            count += 1
            stack += (node.first, node.second)
    return count


def layer_metrics(spans, selfs, requests: int) -> dict[str, float]:
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for span, s in zip(spans, selfs):
        self_ns[span[0]] += s
        calls[span[0]] += 1
    out = {}
    for name in span_names():
        out[f"{name}.self_ms"] = self_ns[name] / 1e6 / requests
        out[f"{name}.calls"] = calls[name] / requests
    return out
