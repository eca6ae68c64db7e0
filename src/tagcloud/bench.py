"""Benchmark harness comparing the layout methods on a set of clouds.

For every cloud each method runs once, and the report records layout
quality (line badness where lines exist, bounding box area, weighted
relation distance when a graph is present) plus wall-clock time and,
for the 2-D placer, its width attempts.  Reruns with the same seed
reproduce everything except the timing column.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .inline import BadnessAggregate, dp_break, greedy_break, line_badnesses
from .metrics import bbox_area, layout_to_placement, weighted_distance
from .mincut import layout_mincut
from .model import Cloud, LineLayout, PlacedCloud, RelationGraph
from .reorder import RNG_ALGORITHM, check_shuffle_count, ffdh, ffdhw, nfdh, shuffle_best


@dataclass(frozen=True)
class BenchConfig:
    seed: int = 0
    agg: BadnessAggregate = BadnessAggregate.SUM_OF_SQUARES
    shuffles: int = 10
    shape_variants: int = 3

    def __post_init__(self):
        check_shuffle_count(self.shuffles)


@dataclass(frozen=True)
class BenchRow:
    cloud: str
    method: str
    badness_l1: int | None
    badness_l2: int | None
    area_kpx: float
    weighted_dist: float | None
    time_ms: float
    iterations: int | None


CSV_COLUMNS = ("cloud", "method", "badness_l1", "badness_l2", "area_kpx",
               "weighted_dist", "time_ms", "iterations")


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    config: BenchConfig

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# seed={self.config.seed} agg={self.config.agg.value}"
                  f" shuffles={self.config.shuffles} rng={RNG_ALGORITHM}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_cells(row) for row in self.rows)
        return buf.getvalue()

    def to_text(self) -> str:
        table = [list(CSV_COLUMNS)] + [_cells(row) for row in self.rows]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() + "\n"
                       for r in table)


def _cells(row: BenchRow) -> list[str]:
    return [_fmt(getattr(row, column)) for column in CSV_COLUMNS]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def order_indices(cloud: Cloud, order: str) -> list[int]:
    """Tag indices in the named order: alpha, weight (heaviest first) or given."""

    tags = cloud.tags
    if order == "alpha":
        return sorted(range(len(tags)), key=lambda i: (tags[i].label, i))
    if order == "weight":
        return sorted(range(len(tags)), key=lambda i: (-tags[i].weight, i))
    return list(range(len(tags)))


# Every inline algorithm as (cloud, order, agg, shuffles, seed) -> LineLayout.
# The packers sort for themselves and shuffle draws its own orders.
INLINE_ALGOS: dict[str, Callable[..., LineLayout]] = {
    "greedy": lambda c, order, agg, shuffles, seed: greedy_break(c, order),
    "dp": lambda c, order, agg, shuffles, seed: dp_break(c, order, agg),
    "nfdh": lambda c, *_: nfdh(c),
    "ffdh": lambda c, *_: ffdh(c),
    "ffdhw": lambda c, *_: ffdhw(c),
    "shuffle": lambda c, order, agg, shuffles, seed: shuffle_best(c, shuffles, agg, seed),
}


def method_table(config: BenchConfig) -> dict[str, Callable]:
    """Inline methods; the 2-D placer is handled separately."""

    def method(algo: str, order: str = "given") -> Callable:
        return lambda c, g: INLINE_ALGOS[algo](c, order_indices(c, order), config.agg,
                                               config.shuffles, config.seed)

    return {
        "greedy-alpha": method("greedy", "alpha"),
        "greedy-weight": method("greedy", "weight"),
        "dp-alpha": method("dp", "alpha"),
        "dp-weight": method("dp", "weight"),
        f"shuffle{config.shuffles}": method("shuffle"),
        "nfdh": method("nfdh"),
        "ffdh": method("ffdh"),
        "ffdhw": method("ffdhw"),
    }


def _row(name: str, method: str, placed: PlacedCloud, graph: RelationGraph | None,
         elapsed: float, badness: list[int] | None = None,
         iterations: int | None = None) -> BenchRow:
    """One report row; a 2-D placement has no lines, so no ``badness``."""

    return BenchRow(
        cloud=name,
        method=method,
        badness_l1=None if badness is None else sum(badness),
        badness_l2=None if badness is None else sum(b * b for b in badness),
        area_kpx=bbox_area(placed),
        weighted_dist=weighted_distance(placed, graph) if graph and graph.edges else None,
        time_ms=elapsed,
        iterations=iterations,
    )


def run_benchmark(inputs: Sequence[tuple[str, Cloud, RelationGraph | None]],
                  config: BenchConfig | None = None) -> BenchReport:
    config = config or BenchConfig()
    rows: list[BenchRow] = []
    for name, cloud, graph in inputs:
        for method, fn in method_table(config).items():
            start = time.perf_counter()
            layout: LineLayout = fn(cloud, graph)
            elapsed = (time.perf_counter() - start) * 1000
            rows.append(_row(name, method, layout_to_placement(layout, cloud), graph,
                             elapsed, badness=line_badnesses(cloud, layout)))
        start = time.perf_counter()
        result = layout_mincut(cloud, graph, seed=config.seed,
                               shape_variants=config.shape_variants)
        elapsed = (time.perf_counter() - start) * 1000
        rows.append(_row(name, "mincut", result.placed, graph, elapsed,
                         iterations=result.iterations))
    return BenchReport(rows=tuple(rows), config=config)
