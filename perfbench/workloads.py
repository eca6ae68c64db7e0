"""The three workloads: their request mixes, the work one request does,
and the checks its outputs must pass.

A request is what one command-line call does, minus interpreter
start-up: parse or ingest the input, lay it out, compute the stats the
command prints and render the HTML.  Program functions are looked up on
the ``tagcloud`` package (``tagcloud.htmlgen`` for the HTML emitters) at
call time, so the traced run sees them through the wrappers installed
there.

Each workload builds one fixed pass of requests from the seed, so the
outputs, quality sums and digest of a pass depend on the seed alone.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from html import escape

import numpy as np

from inputs import random_cloud, topic_cloud, topic_text

# The commands' defaults: layout-mincut --seed 0 --shapes 3,
# layout-inline --seed 0 --shuffles 10.
MINCUT_SEED = 0
SHAPE_VARIANTS = 3
SHUFFLE_SEED = 0
SHUFFLES = 10

# layout-inline choices, cycled through equally often.
ALGOS = ("greedy", "dp", "nfdh", "ffdh", "ffdhw", "shuffle")
AGGS = ("l1", "l2", "linf")
ORDERS = ("alpha", "weight", "given")


@dataclass(frozen=True)
class Request:
    label: str  # request class, e.g. "plain n=500 w=550"
    doc: str  # plain text (text-mincut) or cloud JSON
    k: int = 0
    width: int = 0
    algo: str = ""
    agg: str = ""
    order: str = ""


@dataclass
class Outcome:
    """What one request produced, kept for checking and digesting."""

    cloud: object
    layout: object  # LineLayout (inline) or MincutResult
    placed: object
    html: str
    stats: str
    area_kpx: float
    badness_l2: int = 0
    weighted_dist: float = 0.0


# --- request mixes ----------------------------------------------------------

# Requests per k.  p50 is the median of a mix of four cloud sizes
# whose latencies barely overlap.  These counts put it in the middle of
# the k=100 class, not in the gap between two classes, where it would
# jump from seed to seed.
TEXT_MIX = ((50, 14), (100, 20), (150, 8), (200, 6))
TEXT_WIDTHS = (250, 300, 550, 800)


def text_mincut_pass(seed: int) -> list[Request]:
    """Each k cycles through the widths; document lengths are spread
    evenly on a log scale from 20k to 200k tokens."""

    rng = random.Random(f"text-mincut/{seed}")
    reqs = []
    for k, count in TEXT_MIX:
        lengths = [round(20_000 * 10 ** ((j + 0.5) / count)) for j in range(count)]
        rng.shuffle(lengths)
        for j, tokens in enumerate(lengths):
            width = TEXT_WIDTHS[j % len(TEXT_WIDTHS)]
            reqs.append(Request(f"text k={k} w={width} tokens={tokens}",
                                topic_text(rng, tokens), k=k, width=width))
    rng.shuffle(reqs)
    return reqs


# None is a width narrower than the cloud's widest tag (250 to 310 px),
# so the request takes all eight width attempts: the retry path.  At a
# fixed narrow width, whether a cloud holds a tag too wide for it is
# chance, and one request more or less on the retry path swings the
# workload's throughput.  Narrow widths go with the small clouds only:
# at 1000 tags the retry path is one ten-second request.  The counts
# put the median inside the 500-tag class, with the fast 200-tag
# requests below it and the retry path and 1000 tags above it.
PLAIN_CLASSES = ((150, None), (200, None),
                 (200, 550), (200, 550), (200, 800), (200, 800),
                 (500, 550), (500, 550), (500, 800),
                 (1000, 550), (1000, 800))
PLAIN_COPIES = 4


def plain_mincut_pass(seed: int) -> list[Request]:
    rng = random.Random(f"plain-mincut/{seed}")
    reqs = [Request(f"plain n={n} w={w or 'narrow'}", random_cloud(rng, n, w))
            for n, w in PLAIN_CLASSES * PLAIN_COPIES]
    rng.shuffle(reqs)
    return reqs


INLINE_SIZES = (50, 140, 500, 1000)
# 250 and 300 px are narrower than the widest tags of most clouds, so
# solo overfull lines occur.
INLINE_WIDTHS = (250, 300, 550, 800)


def inline_mix_pass(seed: int) -> list[Request]:
    """Every algo x agg x order combination three times per cloud kind
    and size, on a fresh cloud each time."""

    rng = random.Random(f"inline-mix/{seed}")
    reqs = []
    combos = list(itertools.product(ALGOS, AGGS, ORDERS))
    for kind, make in (("random", random_cloud), ("topic", topic_cloud)):
        for n in INLINE_SIZES * 3:
            for i, (algo, agg, order) in enumerate(combos):
                width = INLINE_WIDTHS[i % len(INLINE_WIDTHS)]
                reqs.append(Request(f"{kind} n={n} {algo}", make(rng, n, width),
                                    algo=algo, agg=agg, order=order))
    rng.shuffle(reqs)
    return reqs


# --- the work of one request ------------------------------------------------

def run_text_mincut(tc, req: Request) -> Outcome:
    cloud, graph = tc.build_cloud_from_text(req.doc, req.k, target_width=req.width)
    return _mincut(tc, cloud, graph)


def run_plain_mincut(tc, req: Request) -> Outcome:
    cloud, graph = tc.cloud_from_json(req.doc)
    return _mincut(tc, cloud, graph)


def _mincut(tc, cloud, graph) -> Outcome:
    result = tc.layout_mincut(cloud, graph, seed=MINCUT_SEED,
                              shape_variants=SHAPE_VARIANTS)
    w, h = result.placed.bbox
    area = tc.bbox_area(result.placed)
    wd = tc.weighted_distance(result.placed, graph) if graph and graph.edges else 0.0
    stats = (f"bbox={w}x{h} area_kpx={area:.3f} weighted_dist={wd:.3f}"
             f" iterations={result.iterations}")
    html = tc.htmlgen.emit_nested_tables(result.tree, result.placed, cloud)
    return Outcome(cloud, result, result.placed, html, stats, area, weighted_dist=wd)


def order_indices(cloud, order: str) -> list[int]:
    """The tag order layout-inline --order asks for."""

    n = len(cloud.tags)
    if order == "alpha":
        return sorted(range(n), key=lambda i: (cloud.tags[i].label, i))
    if order == "weight":
        return sorted(range(n), key=lambda i: (-cloud.tags[i].weight, i))
    return list(range(n))


def run_inline(tc, req: Request) -> Outcome:
    cloud, _ = tc.cloud_from_json(req.doc)
    agg = tc.BadnessAggregate.from_name(req.agg)
    order = order_indices(cloud, req.order)
    if req.algo == "greedy":
        layout = tc.greedy_break(cloud, order)
    elif req.algo == "dp":
        layout = tc.dp_break(cloud, order, agg)
    elif req.algo == "nfdh":
        layout = tc.nfdh(cloud)
    elif req.algo == "ffdh":
        layout = tc.ffdh(cloud)
    elif req.algo == "ffdhw":
        layout = tc.ffdhw(cloud)
    else:
        layout = tc.shuffle_best(cloud, SHUFFLES, agg, SHUFFLE_SEED)
    badness = tc.line_badnesses(cloud, layout)
    placed = tc.layout_to_placement(layout, cloud)
    area = tc.bbox_area(placed)
    l2 = sum(b * b for b in badness)
    stats = (f"lines={len(layout.lines)} badness_l1={sum(badness)} badness_l2={l2}"
             f" badness_linf={max(badness)} height={placed.bbox[1]}"
             f" area_kpx={area:.3f}")
    html = tc.htmlgen.emit_inline(layout, cloud)
    return Outcome(cloud, layout, placed, html, stats, area, badness_l2=l2)


# --- output checks -----------------------------------------------------------
#
# Written against the data, not by calling the program's own validators.

_SPAN_TEXT = re.compile(r"<span[^>]*>([^<]*)</span>")


def _check_html(cloud, html: str) -> list[str]:
    expected = sorted(escape(t.label) for t in cloud.tags)
    if sorted(_SPAN_TEXT.findall(html)) != expected:
        return ["HTML spans do not hold every label exactly once"]
    return []


def _tree_leaves(tree) -> list[int]:
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if hasattr(node, "tag"):
            out.append(node.tag)
        else:
            stack += (node.second, node.first)
    return out


OVERLAP_ROWS = 128


def check_mincut(cloud, out: Outcome, max_attempts: int) -> list[str]:
    n = len(cloud.tags)
    result, placed = out.layout, out.placed
    problems = []
    if sorted(p.tag for p in placed.placements) != list(range(n)):
        problems.append("placements do not hold every tag exactly once")
    if sorted(_tree_leaves(result.tree)) != list(range(n)):
        problems.append("tree leaves do not hold every tag exactly once")
    bw, bh = placed.bbox
    box = np.array([(p.x, p.y, p.x + p.width, p.y + p.height)
                    for p in placed.placements])
    x0, y0, x1, y1 = box.T
    if (x0 < 0).any() or (y0 < 0).any() or (x1 > bw).any() or (y1 > bh).any():
        problems.append("a box lies outside the bounding box")
    # Row blocks keep the check's own memory small next to the program's.
    for lo in range(0, n, OVERLAP_ROWS):
        rows = slice(lo, lo + OVERLAP_ROWS)
        overlap = ((x0[rows, None] < x1[None, :]) & (x0[None, :] < x1[rows, None])
                   & (y0[rows, None] < y1[None, :]) & (y0[None, :] < y1[rows, None]))
        block = np.arange(overlap.shape[0])
        overlap[block, lo + block] = False
        if overlap.any():
            problems.append("two boxes overlap")
            break
    if bw > cloud.target_width and result.iterations != max_attempts:
        problems.append(f"bbox width {bw} exceeds target {cloud.target_width}"
                        f" after {result.iterations} of {max_attempts} attempts")
    return problems + _check_html(cloud, out.html)


def line_badness(boxes, target: int, space: int) -> int:
    """White area of one line: trailing slack at the line's height plus
    the space above each shorter tag."""

    tall = max(h for _, h in boxes)
    slack = target - sum(w for w, _ in boxes) - space * (len(boxes) - 1)
    return tall * abs(slack) + sum((tall - h) * w for w, h in boxes)


def _aggregate(values: list[int], agg: str) -> int:
    if agg == "l1":
        return sum(values)
    if agg == "l2":
        return sum(v * v for v in values)
    return max(values)


def _greedy_lines(cloud, order) -> list[list[int]]:
    """First-fit lines in the given order; an overfull tag sits alone."""

    target, space = cloud.target_width, cloud.space_width
    lines: list[list[int]] = []
    used = target + 1
    for idx in order:
        w = cloud.tags[idx].width
        if used + space + w <= target:
            lines[-1].append(idx)
            used += space + w
        else:
            lines.append([idx])
            used = w
    return lines


def check_inline(cloud, req: Request, out: Outcome) -> list[str]:
    n = len(cloud.tags)
    target, space = cloud.target_width, cloud.space_width
    lines = out.layout.lines
    problems = []
    if sorted(i for line in lines for i in line) != list(range(n)):
        problems.append("lines do not hold every tag exactly once")
        return problems
    boxes = [[(cloud.tags[i].width, cloud.tags[i].height) for i in line] for line in lines]
    for b in boxes:
        if len(b) > 1 and sum(w for w, _ in b) + space * (len(b) - 1) > target:
            problems.append("a multi-tag line is wider than the target")
            break
    mine = [line_badness(b, target, space) for b in boxes]
    if out.badness_l2 != sum(v * v for v in mine):
        problems.append("reported badness differs from the line boxes")
    if req.algo == "dp":
        order = order_indices(cloud, req.order)
        greedy = [[(cloud.tags[i].width, cloud.tags[i].height) for i in line]
                  for line in _greedy_lines(cloud, order)]
        greedy_score = _aggregate([line_badness(b, target, space) for b in greedy], req.agg)
        if _aggregate(mine, req.agg) > greedy_score:
            problems.append(f"dp {req.agg} aggregate is worse than greedy on the same order")
    return problems + _check_html(cloud, out.html)


@dataclass(frozen=True)
class Workload:
    make_pass: object
    run: object
    kind: str  # "mincut" or "inline"


WORKLOADS = {
    "text-mincut": Workload(text_mincut_pass, run_text_mincut, "mincut"),
    "plain-mincut": Workload(plain_mincut_pass, run_plain_mincut, "mincut"),
    "inline-mix": Workload(inline_mix_pass, run_inline, "inline"),
}


def check(workload: Workload, req: Request, out: Outcome, max_attempts: int) -> list[str]:
    if workload.kind == "inline":
        return check_inline(out.cloud, req, out)
    return check_mincut(out.cloud, out, max_attempts)
