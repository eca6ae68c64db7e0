"""Independent reference implementations used to check the fast code.

Everything here favors obviousness over speed: exhaustive enumeration,
no incremental bookkeeping, no pruning beyond what the definitions
demand.  Tests compare library results against these.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from tagcloud.ingest import MIN_COOCCURRENCE, MIN_WORD_LENGTH, tokenize
from tagcloud.mincut import (
    GROW_FACTOR,
    LOW_USE_FRACTION,
    MAX_WIDTH_RETRIES,
    SHRINK_FACTOR,
    Pulls,
    bipartition,
    build_slicing_tree,
)
from tagcloud.model import InvalidInputError, RelationGraph
from tagcloud.sizing import combine_shapes, default_leaf_shapes, prune_shapes, select_and_place
from tagcloud.tree import Cut, Leaf


def line_score(boxes, target, space):
    """White area of one line of (width, height) boxes, or None if the
    line holds several tags that cannot fit."""

    widths = [w for w, _ in boxes]
    heights = [h for _, h in boxes]
    slack = target - sum(widths) - (len(boxes) - 1) * space
    if slack < 0 and len(boxes) > 1:
        return None
    tallest = max(heights)
    return tallest * abs(slack) + sum((tallest - h) * w for w, h in boxes)


def fold(values, agg):
    if agg == "l1":
        return sum(values)
    if agg == "l2":
        return sum(v * v for v in values)
    if agg == "linf":
        return max(values)
    raise ValueError(agg)


def best_break(boxes, target, space, agg):
    """Try every one of the 2^(n-1) ways to cut the sequence into lines.

    Returns (score, ends) where ends are the 1-based break positions of
    the layout minimizing (score, number of lines, ends).
    """

    n = len(boxes)
    best = None
    for mask in range(1 << (n - 1)):
        ends = [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        scores = []
        prev = 0
        for e in ends:
            s = line_score(boxes[prev:e], target, space)
            if s is None:
                break
            scores.append(s)
            prev = e
        else:
            key = (fold(scores, agg), len(ends), tuple(ends))
            if best is None or key < best:
                best = key
    return (best[0], best[2]) if best else None


def reference_break(boxes, target, space, agg):
    """Prefix DP over ``line_score`` for clouds too big to enumerate.

    Same result as ``best_break``: (score, ends) minimizing (score,
    number of lines, ends).  Each prefix keeps its best (score, lines,
    ends) state; a line appended to a better prefix state gives a
    better state, so one per prefix suffices.  For the max that holds
    only once the score is fixed, so the minimax prefix scores come
    first, and the same DP then runs over the lines no worse than the
    optimum with every score counted as 0.
    """

    n = len(boxes)
    # lines[j]: (start, score) of every feasible line ending at tag j - 1;
    # widening a line leftward only adds width, so stop at the first overfull one
    lines = [[]]
    for j in range(1, n + 1):
        row = []
        for v in range(j - 1, -1, -1):
            s = line_score(boxes[v:j], target, space)
            if s is None:
                break
            row.append((v, s))
        lines.append(row)
    if agg == "linf":
        t = [0]
        for j in range(1, n + 1):
            t.append(min(max(t[v], s) for v, s in lines[j]))
        lines = [[(v, 0) for v, s in row if s <= t[n]] for row in lines]
    best = [(0, 0, ())]
    for j in range(1, n + 1):
        best.append(min(((best[v][0] + fold([s], agg), best[v][1] + 1, best[v][2] + (j,))
                          for v, s in lines[j] if best[v] is not None), default=None))
    score, _, ends = best[n]
    return (t[n] if agg == "linf" else score), ends


def first_fit_reference(cloud, order):
    """First fit by scanning every open line for each tag in ``order``:
    a tag joins the first line whose remaining room covers it and its
    leading space, else opens a new line.  Returns the lines as tuples."""

    target, space = cloud.target_width, cloud.space_width
    lines = []
    used = []
    for idx in order:
        w = cloud.tags[idx].width
        for li in range(len(lines)):
            if target - used[li] >= w + space:
                lines[li].append(idx)
                used[li] += space + w
                break
        else:
            lines.append([idx])
            used.append(w)
    return tuple(tuple(line) for line in lines)


def merged_edges(raw):
    """A graph's stored edges and largest endpoint from raw valid
    edges: one ``(i, j, s)`` per unordered pair with i < j, strengths
    summed from 0 in input order, sorted by pair."""

    merged = {}
    for a, b, s in raw:
        key = (min(a, b), max(a, b))
        merged[key] = merged.get(key, 0) + s
    edges = tuple((i, j, merged[i, j]) for i, j in sorted(merged))
    return edges, max((j for _, j, _ in edges), default=-1)


def tree_dims(tree_tuple, leaf_choice, gap):
    """(width, height) of a slicing tree once every leaf picked a shape.

    ``tree_tuple`` is a nested ("V"|"H", left, right) / ("leaf", tag)
    structure; ``leaf_choice`` maps tag -> (width, height).
    """

    kind = tree_tuple[0]
    if kind == "leaf":
        return leaf_choice[tree_tuple[1]]
    _, first, second = tree_tuple
    aw, ah = tree_dims(first, leaf_choice, gap)
    bw, bh = tree_dims(second, leaf_choice, gap)
    if kind == "V":
        return aw + gap + bw, max(ah, bh)
    return max(aw, bw), ah + bh


def merge_frontier(first, second, orient, gap):
    """Shape list of a cut node from its children's (width, height)
    lists: every pairing of one shape from each side, then the
    dominated results dropped with the library's ``prune_shapes``."""

    if orient == "V":
        packed = [(aw + gap + bw, max(ah, bh)) for aw, ah in first for bw, bh in second]
    else:
        packed = [(max(aw, bw), ah + bh) for aw, ah in first for bw, bh in second]
    return prune_shapes(packed)


def combine_beside_reference(first, second, gap):
    """A V cut's shape list, ``(width, height, first, second)`` each, by
    set and sort: every height either child has, tallest first, with the
    narrowest shape of each child that fits under it, until one child
    cannot get that flat."""

    heights = sorted({c[1] for c in first} | {c[1] for c in second}, reverse=True)
    cands = []
    ia = ib = 0
    for h in heights:
        while ia < len(first) and first[ia][1] > h:
            ia += 1
        while ib < len(second) and second[ib][1] > h:
            ib += 1
        if ia == len(first) or ib == len(second):
            break
        a, b = first[ia], second[ib]
        cands.append((a[0] + gap + b[0], h, a, b))
    return tuple(cands)


def combine_stacked_reference(first, second):
    """An H cut's shape list by set and sort: every width either child
    has, narrowest first, with the widest shape of each child that fits
    in it, skipping widths one child cannot get down to."""

    widths = sorted({c[0] for c in first} | {c[0] for c in second})
    cands = []
    ia = ib = -1
    for w in widths:
        while ia + 1 < len(first) and first[ia + 1][0] <= w:
            ia += 1
        while ib + 1 < len(second) and second[ib + 1][0] <= w:
            ib += 1
        if ia < 0 or ib < 0:
            continue
        a, b = first[ia], second[ib]
        cands.append((w, a[1] + b[1], a, b))
    return tuple(cands)


def best_root_shape(tree_tuple, leaf_shapes, target, gap):
    """Exhaustively assign shapes to leaves and pick the root box the
    same way the library does: min area fitting the width budget (ties
    to the shorter box), else the narrowest."""

    tags = []

    def collect(t):
        if t[0] == "leaf":
            tags.append(t[1])
        else:
            collect(t[1])
            collect(t[2])

    collect(tree_tuple)
    fitting = []
    all_dims = []
    for combo in itertools.product(*(leaf_shapes[t] for t in tags)):
        dims = tree_dims(tree_tuple, dict(zip(tags, combo)), gap)
        all_dims.append(dims)
        if dims[0] <= target:
            fitting.append(dims)
    if fitting:
        return min(fitting, key=lambda d: (d[0] * d[1], d[1]))
    return min(all_dims, key=lambda d: (d[0], d[1]))


def best_bipartition(tags, edges, areas, cost_a=None, cost_b=None):
    """Scan every two-sided assignment of ``tags``.

    Returns (part_a, part_b, cut, relaxed).  Prefers assignments whose
    side areas are within a factor two of each other; if none exist,
    least absolute area difference.  Minimizes cut plus per-tag side
    costs, ties to the lexicographically smallest membership vector.
    The objective is scaled as ``fm_bipartition`` scales it: when any
    internal strength or side cost is fractional, each is multiplied by
    1000 and rounded to an integer.  ``cut`` sums the raw strengths.
    """

    tags = sorted(tags)
    edges = [(i, j, s) for i, j, s in edges if i in tags and j in tags]
    cost_a = {t: (cost_a or {}).get(t, 0) for t in tags}
    cost_b = {t: (cost_b or {}).get(t, 0) for t in tags}
    numbers = [s for _, _, s in edges] + list(cost_a.values()) + list(cost_b.values())
    scale = 1 if all(float(v).is_integer() for v in numbers) else 1000
    pool = []
    for vector in itertools.product((0, 1), repeat=len(tags)):
        if all(v == vector[0] for v in vector):
            continue
        side = dict(zip(tags, vector))
        area = [0, 0]
        for t in tags:
            area[side[t]] += areas[t]
        cut = sum(s for i, j, s in edges if side[i] != side[j])
        obj = sum(int(round(s * scale)) for i, j, s in edges if side[i] != side[j])
        obj += sum(int(round((cost_a if side[t] == 0 else cost_b)[t] * scale)) for t in tags)
        balanced = 2 * min(area) >= max(area)
        pool.append((balanced, abs(area[0] - area[1]), obj, vector, cut))
    relaxed = not any(p[0] for p in pool)
    if relaxed:
        floor = min(p[1] for p in pool)
        pool = [p for p in pool if p[1] == floor]
    else:
        pool = [p for p in pool if p[0]]
    _, _, obj, vector, cut = min(pool, key=lambda p: (p[2], p[3]))
    part_a = tuple(t for t, v in zip(tags, vector) if v == 0)
    part_b = tuple(t for t, v in zip(tags, vector) if v == 1)
    return part_a, part_b, float(cut), relaxed


def cut_weight(graph, split):
    """Total strength of the graph's edges with one end in each part of
    ``split``, summed in the graph's stored edge order, as a float."""

    side = dict.fromkeys(split.part_a, 0) | dict.fromkeys(split.part_b, 1)
    return float(sum(s for i, j, s in graph.edges
                     if i in side and j in side and side[i] != side[j]))


def pair_counts(stream, retained):
    """Adjacent co-occurrence counts over words in ``retained``.

    Walks the stream once; every neighboring pair of two different
    retained words counts once, unordered.
    """

    index = {w: i for i, w in enumerate(retained)}
    counts = Counter()
    for a, b in zip(stream, stream[1:]):
        if a in index and b in index and a != b:
            i, j = index[a], index[b]
            counts[(min(i, j), max(i, j))] += 1
    return counts


def tokenize_filter(text):
    """Every word of :func:`tokenize` long enough to tag, one at a time."""

    return [w for w in tokenize(text) if len(w) >= MIN_WORD_LENGTH]


def cooccurrence_graph(stream, retained):
    """The relation graph of :func:`pair_counts` seen at least
    ``MIN_COOCCURRENCE`` times, with the library's checks and messages."""

    index = {}
    for pos, word in enumerate(retained):
        if word in index:
            raise InvalidInputError(f"retained word {word!r} listed twice")
        index[word] = pos
    vocabulary = set(stream)
    missing = [w for w in retained if w not in vocabulary]
    if missing:
        raise InvalidInputError(f"retained words absent from the stream: {missing[:5]}")
    return RelationGraph(
        (i, j, c) for (i, j), c in pair_counts(stream, retained).items()
        if c >= MIN_COOCCURRENCE)


def fm_bipartition(tags, edges, areas, cost_a, cost_b, runs, seed):
    """The refinement split with its move order spelled out.

    Same runs, passes and rollback as the library's FM, but every move
    re-sorts the gain values and each gain's tags from scratch and takes
    the first legal tag: highest gain, then smallest tag id, then the
    side-count and area checks.  ``cost_a``/``cost_b`` give each tag's
    float penalty for landing in part A/B.

    Returns (part_a, part_b, cut, passes) with one pass count per run.
    """

    tags = sorted(set(tags))
    keep = set(tags)
    edges = [(i, j, s) for i, j, s in edges if i in keep and j in keep]

    def cut_of(side):
        return float(sum(s for i, j, s in edges if side[i] != side[j]))

    numbers = [s for _, _, s in edges] + [cost_a[t] for t in tags] + [cost_b[t] for t in tags]
    scale = 1 if all(float(v).is_integer() for v in numbers) else 1000
    sedges = [(i, j, int(round(s * scale))) for i, j, s in edges]
    sca = {t: int(round(cost_a[t] * scale)) for t in tags}
    scb = {t: int(round(cost_b[t] * scale)) for t in tags}
    adj = {t: [] for t in tags}
    for i, j, s in sedges:
        adj[i].append((j, s))
        adj[j].append((i, s))
    s_max = max(areas[t] for t in tags)

    def objective(side):
        cut = sum(s for i, j, s in sedges if side[i] != side[j])
        return cut + sum(sca[t] if side[t] == 0 else scb[t] for t in side)

    def refine(side, area_side, count_side, obj):
        passes = 0
        while True:
            passes += 1
            start_obj = obj
            gains = {}
            for t in tags:
                g = sum(s if side[u] != side[t] else -s for u, s in adj[t])
                g += sca[t] - scb[t] if side[t] == 0 else scb[t] - sca[t]
                gains[t] = g
            buckets = {}
            for t, g in gains.items():
                buckets.setdefault(g, set()).add(t)
            moves = []
            objs = [obj]
            valid = [abs(area_side[0] - area_side[1]) <= s_max]
            while buckets:
                picked = None
                for g in sorted(buckets, reverse=True):
                    for t in sorted(buckets[g]):
                        src = side[t]
                        if count_side[src] == 1:
                            continue
                        diff = abs((area_side[src] - areas[t])
                                   - (area_side[1 - src] + areas[t]))
                        if diff <= 2 * s_max:
                            picked = (g, t)
                            break
                    if picked:
                        break
                if picked is None:
                    break
                g, t = picked
                buckets[g].discard(t)
                if not buckets[g]:
                    del buckets[g]
                src = side[t]
                side[t] = 1 - src
                area_side[src] -= areas[t]
                area_side[1 - src] += areas[t]
                count_side[src] -= 1
                count_side[1 - src] += 1
                obj -= g
                moves.append((t, src))
                objs.append(obj)
                valid.append(abs(area_side[0] - area_side[1]) <= s_max)
                for u, s in adj[t]:
                    old = gains[u]
                    if u not in buckets.get(old, ()):
                        continue  # moved this pass
                    delta = 2 * s if side[u] == src else -2 * s
                    if delta:
                        buckets[old].discard(u)
                        if not buckets[old]:
                            del buckets[old]
                        gains[u] = old + delta
                        buckets.setdefault(old + delta, set()).add(u)
            best_p, best_obj = 0, objs[0]
            for p in range(1, len(objs)):
                if valid[p] and objs[p] < best_obj:
                    best_p, best_obj = p, objs[p]
            for t, src in reversed(moves[best_p:]):
                cur = side[t]
                side[t] = src
                area_side[cur] -= areas[t]
                area_side[src] += areas[t]
                count_side[cur] -= 1
                count_side[src] += 1
            obj = best_obj
            if best_obj >= start_obj:
                return obj, passes

    rng = random.Random(seed)
    best = None
    stats = []
    for run_idx in range(runs):
        order = tags[:]
        rng.shuffle(order)
        side = {}
        area_side = [0, 0]
        count_side = [0, 0]
        for t in order:
            dest = 0 if area_side[0] <= area_side[1] else 1
            side[t] = dest
            area_side[dest] += areas[t]
            count_side[dest] += 1
        final_obj, passes = refine(side, area_side, count_side, objective(side))
        stats.append(passes)
        if best is None or (final_obj, run_idx) < (best[0], best[1]):
            best = (final_obj, run_idx, dict(side))
    side = best[2]
    part_a = tuple(t for t in tags if side[t] == 0)
    part_b = tuple(t for t in tags if side[t] == 1)
    return part_a, part_b, cut_of(side), tuple(stats)


def pulls_reference(group, graph, placed_regions):
    """Each group tag's summed strength to tags outside the group, per
    side of the group's region, as four dicts keyed like ``Pulls``.

    Walks every edge of the graph, both ways round, in stored order; an
    outside end with no side, or with a side that is not one of the
    four, raises InvalidInputError naming it.
    """

    inside = set(group)
    acc = {"left": {}, "right": {}, "top": {}, "bottom": {}}
    for i, j, s in graph.edges:
        for a, b in ((i, j), (j, i)):
            if a not in inside or b in inside:
                continue
            side = placed_regions.get(b)
            if side is None:
                raise InvalidInputError(
                    f"external neighbor {b} of the group has no assigned side")
            if side not in acc:
                raise InvalidInputError(f"unknown side {side!r} for tag {b}")
            acc[side][a] = acc[side].get(a, 0) + s
    return acc


def slicing_tree_reference(cloud, graph=None, seed=0, width_bias=1.0):
    """The slicing tree built by always running every split it considers.

    A region wider than tall is split vertically first; when a half's
    share of the width cannot hold its widest tag, the same group is
    split again horizontally with the next seed.  Each child gets its
    own copy of the side map.  The splitter is the library's; the pulls
    are ``pulls_reference``'s.
    """

    graph = graph or RelationGraph()
    areas = {i: t.area() for i, t in enumerate(cloud.tags)}
    widths = {i: t.width for i, t in enumerate(cloud.tags)}
    rng = random.Random(seed)

    def split(group, pulls, axis):
        return bipartition(group, graph, pulls, axis, areas, seed=rng.getrandbits(64))

    def rec(group, est_w, est_h, sides):
        if len(group) == 1:
            return Leaf(group[0])
        pulls = Pulls(**pulls_reference(group, graph, sides))
        total = sum(areas[t] for t in group)
        if est_w > est_h:
            part = split(group, pulls, "V")
            frac_a = sum(areas[t] for t in part.part_a) / total
            if (est_w * frac_a >= max(widths[t] for t in part.part_a)
                    and est_w * (1 - frac_a) >= max(widths[t] for t in part.part_b)):
                first = rec(part.part_a, est_w * frac_a, est_h,
                            {**sides, **dict.fromkeys(part.part_b, "right")})
                second = rec(part.part_b, est_w * (1 - frac_a), est_h,
                             {**sides, **dict.fromkeys(part.part_a, "left")})
                return Cut("V", first, second)
        part = split(group, pulls, "H")
        frac_a = sum(areas[t] for t in part.part_a) / total
        first = rec(part.part_a, est_w, est_h * frac_a,
                    {**sides, **dict.fromkeys(part.part_b, "bottom")})
        second = rec(part.part_b, est_w, est_h * (1 - frac_a),
                     {**sides, **dict.fromkeys(part.part_a, "top")})
        return Cut("H", first, second)

    est_w = cloud.target_width * width_bias
    est_h = sum(areas.values()) / est_w
    return rec(tuple(range(len(cloud.tags))), est_w, est_h, {})


def mincut_attempts_reference(cloud, graph=None, seed=0, shape_variants=3):
    """``layout_mincut``'s width attempts replayed one by one, and the
    attempt it should return.

    Each attempt builds, sizes and places a tree for the current width
    bias; the bias shrinks after an overflow, grows below three quarters
    of the target, and the loop stops on a width in between or after
    ``MAX_WIDTH_RETRIES`` attempts.  The answer is the widest attempt
    that fits the target, the earliest among equal widths; if none
    fits, the narrowest, again the earliest.  Returns (placed, tree,
    attempt widths).
    """

    leaf_shapes = default_leaf_shapes(cloud, variants=shape_variants)
    target = cloud.target_width
    bias = 1.0
    attempts = []
    for _ in range(MAX_WIDTH_RETRIES):
        tree = build_slicing_tree(cloud, graph, seed=seed, width_bias=bias)
        table = combine_shapes(tree, leaf_shapes)
        placed = select_and_place(tree, table[len(table) - 1], target)
        attempts.append((placed, tree))
        width = placed.bbox[0]
        if width > target:
            bias *= SHRINK_FACTOR
        elif width < LOW_USE_FRACTION * target:
            bias *= GROW_FACTOR
        else:
            break
    widths = [placed.bbox[0] for placed, _ in attempts]
    fitting = [k for k, w in enumerate(widths) if w <= target]
    if fitting:
        pick = sorted(fitting, key=lambda k: (-widths[k], k))[0]
    else:
        pick = sorted(range(len(widths)), key=lambda k: (widths[k], k))[0]
    placed, tree = attempts[pick]
    return placed, tree, widths
