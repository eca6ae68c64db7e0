"""Proximity-aware 2-D placement by recursive graph bisection.

Related tags should sit near each other.  Relations come in as a
weighted graph; the placer recursively bipartitions the tag set,
cutting as little relation weight as possible, and records each split
as a slicing-tree cut.
Splits of up to 12 tags are solved exactly by a pruned search, larger
ones by seeded move/lock/rollback refinement, both in exact integers.
When a group has no internal edge and no pull difference across the
cut, every balanced split costs the same: the search then takes the
first one by integer arithmetic on the areas, and refinement keeps its
first start, so neither builds its tables.
Tags already assigned to the other half of an enclosing split tug the
current split through directional pull weights, so friends across
region borders end up on facing edges.  A graph with no edge has no
pulls, so its tree skips them and the side map they read, and each
group's total area comes from its parent's split, never re-summed.

``layout_mincut`` drives the whole pipeline: build the tree for an
estimated aspect ratio, size it through the shape combiner, and retry
with a narrower or wider estimate until the result suits the target
width; when the target is below the width floor that no tree can beat,
until an attempt lands on that floor.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
import sys
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from types import MappingProxyType

from .model import (
    MAX_TOTAL_STRENGTH,
    Cloud,
    InvalidInputError,
    PlacedCloud,
    RelationGraph,
    check_seed,
    show_value,
)
from .sizing import combine_shapes, default_leaf_shapes, select_and_place
from .tree import Cut, Leaf, Node

# Largest set split by full enumeration; beyond this the seeded
# refinement takes over.
EXHAUSTIVE_LIMIT = 12

# Random starts per refinement call.
DEFAULT_FM_RUNS = 10

SIDES = ("left", "right", "top", "bottom")


@dataclass(frozen=True)
class Pulls:
    """Per-tag attraction toward already-placed external tags, by side."""

    left: Mapping[int, float] = field(default_factory=dict)
    right: Mapping[int, float] = field(default_factory=dict)
    top: Mapping[int, float] = field(default_factory=dict)
    bottom: Mapping[int, float] = field(default_factory=dict)


_NO_PULLS = Pulls(*(MappingProxyType({}),) * len(SIDES))


def compute_pulls(group: Sequence[int], graph: RelationGraph,
                  placed_regions: Mapping[int, str]) -> Pulls:
    """Sum edge strengths from group tags to external tags, per side.

    ``placed_regions`` says on which side of the group's region each
    external tag sits; every external neighbor must be covered.  The
    scan costs the group's degree, not the graph's edge count, and an
    edge-free graph gets one shared, read-only empty ``Pulls`` at once.
    """

    if not graph.edges:
        return _NO_PULLS
    adj = graph.adjacency()
    group_set = set(group)
    acc: dict[str, dict[int, float]] = {s: {} for s in SIDES}
    for a in adj.keys() & group_set:  # walks the smaller of the two
        for b, s in adj[a]:
            if b not in group_set:
                side = placed_regions.get(b)
                if side is None:
                    raise InvalidInputError(
                        f"external neighbor {b} of the group has no assigned side")
                if side not in acc:
                    raise InvalidInputError(f"unknown side {side!r} for tag {b}")
                acc[side][a] = acc[side].get(a, 0) + s
    return Pulls(left=acc["left"], right=acc["right"],
                 top=acc["top"], bottom=acc["bottom"])


@dataclass(frozen=True)
class FmRun:
    """Per-run refinement diagnostics: ``passes`` counts the passes the
    run takes, whether worked out or recalled from an earlier run of the
    same split."""

    passes: int


@dataclass(frozen=True)
class Bipartition:
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    relaxed: bool = False
    runs: tuple[FmRun, ...] = ()


def _split_input(tags: Sequence[int], graph: RelationGraph, pulls: Pulls | None,
                 axis: str, areas: Mapping[int, int] | None):
    """Both splitters' input by local id, a tag's position in ``tags``,
    which the caller has checked: a sorted group of distinct tags.

    Returns the areas by position (1 each when ``areas`` is None), the
    internal edges as (i, j, s) over local ids in sorted (i, j) order,
    and each tag's unscaled penalty for landing in part A (``cost_a``)
    or part B (``cost_b``).  Part A is the left (V cut) or top (H cut)
    side, so a tag pulled right pays when put in A, and so on.  Pulls
    orthogonal to the cut axis, or None, do not participate.
    """

    area = [1] * len(tags) if areas is None else [areas[t] for t in tags]
    pulls = pulls or _NO_PULLS
    toward_b, toward_a = ((pulls.right, pulls.left) if axis == "V"
                          else (pulls.bottom, pulls.top))
    zero = [0] * len(tags)
    cost_a = [toward_b.get(t, 0) for t in tags] if toward_b else zero
    cost_b = [toward_a.get(t, 0) for t in tags] if toward_a else zero
    adj = graph.adjacency()
    edges = []
    if adj:  # an edge-free graph has nothing to walk
        pos = {t: k for k, t in enumerate(tags)}
        edges = [(k, pos[j], s) for k, i in enumerate(tags)
                 for j, s in adj.get(i, ()) if j > i and j in pos]
    return area, edges, cost_a, cost_b


def _scaled_terms(edges, cost_a, cost_b):
    """Strengths and pull costs as the Python ints both splitters minimize
    cut plus pull cost over: as they are if all are whole, else times
    1000 and rounded; sums and ties are exact at any accepted strength."""

    numbers = [s for _, _, s in edges] + cost_a + cost_b
    scale = 1 if all(float(v).is_integer() for v in numbers) else 1000
    return ([(i, j, round(s * scale)) for i, j, s in edges],
            [round(c * scale) for c in cost_a], [round(c * scale) for c in cost_b])


def _checked_graph(graph: RelationGraph | None) -> RelationGraph:
    """``graph``, or an edge-free one for None; anything else raises."""

    if not isinstance(graph, (RelationGraph, type(None))):
        raise InvalidInputError(f"graph must be a RelationGraph, got {type(graph).__name__}")
    return RelationGraph() if graph is None else graph


def _split_result(tags: Sequence[int], side: Sequence[int],
                  relaxed: bool = False, runs: tuple[FmRun, ...] = ()) -> Bipartition:
    """The split putting ``tags[k]`` in part A where ``side[k]`` is 0
    and in part B where it is 1, each part in group order."""

    return Bipartition(tuple(itertools.compress(tags, map(operator.not_, side))),
                       tuple(itertools.compress(tags, side)), relaxed, runs)


def _part_cap(total: int, largest: int) -> int:
    """The most area either part of an enumerated split may hold:
    max(⌊2T/3⌋, L) for a group of total area T and largest tag area L.

    A part of area a is balanced when T <= 3a <= 2T, and a balanced
    split exists exactly when 3L <= 2T: {L} is a part if 3L >= T, and
    otherwise the largest tags taken in turn pass T/3 before 2T/3.  When
    3L > 2T the part holding L is the larger in every split, so the
    least imbalanced splits, the whole pool, put L alone on one side.
    """

    return max(2 * total // 3, largest)


def _first_in_pool(area: Sequence[int], cap: int) -> list[int]:
    """The side vector of the first membership vector in the pool of
    splits whose parts each hold at most ``cap`` of the integer areas.

    This is ``_best_in_pool``'s search with every cost 0, which keeps
    the first vector it meets: each tag goes to part A unless that puts
    more than ``cap`` there.  It never backs up, since part B never
    passes the cap: under the cap L the tags other than L sum to less;
    under ⌊2T/3⌋ the first tag put in B has area at most L, and after
    it both the tags left and the B-area before each addition stay
    below T/3.
    """

    side = [0] * len(area)
    a = 0  # the A-area so far
    for k, x in enumerate(area):
        if a + x > cap:
            side[k] = 1
        else:
            a += x
    return side


def _best_in_pool(area, cap, edges, cost_a, cost_b) -> list[int]:
    """The side vector of the cheapest vector by cut weight plus pull
    cost among those whose parts each hold at most ``cap`` of the area,
    the lexicographically first among equals.  The pool is searched
    depth first, part A first for each tag in turn, so vectors come in
    lexicographic order and only a cheaper one replaces the best.  A
    branch ends once a part holds over ``cap``, or its cost plus each
    tag left's cheaper pull cost reaches the best (branch and bound:
    Land and Doig, Econometrica 1960)."""

    n = len(area)
    earlier = [[] for _ in area]  # (j, s) for each edge to a lower id j
    for i, j, s in edges:
        earlier[j].append((i, s))
    degree = [sum(s for _, s in e) for e in earlier]  # to lower ids
    floor = list(itertools.accumulate(reversed(list(map(min, cost_a, cost_b))), initial=0))
    floor.reverse()  # floor[k]: the least pull cost tags[k:] can pay
    best = [math.inf, None]
    side = [0] * n

    def visit(k: int, a: int, b: int, so_far: int) -> None:  # tags[:k]'s part areas, cost
        if k == n:
            best[:] = so_far, side[:]
            return
        to_b = 0
        for j, s in earlier[k]:
            if side[j]:
                to_b += s
        c = so_far + cost_a[k] + to_b
        if c + floor[k + 1] < best[0] and a + area[k] <= cap:
            visit(k + 1, a + area[k], b, c)
        c = so_far + cost_b[k] + degree[k] - to_b
        if c + floor[k + 1] < best[0] and b + area[k] <= cap:
            side[k] = 1
            visit(k + 1, a, b + area[k], c)
            side[k] = 0

    visit(0, 0, 0, 0)
    return best[1]


def bipartition_exhaustive(tags: Sequence[int], graph: RelationGraph,
                           pulls: Pulls | None = None, axis: str = "V",
                           areas: Mapping[int, int] | None = None) -> Bipartition:
    """Optimal split of up to 12 tags by an exact, pruned search.

    Each part holds at most ``_part_cap`` of the area: the parts keep a
    2:1 area ratio when any split does, else the largest tag is alone,
    the least imbalanced split, flagged ``relaxed``.  Minimizes cut
    weight plus pull penalty in FM's integers; ties go to the
    lexicographically smallest membership vector.

    With no internal edges and the same pull cost on both sides of the
    cut axis for every tag, every vector costs the same, so the answer
    is the first vector in the pool.  ``_first_in_pool`` finds it from
    the areas, with no search and nothing scaled.

    Checks nothing: it trusts ``tags``, ``areas``, ``pulls`` and
    ``axis`` to be as ``bipartition`` checks them (``tags`` also sorted
    and distinct), which every group ``build_slicing_tree`` hands it is.
    """

    area, edges, cost_a, cost_b = _split_input(tags, graph, pulls, axis, areas)
    total, largest = sum(area), max(area)
    cap = _part_cap(total, largest)
    if not edges and cost_a == cost_b:
        side = _first_in_pool(area, cap)
    else:
        side = _best_in_pool(area, cap, *_scaled_terms(edges, cost_a, cost_b))
    return _split_result(tags, side, relaxed=3 * largest > 2 * total)


def bipartition_fm(tags: Sequence[int], graph: RelationGraph,
                   pulls: Pulls | None = None, axis: str = "V",
                   areas: Mapping[int, int] | None = None, seed: int = 0) -> Bipartition:
    """Iterative improvement split for larger tag sets.

    Each of ``DEFAULT_FM_RUNS`` runs starts from a seeded random
    partition balanced by greedy assignment, then repeats passes of
    single-tag moves: always the highest-gain unlocked tag whose move
    keeps both sides populated and the area difference within twice
    the largest tag's area, the smallest tag id first among equal gains.
    Moved tags lock for the rest of the pass; at pass end the best
    prefix of the move sequence whose area difference is within the
    largest tag's area is kept.  Passes repeat until one fails to
    improve.  The best of all runs wins (ties: earliest run).

    A group with no internal edges and the same cost on both sides for
    every tag has every gain 0: no move changes the objective, so each
    run would make one pass, roll every move back and keep its start.
    That case returns run 0's start at once, with the run records
    the full loop would have made, before the costs are scaled or any
    refinement state is built.

    Gains are ``_scaled_terms``' integers.  Tags are renumbered by
    their position in the sorted group, so per-tag state lives in lists
    and id order is tag order.  The unlocked tags wait in a heap of plain integers
    ``-gain * n + id`` for the group's n tags: since ``0 <= id < n``
    they sort exactly as (-gain, id) pairs, so the highest gain and then
    the smallest id comes out first, and the remainder and the floor
    quotient by n give both back.  The keys stay Python integers:
    strengths up to ``MAX_TOTAL_STRENGTH``, scaled, overflow any machine
    integer and lose the id in a float.  The adjacency carries each
    edge's key step, ``2 * n`` times its scaled strength, and is built
    once per split.  A move pushes a new entry for each neighbor whose
    gain rises.  A neighbor whose gain falls keeps its old entry, which
    comes out too early and goes back in with the current gain.  Entries
    of locked tags and superseded entries are dropped as they come out;
    live entries of illegal moves are held aside and go back once a move
    is picked.  A pass ends at its n-th move.  A heap of more than twice
    as many entries as unlocked tags is rebuilt from their keys alone,
    sorted: a move takes the smallest legal key whatever stale entries
    the heap holds, so dropping them all at once is exact.

    The runs of one split often converge, and a pass depends only on
    the side vector it starts from: the keys, per-side areas and counts
    and the objective all follow from it.  So each call keeps one memo
    from every pass-start side vector it has met (as bytes) to how the
    run from there ends: the final side and objective and the passes
    left.  A run that meets a known side copies that ending and stops,
    and its record is the one the full run would have made.  The
    pass-start scan, which walks every edge to set the keys, also sums
    the scaled cut for a run's start objective.

    Checks nothing, the seed included: it trusts its input as
    ``bipartition_exhaustive`` does.
    """

    area, edges, cost_a, cost_b = _split_input(tags, graph, pulls, axis, areas)
    n = len(tags)

    rng = random.Random(seed)
    if not edges and cost_a == cost_b:
        # Every gain is 0: each run would keep its start, so run 0 wins.
        side, _, _ = _fm_start(rng, area)
        return _split_result(tags, side, runs=(FmRun(passes=1),) * DEFAULT_FM_RUNS)

    edges, sca, scb = _scaled_terms(edges, cost_a, cost_b)

    # A heap key is -gain * n + id.  An edge of strength s moves its
    # ends' gains by 2 * s, so it carries the key step w = 2 * n * s.
    # At the start of a pass -gain is the tag's pull delta plus the
    # strength of all its edges, less twice that of its cut edges.
    wedges = [(i, j, 2 * n * s) for i, j, s in edges]
    wadj: list[list[tuple[int, int]]] = [[] for _ in tags]
    pull_key = [n * (b - a) for a, b in zip(sca, scb)]  # in part A
    edge_key = list(range(n))  # the id, plus n times all its strength
    for i, j, w in wedges:
        wadj[i].append((j, w))
        wadj[j].append((i, w))
        edge_key[i] += w >> 1
        edge_key[j] += w >> 1
    s_max = max(area)

    memo: dict[bytes, tuple[bytes, int, int]] = {}
    best: tuple[int, bytes] | None = None
    stats = []
    for _ in range(DEFAULT_FM_RUNS):
        side, area_side, count_side = _fm_start(rng, area)
        final, final_obj, passes = _fm_refine(
            memo, wadj, wedges, pull_key, edge_key, sca, scb, area, s_max,
            side, area_side, count_side)
        stats.append(FmRun(passes=passes))
        if best is None or final_obj < best[0]:  # ties keep the earlier run
            best = (final_obj, final)

    return _split_result(tags, best[1], runs=tuple(stats))


def _fm_start(rng: random.Random, area: Sequence[int]):
    """A seeded random order, each tag to the lighter side so far (which
    keeps the area difference within the largest tag's): the side list
    and the per-side areas and counts.

    The order is ``rng.shuffle(list(range(n)))``'s, drawn inline: the
    same Fisher-Yates swaps, each index rejection-sampled from
    ``getrandbits`` as ``random.Random._randbelow`` does on Python
    3.10-3.13, without two method calls per tag.
    """

    order = list(range(len(area)))
    getrandbits = rng.getrandbits
    for i in range(len(area) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    side = [0] * len(area)
    area_side = [0, 0]
    count_side = [0, 0]
    for t in order:
        dest = 0 if area_side[0] <= area_side[1] else 1
        side[t] = dest
        area_side[dest] += area[t]
        count_side[dest] += 1
    return side, area_side, count_side


def _fm_refine(memo, adj, edges, pull_key, edge_key, sca, scb, area, s_max,
               side, area_side, count_side):
    """One run's passes from ``side`` (a list indexed by local id, changed
    in place): returns its final side as bytes, its final objective and
    the passes it takes.

    ``memo`` maps each pass-start side this split has met, as bytes, to
    (final side, final objective, passes left) of the run from there.
    """

    heappop, heappush = heapq.heappop, heapq.heappush
    n = len(side)
    trail = []  # the side at the start of each pass run here
    obj = None
    while True:
        state = bytes(side)
        end = memo.get(state)
        if end is not None:
            break
        # key[t] is -gain(t) * n + t while t is unlocked and None once
        # it moved, so that the heap's smallest key is the move to try
        # first: the highest gain, then the smallest id.
        key = [e - p if side[t] else e + p
               for t, (e, p) in enumerate(zip(edge_key, pull_key))]
        cut_w = 0  # the cut edges' key steps
        for i, j, w in edges:
            if side[i] != side[j]:
                key[i] -= w
                key[j] -= w
                cut_w += w
        if obj is None:
            obj = cut_w // (2 * n) + sum(b if st else a for a, b, st in zip(sca, scb, side))
        trail.append(state)
        start_obj = obj
        heap = key[:]
        heapq.heapify(heap)

        moves: list[tuple[int, int]] = []  # (tag, side it came from)
        # The best prefix so far (moves kept, objective after them):
        # the lowest objective within the area bound, the shortest first.
        best_p, best_obj = 0, obj

        for unlocked in range(n, 0, -1):
            if len(heap) > 2 * unlocked:  # mostly stale: keep the live keys
                heap = sorted([k for k in key if k is not None])  # a sorted list is a heap
            t = -1
            illegal = []
            while heap:
                entry = heappop(heap)
                u = entry % n
                ku = key[u]
                if ku != entry:
                    if ku is not None and entry < ku:
                        heappush(heap, ku)  # overstated gain: rank it again
                    continue
                src = side[u]
                if (count_side[src] == 1  # never empty a side
                        or abs(area_side[src] - area_side[1 - src] - 2 * area[u])
                        > 2 * s_max):
                    illegal.append(entry)
                    continue
                t = u
                break
            for entry in illegal:
                heappush(heap, entry)
            if t < 0:
                break
            obj += key[t] // n
            key[t] = None
            side[t] = 1 - src
            area_side[src] -= area[t]
            area_side[1 - src] += area[t]
            count_side[src] -= 1
            count_side[1 - src] += 1
            moves.append((t, src))
            if obj < best_obj and abs(area_side[0] - area_side[1]) <= s_max:
                best_p, best_obj = len(moves), obj
            for u, w in adj[t]:
                k = key[u]
                if k is None:
                    continue
                if side[u] != src:
                    key[u] = k + w  # its old entry still comes out early enough
                elif w:
                    k = key[u] = k - w
                    heappush(heap, k)

        for t, src in reversed(moves[best_p:]):
            cur = side[t]
            side[t] = src
            area_side[cur] -= area[t]
            area_side[src] += area[t]
            count_side[cur] -= 1
            count_side[src] += 1
        obj = best_obj
        if best_obj >= start_obj:  # every move rolled back: side is state
            end = (state, obj, 0)
            break

    final, final_obj, left = end
    for k, state in enumerate(trail):
        memo[state] = (final, final_obj, len(trail) - k + left)
    return final, final_obj, len(trail) + left


def bipartition(tags: Sequence[int], graph: RelationGraph | None,
                pulls: Pulls | None = None, axis: str = "V",
                areas: Mapping[int, int] | None = None, seed: int = 0) -> Bipartition:
    """Split a group by enumeration up to ``EXHAUSTIVE_LIMIT`` tags and by
    refinement above it; the one checked entry for library callers.

    The seed must be an int, ``graph`` a ``RelationGraph`` or None, and
    ``tags`` ints >= 0, in any order and with repeats, at least 2 of
    them distinct.  ``areas`` (None: 1 each) maps each to an int >= 1,
    ``pulls`` is a ``Pulls`` or None, ``axis`` 'V' or 'H', and the pulls
    on it map tags to numbers of at most ``MAX_TOTAL_STRENGTH`` in size.
    The splitters get the group sorted and deduplicated; they check nothing.
    """

    check_seed(seed)
    graph = _checked_graph(graph)
    if set(map(type, tags)) - {int}:  # bool is no tag index, and True would merge with 1
        bad = next(t for t in tags if type(t) is not int)
        raise InvalidInputError(f"tags must be integers, got {type(bad).__name__}")
    tags = sorted(set(tags))
    if len(tags) < 2:
        raise InvalidInputError("bipartition needs at least 2 tags")
    if tags[0] < 0:
        raise InvalidInputError(f"tags must be >= 0, got {tags[0]}")
    if areas is not None:
        if not isinstance(areas, Mapping):
            raise InvalidInputError(f"areas must be a mapping, got {type(areas).__name__}")
        try:
            area = [areas[t] for t in tags]
        except KeyError as missing:
            raise InvalidInputError(f"tag {show_value(missing.args[0])} has no area") from None
        if set(map(type, area)) != {int}:  # bool is no area
            raise InvalidInputError("tag areas must be integers")
        if min(area) < 1:
            raise InvalidInputError("tag areas must be >= 1")
    if pulls is not None and not isinstance(pulls, Pulls):
        raise InvalidInputError(f"pulls must be a Pulls, got {type(pulls).__name__}")
    if axis not in ("V", "H"):
        raise InvalidInputError(f"axis must be 'V' or 'H', got {axis!r}")
    pulls = pulls or _NO_PULLS
    for side in ("right", "left") if axis == "V" else ("bottom", "top"):
        toward = getattr(pulls, side)
        if not isinstance(toward, Mapping):
            raise InvalidInputError(f"pulls.{side} must be a mapping, got {type(toward).__name__}")
        for t in tags if toward else ():
            c = toward.get(t, 0)
            if type(c) is bool or not isinstance(c, (int, float)) or not abs(c) < math.inf:
                raise InvalidInputError(
                    f"tag {t}: pull must be a finite number, got {show_value(c)}")
            if abs(c) > MAX_TOTAL_STRENGTH:  # times 1000, a larger one could pass any float
                raise InvalidInputError(f"tag {t}: pull exceeds {MAX_TOTAL_STRENGTH:g} in size")
    if len(tags) <= EXHAUSTIVE_LIMIT:
        return bipartition_exhaustive(tags, graph, pulls, axis, areas)
    return bipartition_fm(tags, graph, pulls, axis, areas, seed=seed)


def _vertical_doomed(est_w: float, total: int, most: int, w_max: int) -> bool:
    """Whether no vertical split whose larger half holds at most ``most``
    of the area fits the group's widest tag.

    The bound repeats ``build_slicing_tree``'s own share arithmetic for
    that larger half, on whichever side it lands; float rounding is
    monotone, so no real split's share can exceed it.
    """

    return max(est_w * (most / total), est_w * (1 - (total - most) / total)) < w_max


def build_slicing_tree(cloud: Cloud, graph: RelationGraph | None = None,
                       seed: int = 0, width_bias: float = 1.0) -> Node:
    """Recursive bisection of the whole cloud into a slicing tree.

    Every region tracks an estimated width and height; a region wider
    than tall is cut vertically provided each half's proportional share
    of the width can still hold its widest tag, otherwise horizontally.
    Sibling halves become external pulls for deeper splits.  Each split
    calls ``bipartition_exhaustive`` or ``bipartition_fm`` directly by the
    group's size, as the public ``bipartition`` would, and draws a seed
    for either.  The graph, seed and width bias are checked here, once;
    each group the splitters get is a sorted tuple of distinct tags with
    the checked cloud's areas, pulls from ``compute_pulls`` and axis V or
    H, so they trust it and check nothing.

    Each split is computed once.  A vertical split is not run when even
    its larger half leaves the widest tag too little width (see
    ``_vertical_doomed``): FM's halves differ by at most the largest tag
    area L, and on a graph with edges, no part of enumeration's pool
    holds more than ``_part_cap``.  A rejected vertical enumeration of a
    group with no pull on any side is the horizontal one too, since
    enumeration then ignores the axis, so it is reused.
    Both still draw the seed the split would have used, so every later
    split gets the seed it always had.

    An edge-free graph gives every group empty pulls at once, and the
    side map that only pulls read is not kept.  A group's total area
    comes from its parent: part A's sum, worked out for its share, and
    the parent's total less it for part B, exact in integers.
    """

    graph = _checked_graph(graph)
    graph.check_fits(len(cloud.tags))
    check_seed(seed)
    if isinstance(width_bias, bool) or not isinstance(width_bias, (int, float)):
        raise InvalidInputError(f"width_bias must be a number, got {type(width_bias).__name__}")
    if not 0 < width_bias <= sys.float_info.max:  # also false for NaN
        raise InvalidInputError(
            f"width_bias must be positive and finite, got {show_value(width_bias)}")

    areas = {i: t.area() for i, t in enumerate(cloud.tags)}
    widths = [t.width for t in cloud.tags]
    area_of, width_of = areas.__getitem__, widths.__getitem__
    rng = random.Random(seed)

    def split(group: tuple[int, ...], pulls: Pulls, axis: str) -> Bipartition:
        split_seed = rng.getrandbits(64)  # groups hold distinct tags
        if len(group) <= EXHAUSTIVE_LIMIT:
            return bipartition_exhaustive(group, graph, pulls, axis, areas)
        return bipartition_fm(group, graph, pulls, axis, areas, seed=split_seed)

    # The side of each tag outside the current group, relative to the
    # group's region.  One dict per tree: a subtree writes only its own
    # tags, so before each child the tags outside it hold their true side.
    # Only pulls read it, and an edge-free graph has none.
    sides: dict[int, str] = {}
    edged = bool(graph.edges)

    def rec(group: tuple[int, ...], total: int, est_w: float, est_h: float) -> Node:
        if len(group) == 1:
            return Leaf(group[0])
        pulls = compute_pulls(group, graph, sides)
        part = None
        if est_w > est_h:
            if len(group) > EXHAUSTIVE_LIMIT:
                most = (total + max(map(area_of, group))) // 2
            else:  # a balanced half, or one tag too large for it; none without edges
                most = edged and _part_cap(total, max(map(area_of, group)))
            if most and _vertical_doomed(est_w, total, most, max(map(width_of, group))):
                rng.getrandbits(64)  # the skipped split's seed
            else:
                cand = split(group, pulls, "V")
                total_a = sum(map(area_of, cand.part_a))
                frac_a = total_a / total
                share_a = est_w * frac_a
                share_b = est_w * (1 - frac_a)
                if (share_a >= max(map(width_of, cand.part_a))
                        and share_b >= max(map(width_of, cand.part_b))):
                    if edged:
                        sides.update(dict.fromkeys(cand.part_b, "right"))
                    first = rec(cand.part_a, total_a, share_a, est_h)
                    if edged:
                        sides.update(dict.fromkeys(cand.part_a, "left"))
                    return Cut("V", first, rec(cand.part_b, total - total_a, share_b, est_h))
                if len(group) <= EXHAUSTIVE_LIMIT and not (
                        pulls.left or pulls.right or pulls.top or pulls.bottom):
                    rng.getrandbits(64)  # the reused split's seed
                    part = cand  # enumeration ignores the axis without pulls
        if part is None:
            part = split(group, pulls, "H")
        total_a = sum(map(area_of, part.part_a))
        frac_a = total_a / total
        if edged:
            sides.update(dict.fromkeys(part.part_b, "bottom"))
        first = rec(part.part_a, total_a, est_w, est_h * frac_a)
        if edged:
            sides.update(dict.fromkeys(part.part_a, "top"))
        return Cut("H", first, rec(part.part_b, total - total_a, est_w, est_h * (1 - frac_a)))

    total_area = sum(areas.values())
    est_w = cloud.target_width * width_bias
    est_h = total_area / est_w
    return rec(tuple(range(len(cloud.tags))), total_area, est_w, est_h)


@dataclass(frozen=True)
class MincutResult:
    """``layout_mincut``'s chosen attempt.

    ``iterations`` counts the width attempts the retry schedule takes.
    Once an attempt lands on the width floor above the target, the
    attempts left are counted without being built, since none of them
    could fit or come out narrower (see ``layout_mincut``).
    """

    placed: PlacedCloud
    tree: Node
    iterations: int


# Width-estimate retry loop constants: shrink when the packed cloud
# overflows, grow when it uses less than three quarters of the target.
SHRINK_FACTOR = 0.85
GROW_FACTOR = 1.15
LOW_USE_FRACTION = 0.75
MAX_WIDTH_RETRIES = 8


def layout_mincut(cloud: Cloud, graph: RelationGraph | None = None, seed: int = 0,
                  shape_variants: int = 3) -> MincutResult:
    """Full placement pipeline with the width retry loop.

    Builds a slicing tree for the current width estimate, sizes and
    places it, then adjusts the estimate until the bounding box lands
    between 75% and 100% of the target width (or retries run out).
    Returns the widest attempt that fits; if none fits, the narrowest,
    the earliest among equal widths.

    V cuts add widths and H cuts take the larger, so no root is
    narrower than the floor: the widest of the tags' narrowest leaf
    shapes.  When the floor is wider than the target, no attempt fits,
    every one shrinks the estimate and the loop would run all
    ``MAX_WIDTH_RETRIES``; so the first attempt exactly at the floor is
    the one returned, at once, with ``iterations`` the full count.
    """

    leaf_shapes = default_leaf_shapes(cloud, variants=shape_variants)
    target = cloud.target_width
    floor = max(shapes[0][0] for shapes in leaf_shapes.values())
    bias = 1.0
    attempts: list[tuple[PlacedCloud, Node]] = []
    for _ in range(MAX_WIDTH_RETRIES):
        tree = build_slicing_tree(cloud, graph, seed=seed, width_bias=bias)
        table = combine_shapes(tree, leaf_shapes)
        placed = select_and_place(tree, table[len(table) - 1], target)
        attempts.append((placed, tree))
        w = placed.bbox[0]
        if w == floor > target:
            return MincutResult(placed=placed, tree=tree, iterations=MAX_WIDTH_RETRIES)
        if w > target:
            bias *= SHRINK_FACTOR
        elif w < LOW_USE_FRACTION * target:
            bias *= GROW_FACTOR
        else:
            break
    fitting = [a for a in attempts if a[0].bbox[0] <= target]
    if fitting:
        placed, tree = max(fitting, key=lambda a: a[0].bbox[0])
    else:
        placed, tree = min(attempts, key=lambda a: a[0].bbox[0])
    return MincutResult(placed=placed, tree=tree, iterations=len(attempts))
