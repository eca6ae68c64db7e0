import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tagcloud import (
    Cloud,
    InvalidInputError,
    RelationGraph,
    TagBox,
    bipartition,
    build_slicing_tree,
    layout_mincut,
)
from tagcloud import mincut
from tagcloud.htmlgen import emit_nested_tables
from tagcloud.model import MAX_TOTAL_STRENGTH
from tagcloud.mincut import (
    DEFAULT_FM_RUNS,
    EXHAUSTIVE_LIMIT,
    MAX_WIDTH_RETRIES,
    SIDES,
    Pulls,
    bipartition_exhaustive,
    bipartition_fm,
)
from tagcloud.synthetic import random_cloud, topic_cloud
from tagcloud.tree import Cut, Leaf
from tagcloud.sizing import default_leaf_shapes
from .conftest import make_cloud, split_input
from . import oracles
from .oracles import (
    best_bipartition,
    cut_weight,
    fm_bipartition,
    mincut_attempts_reference,
    pulls_reference,
    slicing_tree_reference,
)
from .structure import Cells, each_tag_once, inside_bbox, leaves, no_overlap


def test_pulls_reference_sums_by_side():
    g = RelationGraph([(0, 5, 2.0), (1, 5, 1.0), (0, 6, 3.0), (0, 1, 9.0)])
    pulls = pulls_reference([0, 1], g, {5: "right", 6: "top"})
    assert pulls == {"left": {}, "right": {0: 2.0, 1: 1.0}, "top": {0: 3.0}, "bottom": {}}


@pytest.mark.parametrize("sides, message", [
    ({}, "external neighbor 5 of the group has no assigned side"),
    ({5: "north"}, "unknown side 'north' for tag 5"),
], ids=["no-side", "unknown-side"])
def test_pulls_reference_requires_assigned_sides(sides, message):
    g = RelationGraph([(0, 1, 1.0), (0, 5, 2.0)])
    with pytest.raises(InvalidInputError) as exc:
        pulls_reference([0, 1], g, sides)
    assert str(exc.value) == message


def pulls_cases():
    """Seeded random groups over edge-free, sparse and dense graphs with
    whole and fractional strengths; every tag outside the group has a
    side: (case, group, graph, sides)."""

    rng = random.Random(0x9011)
    for density in (0.0, 0.05, 0.6):
        for case in range(8):
            n = rng.randint(2, 40)
            edges = [(i, j, rng.choice([1, 3, 0.1, 0.7, 2.25]))
                     for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            group = rng.sample(range(n), rng.randint(1, n))
            sides = {t: rng.choice(SIDES) for t in range(n) if t not in group}
            yield f"{density}-{case}", group, RelationGraph(edges), sides


@pytest.mark.parametrize("case, group, graph, sides", list(pulls_cases()))
def test_compute_pulls_matches_the_edge_scan(case, group, graph, sides):
    """The cut step of a group split V, its tags at even positions in
    part A, against the edge scan of each part: every part gets its
    internal edges in its local ids, and its pulls, rounded from the
    scan's sums, are the group's plus the cut's."""

    group = tuple(sorted(group))
    scale = mincut._scale(s for _, _, s in graph.edges)

    def local_edges(part):
        pos = {t: k for k, t in enumerate(part)}
        return [(pos[i], pos[j], round(s * scale)) for i, j, s in graph.edges
                if i in pos and j in pos]

    split = mincut.Bipartition(group[::2], group[1::2])
    pulls = {side: [0] * (len(sides) + len(group)) for side in SIDES}  # by tag
    for side, got in pulls_reference(group, graph, sides).items():
        for t, c in got.items():
            pulls[side][t] = round(c * scale)
    got = mincut.compute_pulls(group, local_edges(group), split, pulls["right"], pulls["left"])
    for part, toward, edges in ((split.part_a, "right", got[0]), (split.part_b, "left", got[1])):
        other = split.part_b if toward == "right" else split.part_a
        want = pulls_reference(part, graph, {**sides, **dict.fromkeys(other, toward)})
        for side in SIDES:
            assert [pulls[side][t] for t in part] == [round(want[side].get(t, 0) * scale)
                                                      for t in part], side
        assert edges == local_edges(part)


def test_edge_free_tree_makes_no_cut_step(monkeypatch):
    def no_cut_step(*args):
        raise AssertionError("an edge-free tree took a cut step")

    monkeypatch.setattr(mincut, "compute_pulls", no_cut_step)
    for graph in (None, RelationGraph()):
        assert sorted(leaves(build_slicing_tree(random_cloud(4, 60), graph))) == list(range(60))


def test_exhaustive_cuts_the_weak_middle_edge():
    g = RelationGraph([(0, 1, 3), (1, 2, 1), (2, 3, 3)])
    part = bipartition_exhaustive(*split_input([0, 1, 2, 3], g))
    assert (part.part_a, part.part_b) == ((0, 1), (2, 3))
    assert cut_weight(g, part) == 1.0
    assert not part.relaxed


def test_exhaustive_ties_break_lexicographically():
    # no edges: every balanced split cuts 0; the smallest membership
    # vector keeps tag 0 in part A with the lexicographically earliest
    # assignment 0011 over tags (0,1,2,3)
    part = bipartition_exhaustive(*split_input([0, 1, 2, 3], RelationGraph()))
    assert (part.part_a, part.part_b) == ((0, 1), (2, 3))


def test_exhaustive_ties_break_lexicographically_on_fractional_strengths():
    # both (0, 1)/(2, 3) and (0, 2)/(1, 3) cut 0.9, which float sums in
    # different orders told apart; in scaled integers they tie at 900
    g = RelationGraph([(0, 1, 0.7), (0, 2, 0.3), (1, 2, 0.2), (1, 3, 0.4)])
    part = bipartition([0, 1, 2, 3], g)
    assert (part.part_a, part.part_b) == ((0, 1), (2, 3))


@given(areas=st.lists(st.integers(1, 9), min_size=2, max_size=8),
       edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                st.sampled_from(range(100, 1000, 100)) | st.integers(1, 5000)),
                      max_size=20),
       pulls=st.lists(st.tuples(st.sampled_from(SIDES), st.integers(0, 7), st.integers(1, 5000)),
                      max_size=4),
       axis=st.sampled_from("VH"))
@example(areas=[1, 1, 1, 1], edges=[(0, 1, 700), (0, 2, 300), (1, 2, 200), (1, 3, 400)],
         pulls=[], axis="V")  # float sums missed this tie
# A dominant tag: the pool is it alone in part B (the first vector) or in
# part A (its mirror image), which cut the same edges; the pull decides.
@example(areas=[1, 9, 1, 1], edges=[(0, 1, 300), (1, 2, 700), (2, 3, 1000)],
         pulls=[("left", 1, 500)], axis="V")  # the mirror image is cheaper
@example(areas=[1, 9, 1, 1], edges=[(0, 1, 300), (1, 2, 700), (2, 3, 1000)],
         pulls=[("right", 1, 500)], axis="V")  # the first vector is cheaper
@example(areas=[9, 1, 1, 1], edges=[(0, 1, 300), (1, 2, 700), (0, 3, 1000)],
         pulls=[("bottom", 0, 500), ("bottom", 1, 500)], axis="H")  # a tie: the first
@settings(max_examples=150, deadline=None)
def test_exhaustive_matches_reference_on_fractional_strengths(areas, edges, pulls, axis):
    # strengths and pulls in thousandths; whole tenths tie often
    n = len(areas)
    g = RelationGraph([(i, j, k / 1000) for i, j, k in edges if i != j and max(i, j) < n])
    pulls = Pulls(**{side: {t: k / 1000 for s, t, k in pulls if s == side and t < n}
                     for side in SIDES})
    got = bipartition(list(range(n)), g, pulls, axis, dict(enumerate(areas)))
    toward_b, toward_a = ((pulls.right, pulls.left) if axis == "V"
                          else (pulls.bottom, pulls.top))
    want = best_bipartition(range(n), g.edges, dict(enumerate(areas)), toward_b, toward_a)
    assert (got.part_a, got.part_b, cut_weight(g, got), got.relaxed) == want


@given(areas=st.lists(st.integers(1, 60), min_size=2, max_size=EXHAUSTIVE_LIMIT),
       dominant=st.none() | st.tuples(st.integers(0, EXHAUSTIVE_LIMIT - 1), st.integers(0, 3)))
@example(areas=[2, 6, 1], dominant=None)  # 3L = 2T: balanced
@example(areas=[2, 7, 1], dominant=None)  # 3L > 2T: 7 alone
@example(areas=[1] * EXHAUSTIVE_LIMIT, dominant=(EXHAUSTIVE_LIMIT - 1, 1))
@settings(max_examples=150, deadline=None)
def test_first_in_pool_is_the_zero_cost_search(areas, dominant):
    if dominant:  # L = 2R + extra over the rest R: 3L = 2T + 3 * extra
        at, extra = dominant[0] % len(areas), dominant[1]
        areas[at] = 2 * (sum(areas) - areas[at]) + extra
    n, total, largest = len(areas), sum(areas), max(areas)
    cap = mincut._part_cap(total, largest)
    first = mincut._first_in_pool(areas, cap)
    assert first == mincut._best_in_pool(areas, cap, [], [0] * n, [0] * n)
    assert 0 < sum(first) < n
    assert max(sum(x for x, st in zip(areas, first) if st == side) for side in (0, 1)) <= cap


@pytest.mark.parametrize("n", range(2, EXHAUSTIVE_LIMIT + 1))
def test_part_cap_leaves_a_dominant_tag_alone(n):
    # at every position: at 3L = 2T the split is balanced, one area more relaxes it
    for at in range(n):
        for extra, relaxed in ((0, False), (1, True)):
            areas = [1 + k % 3 for k in range(n)]
            areas[at] = 2 * (sum(areas) - areas[at]) + extra
            got = bipartition_exhaustive(*split_input(list(range(n)),
                                                      areas=dict(enumerate(areas))))
            want = best_bipartition(range(n), (), dict(enumerate(areas)))
            assert (got.part_a, got.part_b, 0.0, got.relaxed) == want
            assert got.relaxed == relaxed
            if relaxed:  # alone in part B, or in part A when it comes first
                assert (got.part_a if at == 0 else got.part_b) == (at,)


def test_exhaustive_respects_pulls():
    # tags 0 and 1 tie on cut; the right-pull on 0 forces it into part B
    g = RelationGraph()
    pulls = Pulls(right={0: 5.0})
    part = bipartition_exhaustive(*split_input([0, 1], g, pulls, axis="V"))
    assert part.part_a == (1,) and part.part_b == (0,)
    # orthogonal pulls are ignored on a V cut
    part = bipartition_exhaustive(*split_input([0, 1], g, Pulls(top={0: 5.0}), axis="V"))
    assert part.part_a == (0,) and part.part_b == (1,)


def test_exhaustive_relaxes_when_no_balanced_split_exists():
    part = bipartition_exhaustive(*split_input([0, 1, 2], areas={0: 10, 1: 1, 2: 1}))
    assert part.relaxed
    assert part.part_a == (0,)  # 10 vs 2 is the least imbalanced
    balanced = bipartition_exhaustive(*split_input([0, 1, 2], areas={0: 4, 1: 2, 2: 2}))
    assert not balanced.relaxed


def test_exhaustive_size_limits():
    with pytest.raises(InvalidInputError):
        bipartition([0], RelationGraph())
    assert not bipartition(list(range(EXHAUSTIVE_LIMIT)), RelationGraph()).runs  # enumerated


@pytest.mark.parametrize("order", ["given", "reversed"])
@pytest.mark.parametrize("tags, kw, message", [
    ([3, 3], {}, "bipartition needs at least 2 tags"),
    ([0, 1, 2], {"areas": {0: 4, 1: 0, 2: 4}}, "tag areas must be >= 1"),
    ([0, 1, 2], {"areas": {0: 4, 1: 2.5, 2: 4}}, "tag areas must be integers"),
    ([0, 1, 2], {"areas": {0: 4, 1: True, 2: 4}}, "tag areas must be integers"),
    ([0, 1, 2], {"axis": "X"}, "axis must be 'V' or 'H', got 'X'"),
    ([0, 1, 2], {"areas": {0: 1}}, "tag 1 has no area"),  # was a plain KeyError
    ([0, 1, 2], {"pulls": Pulls(right={1: float("nan")})},
     "tag 1: pull must be a finite number, got nan"),  # enumeration took it
    ([0, 1, 2], {"pulls": Pulls(left={2: float("inf")})},
     "tag 2: pull must be a finite number, got inf"),
    ([0, 1, 2], {"pulls": Pulls(bottom={0: "x"}), "axis": "H"},
     "tag 0: pull must be a finite number, got x"),
    ([0, 1, 2], {"pulls": Pulls(top={0: True}), "axis": "H"},
     "tag 0: pull must be a finite number, got True"),
    # each of these was split as if it named tags
    ([-1, 0], {}, "tags must be >= 0, got -1"),
    (["a", "b", "c"], {}, "tags must be integers, got str"),
    ([0, 1, 2.5], {}, "tags must be integers, got float"),
    ([0, 1, True], {}, "tags must be integers, got bool"),  # was two tags
    ([0, 1, 2], {"pulls": {"right": 1}}, "pulls must be a Pulls, got dict"),  # AttributeError
    # each of these escaped as a plain error
    ([0, 1, 2], {"pulls": Pulls(right=[1])}, "pulls.right must be a mapping, got list"),
    ([0, 1, 2], {"pulls": Pulls(top=5), "axis": "H"}, "pulls.top must be a mapping, got int"),
    ([0, 1, 2], {"areas": 5}, "areas must be a mapping, got int"),
    ([0, 1, 2], {"areas": [4, 4, 4]}, "areas must be a mapping, got list"),
    ([0, 1, 2], {"graph": [(0, 1, 1.0)]}, "graph must be a RelationGraph, got list"),
    ([0, 1, 2], {"pulls": Pulls(left={1: 10 ** 400})}, "tag 1: pull exceeds 1e+300 in size"),
    ([0, 1, 2], {"pulls": Pulls(right={0: -1e301, 1: 0.5})},
     "tag 0: pull exceeds 1e+300 in size"),  # times 1000 it overflowed a float
])
def test_splitters_reject_bad_input_alike(order, tags, kw, message):
    # The checks read the group as a set, so its order does not matter.
    kw = {"graph": RelationGraph([(0, 1, 1.0)]), **kw}
    with pytest.raises(InvalidInputError) as exc:
        bipartition(tags if order == "given" else tags[::-1], **kw)
    assert str(exc.value) == message


def test_bipartition_takes_no_graph_as_no_edges():
    for n in (5, EXHAUSTIVE_LIMIT + 3):
        assert bipartition(range(n), None) == bipartition(range(n), RelationGraph())


@pytest.mark.parametrize("graph, kind", [([(0, 1, 1.0)], "list"), ([], "list"), (0, "int")])
def test_tree_and_layout_reject_a_graph_that_is_no_relation_graph(graph, kind):
    # the list escaped as an AttributeError, and [] or 0 passed as no edges
    cloud = random_cloud(1, 5)
    for build in (build_slicing_tree, layout_mincut):
        with pytest.raises(InvalidInputError) as exc:
            build(cloud, graph)
        assert str(exc.value) == f"graph must be a RelationGraph, got {kind}", build
    assert layout_mincut(cloud, None) == layout_mincut(cloud, RelationGraph())


def test_splitters_reject_their_own_limits():
    # Enumeration's 13-tag limit is the router's to keep: 13 tags go to refinement.
    got = bipartition(list(range(EXHAUSTIVE_LIMIT + 1)), RelationGraph())
    assert got == bipartition_fm(*split_input(list(range(EXHAUSTIVE_LIMIT + 1))))


def random_graph(rng, n, density=0.5, max_strength=9):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, rng.randint(1, max_strength)))
    return RelationGraph(edges) if edges else RelationGraph()


def test_exhaustive_matches_reference_search():
    rng = random.Random(0xBEEF)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, density=rng.choice([0.2, 0.5, 0.9]))
        cases.append((n, g, {t: rng.randint(1, 12) for t in range(n)}))
    # tie-heavy sets up to the limit: with no edges or equal areas many
    # membership vectors share the optimum, so the tie-break decides
    for n in range(9, EXHAUSTIVE_LIMIT + 1):
        cases.append((n, RelationGraph(), {t: 1 for t in range(n)}))
        cases.append((n, RelationGraph(), {t: rng.randint(1, 12) for t in range(n)}))
        cases.append((n, random_graph(rng, n, density=0.3), {t: 5 for t in range(n)}))
    for n, g, areas in cases:
        got = bipartition_exhaustive(*split_input(list(range(n)), g, areas=areas))
        want = best_bipartition(range(n), g.edges, areas)
        assert (got.part_a, got.part_b) == (want[0], want[1])
        assert cut_weight(g, got) == want[2]
        assert got.relaxed == want[3]


def test_exhaustive_matches_reference_with_pulls():
    rng = random.Random(0xF00D)
    for _ in range(25):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, density=0.4)
        areas = {t: rng.randint(1, 6) for t in range(n)}
        pulls = Pulls(
            right={t: rng.randint(0, 4) for t in range(n) if rng.random() < 0.4},
            left={t: rng.randint(0, 4) for t in range(n) if rng.random() < 0.4},
        )
        got = bipartition_exhaustive(*split_input(list(range(n)), g, pulls, "V", areas))
        cost_a = {t: pulls.right.get(t, 0) for t in range(n)}
        cost_b = {t: pulls.left.get(t, 0) for t in range(n)}
        want = best_bipartition(range(n), g.edges, areas, cost_a, cost_b)
        assert (got.part_a, got.part_b) == (want[0], want[1])


def two_cliques(size=10, bridge=1.0):
    """Two dense groups joined by one weak edge; optimal cut = bridge."""

    edges = []
    for base in (0, size):
        for i in range(base, base + size):
            for j in range(i + 1, base + size):
                edges.append((i, j, 2.0))
    edges.append((size - 1, size, bridge))
    return RelationGraph(edges)


def test_fm_finds_the_bridge_cut():
    g = two_cliques()
    part = bipartition_fm(*split_input(list(range(20)), g), seed=0)
    assert cut_weight(g, part) == 1.0
    assert sorted(part.part_a) in ([*range(10)], [*range(10, 20)])
    assert len(part.runs) == 10


def fm_reference_cases():
    """Seeded FM inputs: 13-80 tags drawn from a larger graph, integer
    or fractional strengths (or none), pulls on either axis, unit or
    random areas; then dense groups where many moves are illegal; then
    groups with one tag of about 40% of the area.  The test does not use
    the last field; the first two families draw it, kept so that each
    case and its id stay fixed."""

    rng = random.Random(0xB0C7)
    for case in range(60):
        n = rng.randint(13, 80)
        universe = n + rng.randint(0, 20)
        tags = sorted(rng.sample(range(universe), n))
        if case % 4 == 0:
            g = RelationGraph()  # every gain starts at 0 or a pure pull
        else:
            fractional = case % 4 == 3
            edges = [(i, j, round(rng.uniform(0.1, 4), 3) if fractional else rng.randint(1, 9))
                     for i in range(universe) for j in range(i + 1, universe)
                     if rng.random() < 6 / universe]
            g = RelationGraph(edges) if edges else RelationGraph()
        axis = rng.choice("VH")
        pulls = Pulls(**{side: {t: rng.choice([1, 2, 0.5]) for t in tags if rng.random() < 0.15}
                         for side in SIDES if rng.random() < 0.5})
        areas = ({t: 1 for t in tags} if case % 3 == 0
                 else {t: rng.randint(1, 30) for t in tags})
        yield case, tags, g, pulls, axis, areas, rng.choice([1, 3, 10])

    # Dense and complete graphs on 13-40 tags with one dominant tag area.
    # Moving tags to one side keeps cutting less, so the top-gain move
    # often breaks the area rule, or would empty a side holding only the
    # dominant tag, and its entry has to wait for a later move.
    rng = random.Random(0xD3E5)
    for case in range(60, 90):
        n = 13 if case % 3 == 0 else rng.randint(13, 40)
        tags = sorted(rng.sample(range(n + 10), n))
        density = 1.0 if case % 2 == 0 else 0.6
        fractional = case % 4 >= 2
        g = RelationGraph(
            (i, j, round(rng.uniform(0.1, 4), 3) if fractional else rng.randint(1, 9))
            for k, i in enumerate(tags) for j in tags[k + 1:] if rng.random() < density)
        areas = {t: rng.randint(1, 6) for t in tags}
        areas[rng.choice(tags)] = sum(areas.values()) if case % 3 == 0 else rng.randint(8, 30)
        axis = rng.choice("VH")
        pulls = Pulls(**{side: {t: rng.choice([1, 3, 0.5]) for t in tags if rng.random() < 0.2}
                         for side in SIDES if rng.random() < 0.3})
        yield case, tags, g, pulls, axis, areas, rng.choice([1, 3, 10])

    # Groups of 13-60 tags where one tag holds about 40% of the area and
    # strengths are 1 or 2, so gains tie often.  The big tag may move
    # only off the heavier side, and never off a side it holds alone, so
    # its entry is often held aside while stale entries pile up, and the
    # heap is rebuilt from the live keys between its tries.
    rng = random.Random(0x40A5)
    for case in range(90, 110):
        n = rng.randint(13, 60)
        tags = sorted(rng.sample(range(n + 10), n))
        g = RelationGraph((i, j, rng.choice([1, 1, 2]))
                          for k, i in enumerate(tags) for j in tags[k + 1:]
                          if rng.random() < 0.5)
        areas = {t: rng.randint(1, 3) for t in tags}
        areas[rng.choice(tags)] = sum(areas.values()) * 2 // 3
        axis = rng.choice("VH")
        pulls = Pulls(**{side: {t: 1 for t in tags if rng.random() < 0.2}
                         for side in SIDES if rng.random() < 0.3})
        yield case, tags, g, pulls, axis, areas, DEFAULT_FM_RUNS


def assert_fm_matches_reference(tags, g, pulls, axis, areas, seed):
    """Same parts, cut weight and per-run pass counts as the sorted-scan FM."""

    toward_b, toward_a = ((pulls.right, pulls.left) if axis == "V"
                          else (pulls.bottom, pulls.top))
    cost_a = {t: float(toward_b.get(t, 0)) for t in tags}
    cost_b = {t: float(toward_a.get(t, 0)) for t in tags}
    want = fm_bipartition(tags, g.edges, areas, cost_a, cost_b, DEFAULT_FM_RUNS, seed=seed)
    got = bipartition_fm(*split_input(tags, g, pulls, axis, areas), seed=seed)
    assert (got.part_a, got.part_b, cut_weight(g, got)) == want[:3]
    assert tuple(r.passes for r in got.runs) == want[3]


@pytest.mark.parametrize("case, tags, g, pulls, axis, areas, runs", list(fm_reference_cases()))
def test_fm_matches_sorted_scan_reference(case, tags, g, pulls, axis, areas, runs):
    assert_fm_matches_reference(tags, g, pulls, axis, areas, seed=case)


def fm_huge_strength_cases():
    """Groups of 13-40 tags whose strengths nearly use up
    ``MAX_TOTAL_STRENGTH``: most edges carry about MAX / E, a few small
    ones sit beside them, and pulls are as large.  Integer-valued cases
    keep a scale of 1; in fractional ones an edge of 0.5 scales every
    strength by 1000, so the heap keys reach about 1e300 and beyond.
    The last field is a draw the test does not use, kept so that each
    case and its id stay fixed."""

    rng = random.Random(0x81C5)
    for case in range(16):
        fractional = case % 2 == 1
        n = 13 if case % 4 == 0 else rng.randint(13, 40)
        tags = sorted(rng.sample(range(n + 10), n))
        pairs = [(i, j) for k, i in enumerate(tags) for j in tags[k + 1:]
                 if rng.random() < 0.4]
        cap = MAX_TOTAL_STRENGTH / (len(pairs) + 2 * n)
        edges = [(i, j, cap * rng.uniform(0.5, 0.99) if rng.random() < 0.8
                  else round(rng.uniform(0.1, 4), 3) if fractional else rng.randint(1, 9))
                 for i, j in pairs]
        if fractional:
            edges[0] = (*pairs[0], 0.5)
        g = RelationGraph(edges)
        axis = rng.choice("VH")
        pulls = Pulls(**{side: {t: rng.choice([cap * 0.75, cap, 3, 0.5 if fractional else 1])
                                for t in tags if rng.random() < 0.2}
                         for side in SIDES if rng.random() < 0.5})
        areas = {t: rng.randint(1, 9) for t in tags}
        yield case, fractional, tags, g, pulls, axis, areas, rng.choice([1, 3, 10])


@pytest.mark.parametrize("case, fractional, tags, g, pulls, axis, areas, runs",
                         list(fm_huge_strength_cases()))
def test_fm_matches_reference_at_huge_strengths(case, fractional, tags, g, pulls, axis,
                                                 areas, runs):
    assert max(s for _, _, s in g.edges) > 1e296
    assert any(not float(s).is_integer() for _, _, s in g.edges) == fractional
    assert_fm_matches_reference(tags, g, pulls, axis, areas, seed=case)


def fm_converging_cases():
    """Small dense groups of 13-20 tags with areas of 1-3, integer or
    fractional strengths, with and without pulls: ten runs of such a
    split keep meeting the same pass-start sides."""

    rng = random.Random(0x5EC0)
    for case in range(8):
        n = rng.randint(13, 20)
        tags = sorted(rng.sample(range(n + 5), n))
        fractional = case % 2 == 1
        g = RelationGraph(
            (i, j, round(rng.uniform(0.1, 4), 3) if fractional else rng.randint(1, 9))
            for k, i in enumerate(tags) for j in tags[k + 1:] if rng.random() < 0.9)
        pulls = Pulls(**{side: {t: rng.choice([1, 3, 0.5]) for t in tags if rng.random() < 0.3}
                         for side in SIDES if case % 4 >= 2})
        areas = {t: rng.randint(1, 3) for t in tags}
        yield case, tags, g, pulls, rng.choice("VH"), areas


@pytest.mark.parametrize("case, tags, g, pulls, axis, areas", list(fm_converging_cases()))
def test_fm_recalls_converged_runs_exactly(monkeypatch, case, tags, g, pulls, axis, areas):
    executed = []  # heapify runs once per pass that is worked out
    heapify = mincut.heapq.heapify
    monkeypatch.setattr(mincut.heapq, "heapify",
                        lambda heap: executed.append(1) or heapify(heap))
    assert_fm_matches_reference(tags, g, pulls, axis, areas, seed=case)
    executed.clear()
    part = bipartition_fm(*split_input(tags, g, pulls, axis, areas), seed=case)
    assert 0 < len(executed) < sum(r.passes for r in part.runs)


def fm_edge_free_cases():
    """Seeded edge-free FM inputs of 13-400 tags, each with a pull kind:
    none, the same pull toward both sides of the cut axis, a pull
    toward one side only, or pulls on the other axis only.  The last
    field is a draw the test does not use, kept so that each case and
    its id stay fixed."""

    rng = random.Random(0x2E50)
    kinds = ("none", "symmetric", "one-sided", "other-axis")
    for case in range(24):
        kind = kinds[case % 4]
        n = rng.choice([13, 14, 40, 120, 400]) if case < 20 else 400
        tags = sorted(rng.sample(range(n + 30), n))
        axis = rng.choice("VH")
        cut_sides, other_sides = ("left", "right"), ("top", "bottom")
        if axis == "H":
            cut_sides, other_sides = other_sides, cut_sides
        pulled = [t for t in tags if rng.random() < 0.2] or tags[:1]
        weights = {t: rng.choice([1, 2, 0.5]) for t in pulled}
        if kind == "none":
            pulls = Pulls()
        elif kind == "symmetric":
            pulls = Pulls(**{side: dict(weights) for side in cut_sides})
        elif kind == "one-sided":
            pulls = Pulls(**{rng.choice(cut_sides): weights})
        else:
            pulls = Pulls(**{side: dict(weights) for side in other_sides})
        areas = ({t: 1 for t in tags} if case // 4 % 2 == 0
                 else {t: rng.randint(1, 30) for t in tags})
        yield case, kind, tags, pulls, axis, areas, rng.choice([1, 3, 10])
    # A pull below 1/1000 differs from none in the raw costs but scales
    # to 0 before the splitter sees it, so the shortcut takes it.
    tags = list(range(3, 43))
    yield (24, "one-sided", tags, Pulls(right={t: 0.0004 for t in tags[::3]}), "V",
           {t: 1 + t % 7 for t in tags}, 1)


@pytest.mark.parametrize("case, kind, tags, pulls, axis, areas, runs",
                         list(fm_edge_free_cases()))
def test_fm_zero_gain_shortcut_matches_reference(monkeypatch, case, kind, tags, pulls,
                                                 axis, areas, runs):
    refined = []
    refine = mincut._fm_refine
    monkeypatch.setattr(mincut, "_fm_refine",
                        lambda *args: refined.append(1) or refine(*args))
    assert_fm_matches_reference(tags, RelationGraph(), pulls, axis, areas, seed=case)
    # only a one-sided pull makes the scaled costs differ and needs refinement
    assert bool(refined) == (kind == "one-sided" and case < 24)


def test_exhaustive_matches_reference_across_sizes():
    rng = random.Random(0xB175)
    for n in (12, 2, 7, 12):
        g = random_graph(rng, n, density=0.3)
        areas = {t: rng.randint(1, 9) for t in range(n)}
        pulls = Pulls(right={t: rng.randint(1, 3) for t in range(n) if rng.random() < 0.3})
        got = bipartition_exhaustive(*split_input(list(range(n)), g, pulls, "V", areas))
        want = best_bipartition(range(n), g.edges, areas,
                                {t: pulls.right.get(t, 0) for t in range(n)})
        assert (got.part_a, got.part_b, cut_weight(g, got), got.relaxed) == want


def exhaustive_edge_free_cases():
    """Edge-free groups of 2-12 tags with unit areas, random areas or one
    dominant tag (no balanced split, so relaxed); axis V or H."""

    rng = random.Random(0x2E0B)
    for n in range(2, EXHAUSTIVE_LIMIT + 1):
        for area_kind in ("unit", "random", "dominant"):
            tags = sorted(rng.sample(range(n + 8), n))
            if area_kind == "unit":
                areas = {t: 1 for t in tags}
            else:
                areas = {t: rng.randint(1, 9) for t in tags}
                if area_kind == "dominant":
                    areas[rng.choice(tags)] = 20 * n
            yield f"{n}-{area_kind}", n, area_kind, tags, areas, rng.choice("VH")


@pytest.mark.parametrize("case, n, area_kind, tags, areas, axis",
                         list(exhaustive_edge_free_cases()))
def test_exhaustive_zero_objective_matches_reference(monkeypatch, case, n, area_kind, tags,
                                                     areas, axis):
    searched = []
    search = mincut._best_in_pool
    monkeypatch.setattr(mincut, "_best_in_pool",
                        lambda *args: searched.append(1) or search(*args))
    rng = random.Random(n)
    cut_sides, other_sides = ("left", "right"), ("top", "bottom")
    if axis == "H":
        cut_sides, other_sides = other_sides, cut_sides
    pulled = [t for t in tags if rng.random() < 0.5] or tags[:1]
    weights = {t: rng.choice([1, 2, 0.5]) for t in pulled}
    for kind, pulls in (
            ("none", Pulls()),
            ("other-axis", Pulls(**{side: dict(weights) for side in other_sides})),
            ("symmetric", Pulls(**{side: dict(weights) for side in cut_sides})),
            ("one-sided", Pulls(**{cut_sides[n % 2]: weights}))):
        searched.clear()
        got = bipartition_exhaustive(*split_input(tags, RelationGraph(), pulls, axis, areas))
        toward_b, toward_a = ((pulls.right, pulls.left) if axis == "V"
                              else (pulls.bottom, pulls.top))
        want = best_bipartition(tags, (), areas,
                                {t: toward_b.get(t, 0) for t in tags},
                                {t: toward_a.get(t, 0) for t in tags})
        assert (got.part_a, got.part_b, cut_weight(RelationGraph(), got),
                got.relaxed) == want, kind
        assert got.relaxed == (area_kind == "dominant")
        # only a one-sided pull makes the objective differ between vectors
        assert bool(searched) == (kind == "one-sided"), kind


def equal_pulls(kind, tags, axis, weights):
    """Pulls that leave every tag's cost the same in part A and part B:
    none, the same pull toward both sides of the cut axis, or pulls on
    the other axis only."""

    cut_sides, other_sides = ("left", "right"), ("top", "bottom")
    if axis == "H":
        cut_sides, other_sides = other_sides, cut_sides
    pulled = dict(zip(tags, weights))
    if kind == "none":
        return Pulls()
    return Pulls(**{side: pulled for side in (cut_sides if kind == "symmetric"
                                              else other_sides)})


def no_search(area, *terms):
    raise AssertionError(f"an edge-free split searched its {len(area)}-tag pool")


@given(areas=st.lists(st.integers(1, 60) | st.integers(1, 1 << 48),
                      min_size=2, max_size=EXHAUSTIVE_LIMIT),
       first=st.integers(0, 20), axis=st.sampled_from("VH"),
       kind=st.sampled_from(("none", "symmetric", "other-axis")),
       weights=st.lists(st.sampled_from((1, 2, 0.5)), max_size=EXHAUSTIVE_LIMIT))
@example(areas=[90, 5, 5, 5], first=0, axis="V", kind="none", weights=[])  # dominant first
@example(areas=[5, 5, 90, 5], first=3, axis="H", kind="none", weights=[])  # dominant later
@example(areas=[7, 7], first=0, axis="V", kind="none", weights=[])
@example(areas=[2, 6, 1], first=0, axis="V", kind="none", weights=[])  # 3L = 2T: balanced
@example(areas=[1] * EXHAUSTIVE_LIMIT, first=1, axis="H", kind="symmetric", weights=[2, 0.5])
@example(areas=[3, 9, 4, 4, 8], first=2, axis="V", kind="other-axis", weights=[1, 2, 1])
@settings(max_examples=60, deadline=None)
def test_edge_free_exhaustive_needs_no_enumeration(areas, first, axis, kind, weights):
    tags = list(range(first, first + 2 * len(areas), 2))
    area_of = dict(zip(tags, areas))
    pulls = equal_pulls(kind, tags, axis, weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mincut, "_best_in_pool", no_search)
        got = bipartition(tags[::-1], RelationGraph(), pulls, axis, area_of)
    toward_b, toward_a = ((pulls.right, pulls.left) if axis == "V"
                          else (pulls.bottom, pulls.top))
    want = best_bipartition(tags, (), area_of, {t: toward_b.get(t, 0) for t in tags},
                            {t: toward_a.get(t, 0) for t in tags})
    assert (got.part_a, got.part_b, cut_weight(RelationGraph(), got), got.relaxed) == want


def test_exhaustive_retry_and_twin_groups_add_their_own_pulls():
    """A group split V, then H, then H again, then a twin group with the
    same local edges split twice: the five objectives share the edge
    part, and each split must add its own pulls, so any reuse of the
    objective across calls keeps the pull terms out of it.  The pulls
    put the group's first two tags on alternating sides, so a pull term
    carried over from the split before lands them on the wrong side."""

    rng = random.Random(0x5A4E)
    for n in (6, 9, EXHAUSTIVE_LIMIT):
        local = [(i, j, rng.randint(1, 4)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        offset = 100
        g = RelationGraph(local + [(i + offset, j + offset, s)
                                              for i, j, s in local])
        group, twin = list(range(n)), [t + offset for t in range(n)]
        areas = {t: rng.randint(1, 5) for t in group + twin}
        strong = sum(s for _, _, s in local) + 1  # outweighs any cut
        for tags, side, axis, in_b in ((group, "right", "V", True),
                                       (group, "top", "H", False),
                                       (group, "bottom", "H", True),
                                       (twin, "left", "V", False),
                                       (twin, "bottom", "H", True)):
            pulls = Pulls(**{side: {tags[0]: strong, tags[1]: strong}})
            got = bipartition_exhaustive(*split_input(tags, g, pulls, axis, areas))
            toward_b, toward_a = ((pulls.right, pulls.left) if axis == "V"
                                  else (pulls.bottom, pulls.top))
            want = best_bipartition(tags, g.edges, areas,
                                    {t: toward_b.get(t, 0) for t in tags},
                                    {t: toward_a.get(t, 0) for t in tags})
            assert (got.part_a, got.part_b, cut_weight(g, got), got.relaxed) == want
            assert set(tags[:2]) <= set(got.part_b if in_b else got.part_a)


def test_fm_runs_never_worsen_their_start():
    rng = random.Random(0x5EED)
    for trial in range(10):
        n = rng.randint(13, 24)
        g = random_graph(rng, n, density=0.3)
        part = bipartition_fm(*split_input(list(range(n)), g), seed=trial)
        starts = random.Random(trial)  # replays each run's start, in run order
        for run in part.runs:
            start, _, _ = mincut._fm_start(starts, [1] * n)
            assert cut_weight(g, part) <= sum(s for i, j, s in g.edges if start[i] != start[j])
            assert run.passes >= 1
        # both sides populated, all tags used
        assert len(part.part_a) + len(part.part_b) == n
        assert part.part_a and part.part_b
        assert abs(len(part.part_a) - len(part.part_b)) <= 1  # unit areas


def lighter_side_start(order, area):
    """Each tag in ``order`` to the side with less area so far, ties to
    part A: the side list and the per-side areas and counts."""

    side, area_side, count_side = [0] * len(area), [0, 0], [0, 0]
    for t in order:
        dest = 0 if area_side[0] <= area_side[1] else 1
        side[t] = dest
        area_side[dest] += area[t]
        count_side[dest] += 1
    return side, area_side, count_side


@pytest.mark.parametrize("seed", [0, 1, 12345, (1 << 64) - 1])
def test_fm_start_deals_random_shuffles_order(seed):
    for n in range(1, 301):
        uneven = random.Random(n).choices(range(1, 60), k=n)
        for area in ([1] * n, uneven):
            order = list(range(n))
            shuffled = random.Random(seed + n)
            shuffled.shuffle(order)
            rng = random.Random(seed + n)
            assert mincut._fm_start(rng, area) == lighter_side_start(order, area)
            assert rng.getrandbits(64) == shuffled.getrandbits(64)  # the next start's draw


def test_fm_respects_area_balance():
    rng = random.Random(0xA5)
    for trial in range(8):
        n = rng.randint(13, 20)
        g = random_graph(rng, n, density=0.4)
        areas = {t: rng.randint(1, 9) for t in range(n)}
        part = bipartition_fm(*split_input(list(range(n)), g, areas=areas), seed=trial)
        s_max = max(areas.values())
        area_a = sum(areas[t] for t in part.part_a)
        area_b = sum(areas[t] for t in part.part_b)
        assert abs(area_a - area_b) <= s_max


def test_fm_handles_fractional_strengths():
    g = RelationGraph(
        [(i, j, 0.5) for i in range(14) for j in range(i + 1, 14)])
    part = bipartition_fm(*split_input(list(range(14)), g), seed=1)
    assert len(part.part_a) == 7


def test_dispatcher_picks_by_size():
    g = two_cliques(size=7)  # 14 tags > exhaustive limit
    part = bipartition(list(range(14)), g, seed=2)
    assert part.runs  # refinement ran
    small = bipartition(list(range(4)), RelationGraph([(0, 1, 1)]))
    assert not small.runs  # enumeration has no run stats
    assert EXHAUSTIVE_LIMIT == 12


def test_build_slicing_tree_covers_every_tag():
    rng = random.Random(1)
    cloud = make_cloud(rng, 17, target=420)
    g = random_graph(rng, 17, density=0.25)
    tree = build_slicing_tree(cloud, g, seed=5)
    assert sorted(leaves(tree)) == list(range(17))


def test_build_slicing_tree_is_deterministic():
    rng = random.Random(2)
    cloud = make_cloud(rng, 15, target=420)
    g = random_graph(rng, 15, density=0.3)
    assert build_slicing_tree(cloud, g, seed=9) == build_slicing_tree(cloud, g, seed=9)


def test_build_slicing_tree_orientation_follows_region_shape():
    # two tags, each 100x10: the 550-wide root region is much wider
    # than tall and both 275px shares hold a 100px tag, so the first
    # cut is vertical
    cloud = Cloud(tags=(TagBox("a", 1, 100, 10), TagBox("b", 1, 100, 10)),
                  target_width=550)
    tree = build_slicing_tree(cloud)
    assert isinstance(tree, Cut) and tree.orient == "V"
    # squeeze the width estimate below the height and the cut flips
    tall = build_slicing_tree(cloud, width_bias=0.02)
    assert tall.orient == "H"


def test_build_slicing_tree_narrow_region_avoids_vertical_cut():
    # region wider than tall, but a vertical split cannot give the wide
    # tag its width share, so the cut falls back to horizontal
    cloud = Cloud(tags=(TagBox("wide", 1, 500, 10), TagBox("w2", 1, 500, 10)),
                  target_width=550)
    tree = build_slicing_tree(cloud)
    assert tree.orient == "H"


def test_build_slicing_tree_validates():
    with pytest.raises(InvalidInputError):
        build_slicing_tree(Cloud(tags=(TagBox("a", 1, 10, 10),), target_width=0))
    ok = Cloud(tags=(TagBox("a", 1, 10, 10), TagBox("b", 1, 10, 10)), target_width=100)
    with pytest.raises(InvalidInputError):
        build_slicing_tree(ok, RelationGraph(edges=((0, 7, 1.0),)))
    with pytest.raises(InvalidInputError):
        build_slicing_tree(ok, width_bias=0.0)


@pytest.mark.parametrize("bias", [0.0, float("nan"), float("inf")])
def test_width_bias_must_be_positive_and_finite(bias):
    # NaN once cut every region H, and inf every region V.
    ok = Cloud(tags=(TagBox("a", 1, 10, 10), TagBox("b", 1, 10, 10)), target_width=100)
    with pytest.raises(InvalidInputError) as exc:
        build_slicing_tree(ok, width_bias=bias)
    assert str(exc.value) == f"width_bias must be positive and finite, got {bias}"



@pytest.mark.parametrize("bias, message", [
    ("x", "width_bias must be a number, got str"),
    (None, "width_bias must be a number, got NoneType"),
    (True, "width_bias must be a number, got bool"),  # was taken as 1.0
    pytest.param(10 ** 400, f"width_bias must be positive and finite, got 1{'0' * 39}…",
                 id="past-float"),
    pytest.param(-10 ** 5000, "width_bias must be positive and finite, got -<16610-bit int>",
                 id="past-str"),
])
def test_width_bias_must_be_a_number(bias, message):
    ok = Cloud(tags=(TagBox("a", 1, 10, 10), TagBox("b", 1, 10, 10)), target_width=100)
    with pytest.raises(InvalidInputError) as exc:
        build_slicing_tree(ok, width_bias=bias)
    assert str(exc.value) == message


@pytest.mark.parametrize("variants, kind", [(True, "bool"), (3.0, "float"), ("3", "str")])
def test_shape_variants_must_be_an_integer(variants, kind):
    # True was taken as one variant
    ok = Cloud(tags=(TagBox("a", 1, 10, 10), TagBox("b", 1, 10, 10)), target_width=100)
    with pytest.raises(InvalidInputError) as exc:
        layout_mincut(ok, shape_variants=variants)
    assert str(exc.value) == f"variants must be an integer, got {kind}"

def slicing_tree_cases():
    """Seeded clouds: graph-free random clouds and topic clouds with
    graphs, at narrow to wide targets and several width biases, then
    three fixed cases.  The trees split with ``DEFAULT_FM_RUNS``; the
    last field is a draw the test does not use, kept so that each case
    and its id stay fixed."""

    rng = random.Random(0x7EE5)
    for case in range(24):
        bias = rng.choice([0.5, 0.85, 1.0, 1.3, 2.0])
        runs = rng.randint(1, 3)
        if case % 2 == 0:
            cloud = random_cloud(case, rng.choice([13, 30, 80, 200]))
            graph = None
        else:
            cloud, graph = topic_cloud(case, k=rng.choice([20, 40, 80]))
        widest = max(t.width for t in cloud.tags)
        width = rng.choice([widest * 4 // 5, widest + 20, 300, 550, 900])
        cloud = Cloud(tags=cloud.tags, target_width=width)
        yield f"{case}-{'topic' if graph else 'random'}", cloud, graph, case, bias, runs
    # The vertical FM split of this root is accepted at exactly its
    # bound: 13 tags of equal area, so the halves hold 7 and 6 of them,
    # and the wide tag in the larger half gets 130 * 7/13 = 70 px.
    boundary = Cloud(tags=(TagBox("wide", 1, 70, 12),)
                     + tuple(TagBox(f"n{i}", 1, 20, 42) for i in range(12)),
                     target_width=130)
    yield "fm-bound", boundary, None, 0, 1.0, 1
    # A few edges touching a few tags: the root and most groups have no
    # pull, yet the groups holding an edge read the sides that the
    # splits above them wrote.
    few = RelationGraph([(3, 41, 2), (3, 70, 1), (12, 41, 0.5), (55, 70, 4)])
    yield "few-edges", random_cloud(5, 80), few, 5, 1.0, 1
    # An explicit empty graph, not None: no pulls and no sides.
    yield "empty-graph", random_cloud(6, 80), RelationGraph(), 6, 1.0, 1
    # Tall, narrow regions on a graph with edges: many groups, small ones
    # among them, whose vertical split cannot fit are never split that way.
    cloud, graph = topic_cloud(7, k=60)
    narrow = Cloud(tags=cloud.tags, target_width=max(t.width for t in cloud.tags) + 10)
    yield "tall-edged", narrow, graph, 7, 0.85, 1


@pytest.mark.parametrize("case, cloud, graph, seed, bias, runs",
                         list(slicing_tree_cases()))
def test_slicing_tree_matches_reference(case, cloud, graph, seed, bias, runs):
    got = build_slicing_tree(cloud, graph, seed=seed, width_bias=bias)
    assert got == slicing_tree_reference(cloud, graph, seed=seed, width_bias=bias)
    if case == "fm-bound":
        assert got.orient == "V"


@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32), target=st.sampled_from([150, 300, 550]),
       edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(1, 5000)),
                      min_size=1, max_size=120),
       bias=st.floats(1e-6, 1e6))
@settings(max_examples=60, deadline=None)
def test_slicing_tree_matches_reference_on_thousandths(n, seed, target, edges, bias):
    # Strengths in thousandths round alike per strength and per pull sum.
    edges = [(i % n, j % n, k / 1000) for i, j, k in edges if i % n != j % n]
    if not edges:
        edges = [(0, 1, 0.001)]
    cloud = make_cloud(random.Random(seed), n, target=target)
    graph = RelationGraph(edges)
    got = build_slicing_tree(cloud, graph, seed=seed, width_bias=bias)
    assert got == slicing_tree_reference(cloud, graph, seed=seed, width_bias=bias)


def test_pulls_finer_than_thousandths_round_each_strength():
    """The tree rounds each strength to thousandths, then sums: the two
    0.0004 edges from tag 0 across the root cut pull it right by 0 + 0,
    so its group splits as if unpulled.  ``bipartition``, handed their
    sum 0.0008 as a pull, rounds it to one thousandth, which moves tag 0
    to the right-hand part."""

    cloud = Cloud(tags=tuple(TagBox(f"t{i}", 1, 100, 10) for i in range(4)),
                  target_width=550)
    g = RelationGraph([(0, 1, 5.0), (0, 2, 0.0004), (0, 3, 0.0004), (2, 3, 5.0)])
    right_half = Cut("V", Leaf(2), Leaf(3))
    assert build_slicing_tree(cloud, g) == Cut("V", Cut("V", Leaf(0), Leaf(1)), right_half)
    assert slicing_tree_reference(cloud, g) == Cut("V", Cut("V", Leaf(1), Leaf(0)), right_half)


def cut_orients(tree):
    """Each cut's orientation, keyed by the set of tags under it."""

    out, stack = {}, [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Cut):
            out[frozenset(leaves(node))] = node.orient
            stack += (node.first, node.second)
    return out


def test_doomed_vertical_splits_are_never_run(monkeypatch):
    events = []  # ("bound", arguments, verdict) and ("split", group), in call order
    doomed = mincut._vertical_doomed

    def recording_doomed(*args):
        events.append(("bound", args, doomed(*args)))
        return events[-1][2]

    def recording(split):
        def recording_split(tags, *args, **seed):
            events.append(("split", tuple(tags)))
            return split(tags, *args, **seed)
        return recording_split

    monkeypatch.setattr(mincut, "_vertical_doomed", recording_doomed)
    for name in ("bipartition_exhaustive", "bipartition_fm"):
        monkeypatch.setattr(mincut, name, recording(getattr(mincut, name)))
    skipped = 0  # vertical enumerations not run
    for seed, k, width in ((1, 40, 300), (6, 100, 250)):
        cloud, graph = topic_cloud(seed, k=k, target_width=width)
        areas = [t.area() for t in cloud.tags]
        widths = [t.width for t in cloud.tags]
        events.clear()
        tree = build_slicing_tree(cloud, graph, seed=seed)
        made = events[:]  # the reference's splits go through the wrapped splitters too
        assert tree == slicing_tree_reference(cloud, graph, seed=seed)
        orient = cut_orients(tree)
        bounded = {}  # each bounded group's verdict
        for k, event in enumerate(made):
            if event[0] == "bound":
                (est_w, total, most, w_max), verdict = event[1:]
                kind, group = made[k + 1]  # the next split is of the bounded group
                assert kind == "split" and group not in bounded
                bounded[group] = verdict
                largest = max(areas[t] for t in group)
                assert (total, w_max) == (sum(areas[t] for t in group),
                                          max(widths[t] for t in group))
                assert most == ((total + largest) // 2 if len(group) > EXHAUSTIVE_LIMIT
                                else max(2 * total // 3, largest))
                skipped += verdict and len(group) <= EXHAUSTIVE_LIMIT
        # On a graph with edges every vertical split is bounded first: a
        # group split twice (vertical, then horizontal) or cut vertically
        # passed its bound, and a doomed group is split once, horizontally.
        splits = [event[1] for event in made if event[0] == "split"]
        for group in set(splits):
            if splits.count(group) > 1 or orient[frozenset(group)] == "V":
                assert bounded.get(group) is False, group
            if bounded.get(group):
                assert splits.count(group) == 1 and orient[frozenset(group)] == "H"
    assert skipped > 0


def test_layout_mincut_produces_disjoint_placements():
    rng = random.Random(3)
    for trial in range(5):
        cloud = make_cloud(rng, rng.randint(2, 30), target=500,
                           w_range=(12, 160), h_range=(12, 50))
        g = random_graph(rng, len(cloud.tags), density=0.2)
        result = layout_mincut(cloud, g, seed=trial)
        each_tag_once(result.placed, len(cloud.tags))
        no_overlap(result.placed)
        inside_bbox(result.placed)
        assert 1 <= result.iterations <= 8


def mincut_attempt_cases():
    """Clouds whose attempt choice each show a different part of the
    rule: (case, cloud, seed)."""

    # Breaks on its third attempt, the one fitting attempt of the widest width.
    yield "fits", dataclasses.replace(random_cloud(0, 8), target_width=320), 0
    # All 8 attempts run; five fit at one width with different layouts.
    yield "fits-after-every-retry", dataclasses.replace(random_cloud(41, 15),
                                                        target_width=240), 41
    # A target below the widest tag: every attempt overflows, all at one
    # width with 8 different layouts.
    cloud = random_cloud(0, 30)
    widest = max(t.width for t in cloud.tags)
    yield "misses", dataclasses.replace(cloud, target_width=widest * 4 // 5), 0


@pytest.mark.parametrize("case, cloud, seed", list(mincut_attempt_cases()))
def test_layout_mincut_returns_the_widest_fitting_attempt(case, cloud, seed):
    placed, tree, widths = mincut_attempts_reference(cloud, seed=seed)
    got = layout_mincut(cloud, seed=seed)
    assert (got.placed, got.tree, got.iterations) == (placed, tree, len(widths))
    target = cloud.target_width
    fitting = [w for w in widths if w <= target]
    if case == "fits":
        assert len(widths) == 3 and widths[-1] > min(widths)
    elif case == "fits-after-every-retry":
        assert len(widths) == MAX_WIDTH_RETRIES and fitting.count(max(fitting)) > 1
    else:
        assert len(widths) == MAX_WIDTH_RETRIES and not fitting


def width_floor(cloud, shape_variants=3):
    """The widest of the tags' narrowest leaf shapes: no root is narrower."""

    return max(s[0][0] for s in default_leaf_shapes(cloud, shape_variants).values())


def floor_cases():
    """Edge-free and edged clouds of 2 to 150 tags, for targets at and
    below the width floor: (cloud, graph, seed)."""

    for n in (2, 3, 9, 14, 40, 150):
        yield random_cloud(n, n), None, n
    for k in (4, 12, 30, 90):
        yield (*topic_cloud(k, k=k, length=3000), k)


@pytest.mark.parametrize("variants", [1, 3])
@pytest.mark.parametrize("fraction", [0.5, 0.95, 1])
@pytest.mark.parametrize("cloud, graph, seed", list(floor_cases()))
def test_layout_at_or_below_the_floor_matches_every_attempt_replayed(cloud, graph, seed,
                                                                     fraction, variants):
    # A target of exactly the floor can fit, so the loop must not stop there.
    target = max(1, int(width_floor(cloud, variants) * fraction))
    cloud = dataclasses.replace(cloud, target_width=target)
    placed, tree, widths = mincut_attempts_reference(cloud, graph, seed, variants)
    got = layout_mincut(cloud, graph, seed=seed, shape_variants=variants)
    assert (got.placed, got.tree, got.iterations) == (placed, tree, len(widths))
    if fraction < 1:
        assert len(widths) == MAX_WIDTH_RETRIES and min(widths) > target


def trusted_input_cases():
    """Clouds with and without edges, some at a target below the width
    floor: (case, cloud, graph, seed)."""

    cloud, graph = topic_cloud(2, k=80)
    yield "topic-edged", cloud, graph, 2
    yield "topic-edge-free", cloud, None, 2
    below = dataclasses.replace(cloud, target_width=max(1, width_floor(cloud) // 2))
    yield "topic-below-floor", below, graph, 2
    cloud = random_cloud(3, 150)
    yield "random", cloud, None, 3
    below = dataclasses.replace(cloud, target_width=max(1, width_floor(cloud) // 2))
    yield "random-below-floor", below, None, 3


@pytest.mark.parametrize("case, cloud, graph, seed", list(trusted_input_cases()))
def test_splitters_get_only_what_they_trust(monkeypatch, case, cloud, graph, seed):
    """The splitters check nothing, so every call the tree makes must
    already hold what ``bipartition`` would check, in the form it would
    prepare: areas, local edges and costs as ints."""

    calls = {"bipartition_exhaustive": 0, "bipartition_fm": 0}
    areas = [t.area() for t in cloud.tags]

    def trusting(name, split):
        def checked_split(tags, area, edges, cost_a, cost_b, **seed):
            calls[name] += 1
            assert type(tags) is tuple and list(tags) == sorted(set(tags))
            assert len(tags) >= 2 and all(type(t) is int for t in tags) and tags[0] >= 0
            assert (len(tags) > EXHAUSTIVE_LIMIT) == (name == "bipartition_fm")
            assert list(area) == [areas[t] for t in tags]
            assert all(type(a) is int and a >= 1 for a in area)
            # the graph's strengths are whole, so a scale of 1 per group or per tree
            assert list(edges) == split_input(tags, graph)[2]
            assert len(cost_a) == len(cost_b) == len(tags)
            assert all(type(c) is int and c >= 0 for c in (*cost_a, *cost_b))
            assert list(seed) == (["seed"] if name == "bipartition_fm" else [])
            assert all(type(s) is int for s in seed.values())
            return split(tags, area, edges, cost_a, cost_b, **seed)
        return checked_split

    for name in calls:
        monkeypatch.setattr(mincut, name, trusting(name, getattr(mincut, name)))
    layout_mincut(cloud, graph, seed=seed)
    assert all(calls.values()), calls


def counting(monkeypatch, module, make_tree=None):
    """Wrap ``module.build_slicing_tree``; ``make_tree(k, real tree)``
    may replace the tree of call k.  Returns the list of calls' trees."""

    real = module.build_slicing_tree
    built = []

    def wrapper(cloud, graph=None, seed=0, width_bias=1.0):
        tree = real(cloud, graph, seed=seed, width_bias=width_bias)
        built.append(make_tree(len(built), tree) if make_tree else tree)
        return built[-1]

    monkeypatch.setattr(module, "build_slicing_tree", wrapper)
    return built


def test_an_attempt_at_the_floor_ends_the_loop(monkeypatch):
    (case, cloud, seed), = [c for c in mincut_attempt_cases() if c[0] == "misses"]
    built = counting(monkeypatch, mincut)
    got = layout_mincut(cloud, seed=seed)
    assert len(built) == 1 and got.iterations == MAX_WIDTH_RETRIES
    assert got.placed.bbox[0] == width_floor(cloud)


def widest_beside(cloud, partner):
    """A tree putting the widest tag beside its ``partner``-th widest
    follower, the other tags stacked under them: wider than the floor."""

    by_width = sorted(range(len(cloud.tags)), key=lambda i: -cloud.tags[i].width)
    pair = by_width[0], by_width[partner]
    node = Cut("V", Leaf(pair[0]), Leaf(pair[1]))
    for i in by_width:
        if i not in pair:
            node = Cut("H", node, Leaf(i))
    return node


def test_a_first_attempt_above_the_floor_still_matches_the_replay(monkeypatch):
    cloud = dataclasses.replace(random_cloud(5, 6), target_width=20)
    wide = widest_beside(cloud, 1)

    def first_wide(k, tree):
        return wide if k == 0 else tree

    replayed = counting(monkeypatch, oracles, first_wide)
    placed, tree, widths = mincut_attempts_reference(cloud, seed=5)
    built = counting(monkeypatch, mincut, first_wide)
    got = layout_mincut(cloud, seed=5)
    assert (got.placed, got.tree, got.iterations) == (placed, tree, len(widths))
    floor = width_floor(cloud)
    assert widths[0] > floor and widths.index(floor) == 1 == len(built) - 1
    assert len(replayed) == MAX_WIDTH_RETRIES and got.tree != wide


def test_attempts_that_never_reach_the_floor_all_run(monkeypatch):
    # Attempts 1 and 2 put the widest tag beside the narrowest one, the
    # others beside the next widest: the narrowest attempt comes first at 1.
    cloud = dataclasses.replace(random_cloud(5, 6), target_width=20)
    narrow, wide = widest_beside(cloud, 5), widest_beside(cloud, 1)

    def narrow_second(k, tree):
        return narrow if k in (1, 2) else wide

    counting(monkeypatch, oracles, narrow_second)
    placed, tree, widths = mincut_attempts_reference(cloud, seed=5)
    built = counting(monkeypatch, mincut, narrow_second)
    got = layout_mincut(cloud, seed=5)
    assert (got.placed, got.tree, got.iterations) == (placed, tree, MAX_WIDTH_RETRIES)
    assert len(built) == MAX_WIDTH_RETRIES and got.tree == narrow
    assert min(widths) == widths[1] < widths[0] and min(widths) > width_floor(cloud)


@pytest.mark.parametrize("seed, kind", [
    (None, "NoneType"),  # seeded from the OS: a new layout on each call
    (1.5, "float"), ("3", "str"), (True, "bool"),
    ([1], "list"),  # a plain TypeError from random.Random
])
def test_seed_must_be_an_integer(seed, kind):
    cloud, graph = topic_cloud(1, k=20)
    small, large = range(5), range(len(cloud.tags))  # one exhaustive, one FM route
    assert len(small) <= EXHAUSTIVE_LIMIT < len(large)
    for call in (lambda: build_slicing_tree(cloud, graph, seed=seed),
                 lambda: layout_mincut(cloud, graph, seed=seed),
                 lambda: bipartition(small, graph, seed=seed),
                 lambda: bipartition(large, graph, seed=seed)):
        with pytest.raises(InvalidInputError) as exc:
            call()
        assert str(exc.value) == f"seed must be an integer, got {kind}"


@pytest.mark.parametrize("graph", [False, True])
def test_layout_and_html_hash_no_tree_node(monkeypatch, graph):
    # Nodes compare by structure, so hashing one walks its whole subtree.
    cloud, g = topic_cloud(3, k=60) if graph else (random_cloud(3, 150, 300), None)

    def unhashable(node):
        raise AssertionError(f"hashed a {type(node).__name__}")

    monkeypatch.setattr(Cut, "__hash__", unhashable)
    monkeypatch.setattr(Leaf, "__hash__", unhashable)
    result = layout_mincut(cloud, g, seed=3)
    cells = Cells()
    cells.feed(emit_nested_tables(result.tree, result.placed, cloud))
    assert len(cells.labels) == len(cloud.tags) and not cells.stack


def test_edge_free_layout_never_enumerates(monkeypatch):
    monkeypatch.setattr(mincut, "_best_in_pool", no_search)
    for seed, n, width in ((0, 150, 550), (1, 40, 250), (2, 12, 300)):
        result = layout_mincut(random_cloud(seed, n, width), seed=seed)
        each_tag_once(result.placed, n)


def test_layout_mincut_single_tag():
    cloud = Cloud(tags=(TagBox("solo", 4, 120, 40),), target_width=550)
    result = layout_mincut(cloud)
    assert result.placed.bbox[1] in (35, 40, 47)  # one of the shape variants
    assert result.placed.placements[0].x == 0


def test_layout_mincut_uses_each_tags_own_shapes():
    rng = random.Random(4)
    cloud = make_cloud(rng, 12, target=400)
    result = layout_mincut(cloud, seed=1)
    from tagcloud.sizing import gen_shape_options
    for p in result.placed.placements:
        options = gen_shape_options(cloud.tags[p.tag])
        assert (p.width, p.height) in options


def test_layout_mincut_single_variant_keeps_default_boxes():
    rng = random.Random(5)
    cloud = make_cloud(rng, 8, target=400)
    result = layout_mincut(cloud, seed=1, shape_variants=1)
    for p in result.placed.placements:
        tag = cloud.tags[p.tag]
        assert (p.width, p.height) == (tag.width, tag.height)
