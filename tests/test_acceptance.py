"""Acceptance gate: one test per shipping criterion.

Run ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  Oracles come from tests/oracles.py and share no
code with the engine; random suites are seeded so reruns see the same
instances.  Measured values are printed so a red test shows how far
off it was.
"""

import random
import statistics
import time
from functools import lru_cache

from tagcloud import (
    Cloud,
    RelationGraph,
    TagBox,
    bbox_area,
    bipartition,
    dp_break,
    gen_shape_options,
    greedy_break,
    layout_badness,
    layout_mincut,
    layout_to_placement,
    line_badness,
    nfdh,
    weighted_distance,
)
from tagcloud.inline import BadnessAggregate
from tagcloud.mincut import bipartition_fm, build_slicing_tree
from tagcloud.reorder import ffdhw
from tagcloud.sizing import SIDE_GAP, combine_shapes, is_shape_list, select_and_place
from tagcloud.synthetic import random_cloud, topic_cloud
from tagcloud.htmlgen import emit_nested_tables
from tagcloud.ingest import cooccurrence_graph, importance

from .conftest import make_cloud
from .oracles import (
    best_bipartition,
    best_break,
    best_root_shape,
    cut_weight,
    pair_counts,
    tree_dims,
)
from .structure import (
    Cells,
    cut_count,
    each_tag_once,
    leaves,
    lines_fit,
    no_overlap,
    random_tree,
    tree_of,
)

AGGS = (BadnessAggregate.SUM, BadnessAggregate.SUM_OF_SQUARES, BadnessAggregate.MAX)


# ---------------------------------------------------------------- suites

@lru_cache(maxsize=None)
def dp_suite():
    """200 instances, up to 10 tags, widths 10-150, heights 12-60."""
    rng = random.Random(0x5EED)
    return tuple(make_cloud(rng, rng.randint(1, 10)) for _ in range(200))


@lru_cache(maxsize=None)
def corpora():
    """Ten planted-topic corpora at k=50, with their relation graphs."""
    return tuple(topic_cloud(seed, k=50) for seed in range(10))


# ------------------------------------------------------------- criteria

def test_c01_worked_example_exact():
    # three tags on a 128px line, then a lone overfull tag
    assert line_badness([(32, 14), (45, 16), (24, 12)], 128, 4) == 464
    assert line_badness([(130, 16)], 128, 4) == 32


def test_c02_dp_matches_brute_force():
    oracle_time = 0.0
    for cloud in dp_suite():
        boxes = [(t.width, t.height) for t in cloud.tags]
        for agg in AGGS:
            t0 = time.perf_counter()
            want, _ = best_break(boxes, cloud.target_width, cloud.space_width,
                                 agg.value)
            oracle_time += time.perf_counter() - t0
            layout = dp_break(cloud, agg=agg)
            assert layout_badness(cloud, layout, agg) == want
    print(f"c02: 200 instances x 3 aggregates exact, oracle {oracle_time:.2f}s")
    assert oracle_time < 10.0


def test_c03_dp_never_worse_than_greedy():
    for cloud in dp_suite():
        greedy = greedy_break(cloud)
        for agg in AGGS:
            assert layout_badness(cloud, dp_break(cloud, agg=agg), agg) \
                <= layout_badness(cloud, greedy, agg)
    print("c03: dp <= greedy on all 200 instances x 3 aggregates")


def test_c04_bipartition_matches_exhaustive():
    rng = random.Random(0xB1B1)
    for _ in range(100):
        n = rng.randint(2, 12)
        tags = list(range(n))
        edges = [(i, j, rng.randint(1, 9))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        graph = RelationGraph(edges)
        areas = {t: rng.randint(1, 50) for t in tags}
        got = bipartition(tags, graph, areas=areas)
        _, _, want_cut, _ = best_bipartition(tags, edges, areas)
        assert cut_weight(graph, got) == want_cut
    print("c04: 100 graphs <=12 tags, dispatcher cut == exhaustive cut")


def test_c05_fm_finds_the_bridge():
    # two 10-cliques tied by one weak edge; the right cut severs only it
    edges = [(i, j, 2.0) for i in range(10) for j in range(i + 1, 10)]
    edges += [(i, j, 2.0) for i in range(10, 20) for j in range(i + 1, 20)]
    edges.append((0, 10, 1.0))
    graph = RelationGraph(edges)
    tags = list(range(20))
    areas = {t: 1 for t in tags}

    hits = 0
    for master in range(10):
        bp = bipartition_fm(tags, graph, areas=areas, seed=master)
        assert bp.runs  # diagnostics must be present
        if cut_weight(graph, bp) == 1.0:
            hits += 1
    print(f"c05: bridge cut found for {hits}/10 master seeds")
    assert hits >= 9


def test_c06_root_area_matches_exhaustive():
    rng = random.Random(0x510E)
    for _ in range(100):
        m = rng.randint(1, 6)
        spec = random_tree(rng, list(range(m)))
        leaf_shapes = {
            t: gen_shape_options(
                TagBox(f"t{t}", 1, rng.randint(8, 120), rng.randint(8, 40)))
            for t in range(m)
        }
        assert all(len(s) <= 3 for s in leaf_shapes.values())
        # keep the width bound satisfiable: narrowest choices set the floor
        floor_w, _ = tree_dims(spec, {t: s[0] for t, s in leaf_shapes.items()},
                               SIDE_GAP)
        target = floor_w + rng.randint(0, 120)

        tree = tree_of(spec)
        table = combine_shapes(tree, leaf_shapes)
        placed = select_and_place(tree, table[len(table) - 1], target)
        got = placed.bbox[0] * placed.bbox[1]
        ww, wh = best_root_shape(spec, leaf_shapes, target, SIDE_GAP)
        assert got == ww * wh
    print("c06: 100 trees <=6 leaves, root area == exhaustive minimum")


def test_c07_mincut_distance_beats_sorted_greedy():
    mind, ffd = [], []
    for seed, (cloud, graph) in enumerate(corpora()):
        mind.append(weighted_distance(layout_mincut(cloud, graph, seed=seed).placed,
                                      graph))
        ffd.append(weighted_distance(layout_to_placement(ffdhw(cloud), cloud),
                                     graph))
    m, f = statistics.mean(mind), statistics.mean(ffd)
    print(f"c07: mean weighted distance mincut {m:.0f} vs ffdhw {f:.0f}")
    assert m < f


def test_c08_random_order_greedy_packs_worse():
    rand_area, sort_area = [], []
    for seed, (cloud, _) in enumerate(corpora()):
        order = list(range(len(cloud.tags)))
        random.Random(seed).shuffle(order)
        rand_area.append(bbox_area(layout_to_placement(greedy_break(cloud, order),
                                                       cloud)))
        sort_area.append(bbox_area(layout_to_placement(nfdh(cloud), cloud)))
    r, s = statistics.mean(rand_area), statistics.mean(sort_area)
    print(f"c08: mean area random-order {r:.1f} vs sorted {s:.1f} kpx")
    assert r > s


def test_c09_timing_medians():
    cloud140 = random_cloud(7, n_tags=140)
    dp_times = []
    for _ in range(20):
        t0 = time.perf_counter()
        dp_break(cloud140)
        dp_times.append(time.perf_counter() - t0)

    cloud200 = random_cloud(11, n_tags=200)
    mc_times = []
    for _ in range(20):
        t0 = time.perf_counter()
        layout_mincut(cloud200, seed=0)
        mc_times.append(time.perf_counter() - t0)

    dp_med = statistics.median(dp_times)
    mc_med = statistics.median(mc_times)
    print(f"c09: dp 140 tags {dp_med * 1000:.2f}ms, mincut 200 tags "
          f"{mc_med * 1000:.1f}ms (medians of 20)")
    assert dp_med < 0.050
    assert mc_med < 1.0


def test_c10_max_aggregate_grows_taller():
    h_sum, h_max = [], []
    for seed in range(12):
        cloud = random_cloud(seed)
        for agg, acc in ((BadnessAggregate.SUM, h_sum),
                         (BadnessAggregate.MAX, h_max)):
            placed = layout_to_placement(dp_break(cloud, agg=agg), cloud)
            acc.append(placed.bbox[1])
    s, m = statistics.mean(h_sum), statistics.mean(h_max)
    print(f"c10: mean height l1 {s:.0f}px vs linf {m:.0f}px")
    assert m > s


def test_c11_structural_invariants_1000_checks():
    checks = 0
    rng = random.Random(0x1000)

    # inline pipelines: overlap, coverage, width bound
    for _ in range(75):
        cloud = make_cloud(rng, rng.randint(5, 60))
        n = len(cloud.tags)
        for layout in (dp_break(cloud), nfdh(cloud), ffdhw(cloud)):
            placed = layout_to_placement(layout, cloud)
            no_overlap(placed)
            each_tag_once(placed, n)
            lines_fit(cloud, layout)
            checks += 3

    # min-cut pipeline: overlap and coverage, plus tree leaf permutations
    results = []
    for seed in range(30):
        cloud, graph = topic_cloud(seed, k=30)
        res = layout_mincut(cloud, graph, seed=seed)
        results.append((cloud, res))
        no_overlap(res.placed)
        each_tag_once(res.placed, len(cloud.tags))
        assert sorted(leaves(res.tree)) == list(range(len(cloud.tags)))
        checks += 3

    for seed in range(20):
        cloud = random_cloud(seed, n_tags=rng.randint(3, 40))
        tree = build_slicing_tree(cloud, seed=seed)
        assert sorted(leaves(tree)) == list(range(len(cloud.tags)))
        checks += 1

    # shape lists stay sorted and non-dominated
    for _ in range(100):
        box = TagBox("x", rng.randrange(10), rng.randint(5, 400),
                     rng.randint(5, 120))
        shapes = gen_shape_options(box, variants=3)
        assert all(shapes[i][0] < shapes[i + 1][0] for i in range(len(shapes) - 1))
        assert is_shape_list(shapes)
        checks += 2

    # nested-table markup parses with two cells per cut
    for cloud, res in results[:15]:
        html = emit_nested_tables(res.tree, res.placed, cloud)
        parser = Cells()
        parser.feed(html)
        assert not parser.stack, "unbalanced markup"
        assert parser.tds == 2 * cut_count(res.tree)
        checks += 1

    print(f"c11: {checks} structural checks")
    assert checks >= 1000


def test_c12_ingestion_oracle():
    rng = random.Random(0xF00D)
    # boundary ranks: least retained count maps to 0, the top one to 9
    assert importance(200, 10, 10) == 0
    assert importance(200, 10, 200) == 9
    for _ in range(50):
        r = rng.randint(1, 100)
        f = r + rng.randint(0, 500)
        assert importance(f, r, r) == 0
        if f - r >= 9:  # integer scaling only reaches 9 on a wide range
            assert importance(f, r, f) == 9

    vocab = [f"word{c}{c}" for c in "abcdefghij"]
    for _ in range(100):
        stream = [rng.choice(vocab) for _ in range(rng.randint(2, 300))]
        retained = sorted(set(stream))[: rng.randint(1, len(set(stream)))]
        g = cooccurrence_graph(stream, retained)
        want = {p: c for p, c in pair_counts(stream, retained).items() if c >= 2}
        assert {(i, j): s for i, j, s in g.edges} == want
    print("c12: boundaries exact, 100 streams match the pair-count oracle")
