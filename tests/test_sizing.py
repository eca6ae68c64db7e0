import dataclasses
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tagcloud import Cloud, InvalidInputError, InternalError, TagBox, build_slicing_tree
from tagcloud.sizing import (
    SIDE_GAP,
    _combine_beside,
    _combine_stacked,
    combine_shapes,
    default_leaf_shapes,
    gen_shape_options,
    is_shape_list,
    prune_shapes,
    select_and_place,
)
from tagcloud.synthetic import random_cloud
from tagcloud.tree import Cut, Leaf
from .oracles import (best_root_shape, combine_beside_reference, combine_stacked_reference,
                      merge_frontier)
from .structure import cut_count, iter_nodes, leaves, node_lists, random_tree, tree_of


def test_prune_keeps_trade_off_curve():
    got = prune_shapes([(10, 30), (12, 28), (14, 28), (15, 40), (20, 10)])
    assert got == ((10, 30), (12, 28), (20, 10))
    assert is_shape_list(got)


def test_prune_drops_duplicates():
    assert prune_shapes([(10, 10), (10, 10)]) == ((10, 10),)


def test_is_shape_list():
    assert is_shape_list(((5, 20), (10, 10)))
    assert not is_shape_list(())
    assert not is_shape_list(((10, 10), (5, 20)))      # widths must increase
    assert not is_shape_list(((5, 10), (10, 10)))      # heights must decrease
    assert not is_shape_list(((0, 10), (10, 5)))


def test_gen_shape_options_worked_example():
    assert gen_shape_options(TagBox("x", 3, 100, 20)) == ((85, 24), (100, 20), (115, 17))


def test_gen_shape_options_single_variant():
    assert gen_shape_options(TagBox("x", 3, 100, 20), variants=1) == ((100, 20),)


def test_gen_shape_options_drops_area_breakers():
    # 10x1: the 1.15 variant rounds to 12x1 = +20% area and is dropped;
    # 9x1 keeps the height, so it dominates the default box
    assert gen_shape_options(TagBox("x", 1, 10, 1)) == ((9, 1),)


def test_gen_shape_options_default_survives_unless_dominated():
    rng = random.Random(3)
    for _ in range(200):
        w, h = rng.randint(1, 300), rng.randint(1, 90)
        opts = gen_shape_options(TagBox("x", 1, w, h))
        assert is_shape_list(opts)
        if (w, h) not in opts:
            assert any(ow <= w and oh <= h for ow, oh in opts)
        area = w * h
        for ow, oh in opts:
            assert abs(ow * oh - area) <= 0.15 * area


def test_gen_shape_options_validates():
    with pytest.raises(InvalidInputError):
        gen_shape_options(TagBox("x", 1, 10, 10), variants=2)
    with pytest.raises(InvalidInputError):
        gen_shape_options(TagBox("x", 1, 0, 10))


@pytest.mark.parametrize("variants, message", [
    (True, "variants must be an integer, got bool"),  # was taken as 1
    (None, "variants must be an integer, got NoneType"),
    ([3], "variants must be an integer, got list"),
    (2, "variants must be one of [1, 3], got 2"),
    pytest.param(10 ** 5000, "variants must be one of [1, 3], got <16610-bit int>",
                 id="past-str"),
])
def test_gen_shape_options_variants_message(variants, message):
    with pytest.raises(InvalidInputError) as exc:
        gen_shape_options(TagBox("x", 1, 10, 10), variants)
    assert str(exc.value) == message


def _pairs(shapes):
    return tuple(c[:2] for c in shapes)


def test_combine_beside_worked_example():
    tree = Cut("V", Leaf(0), Leaf(1))
    table = node_lists(tree, combine_shapes(tree, {0: ((5, 20), (10, 10)),
                                                   1: ((10, 10), (20, 5))}))
    assert _pairs(table[tree]) == ((17, 20), (22, 10))


def test_combine_stacked_sums_heights():
    tree = Cut("H", Leaf(0), Leaf(1))
    table = node_lists(tree, combine_shapes(tree, {0: ((5, 20), (10, 10)),
                                                   1: ((10, 10), (20, 5))}))
    # width 10: 10x10 over 10x10 -> 10x20; width 20: 10x10 over 20x5 -> 20x15
    assert _pairs(table[tree]) == ((10, 20), (20, 15))


def test_combine_requires_shape_lists():
    tree = Cut("V", Leaf(0), Leaf(1))
    with pytest.raises(InvalidInputError):
        combine_shapes(tree, {0: ((10, 10), (5, 20)), 1: ((10, 10),)})
    with pytest.raises(InvalidInputError):
        combine_shapes(tree, {0: ((10, 10),)})  # leaf 1 missing


@pytest.mark.parametrize("shape", [
    (1, 2, 3),  # was a plain ValueError from unpacking
    (1.5, 2),   # was sized into a cut 4.5 wide
    (True, 2),  # was accepted
    (0, 2),
])
def test_combine_rejects_a_leaf_shape_of_the_wrong_form(shape):
    assert not is_shape_list((shape,))
    with pytest.raises(InvalidInputError) as exc:
        combine_shapes(Cut("V", Leaf(0), Leaf(1)), {0: (shape,), 1: ((1, 2),)})
    assert str(exc.value) == ("leaf 0: needs a list of (width, height) pairs"
                              " of positive ints, widths rising, heights falling")


@pytest.mark.parametrize("shapes", [
    5,                    # was a plain TypeError from iterating it
    iter([(1, 2)]),       # was consumed by the check, then had no len()
    {(1, 2)},             # a set has no order to sweep
    None,
])
def test_combine_rejects_a_leaf_list_that_is_no_tuple_or_list(shapes):
    for tree in (Leaf(0), Cut("V", Leaf(0), Leaf(1))):
        with pytest.raises(InvalidInputError) as exc:
            combine_shapes(tree, {0: shapes, 1: ((1, 2),)})
        assert str(exc.value) == ("leaf 0: needs a list of (width, height) pairs"
                                  " of positive ints, widths rising, heights falling")
    assert is_shape_list([(1, 2)]) and not is_shape_list(shapes)


@pytest.mark.parametrize("leaf_shapes, kind", [(None, "NoneType"), ([((1, 2),)], "list")])
def test_combine_rejects_leaf_shapes_that_are_no_mapping(leaf_shapes, kind):
    with pytest.raises(InvalidInputError) as exc:
        combine_shapes(Leaf(0), leaf_shapes)
    assert str(exc.value) == f"leaf_shapes must map tag indices to shape lists, got {kind}"


@st.composite
def shape_lists(draw):
    """1-12 shapes, widths rising and heights falling, from values 1-24
    so that the two children of a merge share some of them."""

    k = draw(st.integers(1, 12))
    widths = sorted(draw(st.sets(st.integers(1, 24), min_size=k, max_size=k)))
    heights = sorted(draw(st.sets(st.integers(1, 24), min_size=k, max_size=k)), reverse=True)
    return tuple(zip(widths, heights))


@settings(max_examples=400, deadline=None)
@given(shape_lists(), shape_lists())
def test_merge_sweeps_equal_the_set_and_sort_merges(first, second):
    assert _combine_beside(first, second) == combine_beside_reference(first, second, SIDE_GAP)
    assert _combine_stacked(first, second) == combine_stacked_reference(first, second)


def test_combine_names_the_first_bad_leaf_among_shared_lists():
    good, bad = ((4, 3), (6, 2)), ((6, 2), (4, 3))
    tree = Cut("V", Cut("H", Leaf(0), Leaf(1)), Cut("H", Leaf(2), Leaf(3)))
    for shapes, first_bad in (({0: good, 1: good, 2: bad, 3: bad}, 2),
                              ({0: good, 1: bad, 2: good, 3: bad}, 1),
                              ({0: good, 1: good, 2: good, 3: [(4, 3), (4, 2)]}, 3)):
        with pytest.raises(InvalidInputError) as exc:
            combine_shapes(tree, shapes)
        assert str(exc.value).startswith(f"leaf {first_bad}: needs a list")


def test_select_and_place_matches_exhaustive():
    rng = random.Random(0xACE)
    for _ in range(30):
        m = rng.randint(1, 6)
        spec = random_tree(rng, list(range(m)))
        leaf_shapes = {
            t: gen_shape_options(TagBox(f"t{t}", 1, rng.randint(8, 120), rng.randint(8, 40)))
            for t in range(m)
        }
        tree = tree_of(spec)
        table = node_lists(tree, combine_shapes(tree, leaf_shapes))
        target = rng.randint(40, 240)
        placed = select_and_place(tree, table[tree], target)
        assert placed.bbox == best_root_shape(spec, leaf_shapes, target, SIDE_GAP)


def test_placement_geometry_follows_the_cuts():
    tree = Cut("V", Leaf(0), Cut("H", Leaf(1), Leaf(2)))
    shapes = {0: ((10, 30),), 1: ((20, 10),), 2: ((15, 12),)}
    table = node_lists(tree, combine_shapes(tree, shapes))
    placed = select_and_place(tree, table[tree], 100)
    by = placed.by_tag()
    assert (by[0].x, by[0].y) == (0, 0)
    assert by[1].x == 10 + SIDE_GAP and by[1].y == 0
    assert by[2].x == 10 + SIDE_GAP and by[2].y == 10
    assert placed.bbox == (10 + SIDE_GAP + 20, 30)


def test_v_root_with_default_shapes_only():
    tree = Cut("V", Leaf(0), Leaf(1))
    table = node_lists(tree, combine_shapes(tree, {0: ((10, 10),), 1: ((20, 8),)}))
    placed = select_and_place(tree, table[tree], 100)
    by = placed.by_tag()
    assert (by[0].x, by[0].y, by[0].width, by[0].height) == (0, 0, 10, 10)
    assert (by[1].x, by[1].y, by[1].width, by[1].height) == (12, 0, 20, 8)
    assert placed.bbox == (32, 10)


def test_select_prefers_fitting_then_area_then_height():
    tree = Leaf(0)
    shapes = ((10, 50), (20, 20), (50, 10))
    assert select_and_place(tree, shapes, 25).bbox == (20, 20)
    # nothing fits a 5px budget: narrowest wins
    assert select_and_place(tree, shapes, 5).bbox == (10, 50)
    # equal areas tie toward the shorter box
    assert select_and_place(tree, ((10, 40), (20, 20)), 100).bbox == (20, 20)


def test_corrupted_provenance_is_an_internal_error():
    tree = Cut("V", Leaf(0), Leaf(1))
    table = node_lists(tree, combine_shapes(tree, {0: ((10, 10),), 1: ((10, 10),)}))
    w, h, a, b = table[tree][0]
    with pytest.raises(InternalError, match="shape provenance mismatch at V node"):
        select_and_place(tree, ((w + 1, h, a, b),), 100)


def test_leaf_form_shape_at_a_cut_is_an_internal_error():
    tree = Cut("H", Leaf(0), Leaf(1))
    with pytest.raises(InternalError) as err:
        select_and_place(tree, ((10, 20),), 100)
    assert str(err.value) == "internal node shape lost its child choices"


def test_leaf_lists_are_the_given_lists():
    for tree, shapes in _tied_trees(0xF2, 20):
        table = node_lists(tree, combine_shapes(tree, shapes))
        for node in iter_nodes(tree):
            if isinstance(node, Leaf):
                assert table[node] == shapes[node.tag]


def test_every_node_list_is_pruned_and_sorted():
    rng = random.Random(77)
    for _ in range(20):
        m = rng.randint(2, 8)
        tree = tree_of(random_tree(rng, list(range(m))))
        shapes = {
            t: gen_shape_options(TagBox(f"t{t}", 1, rng.randint(5, 200), rng.randint(5, 60)))
            for t in range(m)
        }
        table = node_lists(tree, combine_shapes(tree, shapes))
        for node in iter_nodes(tree):
            assert is_shape_list(_pairs(table[node]))


def _tied_trees(seed, count):
    """Random V/H trees over 3-variant leaves drawn from a few boxes, so
    equal widths and heights meet in the merges."""

    rng = random.Random(seed)
    boxes = [TagBox("t", 1, w, h) for w in (20, 40) for h in (10, 20)]
    for _ in range(count):
        m = rng.randint(2, 9)
        tree = tree_of(random_tree(rng, list(range(m))))
        yield tree, {t: gen_shape_options(rng.choice(boxes)) for t in range(m)}


def test_every_cut_matches_the_brute_force_frontier():
    ties = 0
    for tree, shapes in _tied_trees(0xF0, 60):
        table = node_lists(tree, combine_shapes(tree, shapes))
        for node in iter_nodes(tree):
            if isinstance(node, Leaf):
                continue
            first, second = _pairs(table[node.first]), _pairs(table[node.second])
            ties += len({w for w, _ in first} & {w for w, _ in second})
            ties += len({h for _, h in first} & {h for _, h in second})
            assert _pairs(table[node]) == merge_frontier(first, second, node.orient, SIDE_GAP)
    assert ties > 100


def test_choices_link_to_child_choices_that_reproduce_them():
    for tree, shapes in _tied_trees(0xF1, 30):
        table = node_lists(tree, combine_shapes(tree, shapes))
        for node in iter_nodes(tree):
            if isinstance(node, Leaf):
                assert all(len(c) == 2 for c in table[node])
                continue
            for c in table[node]:
                w, h, a, b = c
                assert any(a is x for x in table[node.first])
                assert any(b is x for x in table[node.second])
                if node.orient == "V":
                    assert (w, h) == (a[0] + SIDE_GAP + b[0], max(a[1], b[1]))
                else:
                    assert (w, h) == (max(a[0], b[0]), a[1] + b[1])


def test_table_keys_are_post_order_positions_with_the_root_last():
    for tree, shapes in _tied_trees(0xF3, 20):
        table = combine_shapes(tree, shapes)
        nodes = list(iter_nodes(tree))
        assert list(table) == list(range(len(nodes)))
        assert nodes[-1] is tree
        at = {id(node): k for k, node in enumerate(nodes)}
        for k, node in enumerate(nodes):
            if isinstance(node, Leaf):
                assert table[k] is shapes[node.tag]
                continue
            for _, _, a, b in table[k]:
                assert any(a is x for x in table[at[id(node.first)]])
                assert any(b is x for x in table[at[id(node.second)]])


def test_default_leaf_shapes_covers_the_cloud():
    cloud = Cloud(tags=(TagBox("a", 1, 30, 14), TagBox("b", 4, 80, 34)),
                  target_width=200)
    shapes = default_leaf_shapes(cloud)
    assert set(shapes) == {0, 1}
    assert all(is_shape_list(s) for s in shapes.values())
    single = default_leaf_shapes(cloud, variants=1)
    assert single[0] == ((30, 14),)


def test_default_leaf_shapes_are_each_tags_options_once_per_box():
    boxes = [(30, 14), (80, 34), (30, 14), (9, 1), (80, 34), (30, 14)]
    cloud = Cloud(tags=tuple(TagBox(f"t{k}", k % 10, w, h) for k, (w, h) in enumerate(boxes)),
                  target_width=200)
    for variants in (1, 3):
        shapes = default_leaf_shapes(cloud, variants)
        assert shapes == {i: gen_shape_options(tag, variants)
                          for i, tag in enumerate(cloud.tags)}
        assert shapes[0] is shapes[2] is shapes[5] and shapes[1] is shapes[4]


@pytest.mark.parametrize("variants", [True, None, 2, pytest.param(10 ** 5000, id="past-str")])
def test_default_leaf_shapes_variants_message(variants):
    cloud = Cloud(tags=(TagBox("a", 1, 30, 14), TagBox("b", 1, 30, 14)), target_width=200)
    with pytest.raises(InvalidInputError) as want:
        gen_shape_options(cloud.tags[0], variants)
    with pytest.raises(InvalidInputError) as got:
        default_leaf_shapes(cloud, variants)
    assert str(got.value) == str(want.value)


def test_default_leaf_shapes_names_the_first_degenerate_tag():
    # A Cloud rejects such boxes; any object with ``tags`` reaches here.
    tags = (TagBox("ok", 1, 30, 14), TagBox("first", 1, 0, 14), TagBox("second", 1, 0, 14))
    with pytest.raises(InvalidInputError) as err:
        default_leaf_shapes(SimpleNamespace(tags=tags))
    assert str(err.value) == "tag 'first' has a degenerate box"


@pytest.mark.parametrize("seed", range(8))
def test_no_root_shape_is_narrower_than_the_widest_narrowest_leaf(seed):
    """The largest, over all tags, of the narrowest leaf-shape width
    bounds every root shape's width from below, whatever the tree."""

    rng = random.Random(seed)
    cloud = random_cloud(seed, rng.choice([2, 13, 40, 120]))
    cloud = dataclasses.replace(cloud, target_width=rng.choice([150, 300, 550, 900]))
    trees = [build_slicing_tree(cloud, seed=seed, width_bias=bias)
             for bias in (0.5, 0.85, 1.0, 1.3, 2.0)]
    trees.append(tree_of(random_tree(rng, list(range(len(cloud.tags))))))
    for variants in (1, 3):
        shapes = default_leaf_shapes(cloud, variants)
        lb = max(s[0][0] for s in shapes.values())
        for tree in trees:
            table = combine_shapes(tree, shapes)
            assert min(c[0] for c in table[len(table) - 1]) >= lb


def test_tree_helpers():
    tree = Cut("V", Leaf(0), Cut("H", Leaf(1), Leaf(2)))
    assert list(leaves(tree)) == [0, 1, 2]
    assert cut_count(tree) == 2
    post = list(iter_nodes(tree))
    assert post[-1] is tree
