import random

import pytest
from hypothesis import given, settings, strategies as st

from tagcloud import (
    BadnessAggregate,
    Cloud,
    InfeasibleLineError,
    InvalidInputError,
    LineLayout,
    TagBox,
    aggregate,
    dp_break,
    greedy_break,
    layout_badness,
    layout_to_placement,
    line_badness,
    line_badnesses,
)
from tagcloud.bench import order_indices
from tagcloud.synthetic import random_cloud, topic_cloud

from .conftest import make_cloud
from .oracles import best_break, fold, line_score, reference_break

L1, L2, LINF = BadnessAggregate.SUM, BadnessAggregate.SUM_OF_SQUARES, BadnessAggregate.MAX


def test_line_badness_worked_example():
    # three boxes on a 128px line: 32px slack at height 16, plus the
    # white strips above the 14- and 12-tall tags
    assert line_badness([(32, 14), (45, 16), (24, 12)], 128, 4) == 464


def test_line_badness_zero_when_perfect():
    assert line_badness([(60, 20), (64, 20)], 128, 4) == 0


def test_line_badness_solo_overflow_is_legal():
    # a single too-wide tag overflows; the overhang counts as badness
    assert line_badness([(150, 10)], 128, 4) == 10 * 22


def test_line_badness_multi_overflow_raises():
    with pytest.raises(InfeasibleLineError):
        line_badness([(100, 10), (40, 10)], 128, 4)


def test_line_badness_rejects_degenerate():
    with pytest.raises(InvalidInputError):
        line_badness([], 128, 4)
    with pytest.raises(InvalidInputError):
        line_badness([(0, 5)], 128, 4)


@pytest.mark.parametrize("boxes, target, space, message", [
    ([(10, 2.5)], 100, 4, "box 0 height must be an integer, got float"),
    ([(10, 2), (10, True)], 100, 4, "box 1 height must be an integer, got bool"),
    ([(10, "a")], 100, 4, "box 0 height must be an integer, got str"),
    ([(1 << 25, 2)], 100, 4, f"box 0 width must be <= {1 << 24}, got {1 << 25}"),
    ([(10, 2, 3)], 100, 4, "box 0 must be a (width, height) pair, got (10, 2, 3)"),
    ([7], 100, 4, "box 0 must be a (width, height) pair, got 7"),
    ([(10, 2)], 100, -5, "space_width must be >= 0, got -5"),
    ([(10, 2)], 0, 4, "target_width must be >= 1, got 0"),
    ([(10, 2)], 100.0, 4, "target_width must be an integer, got float"),
])
def test_line_badness_applies_the_cloud_pixel_rules(boxes, target, space, message):
    with pytest.raises(InvalidInputError) as exc:
        line_badness(boxes, target, space)
    assert str(exc.value) == message


@pytest.mark.parametrize("line, kind", [
    (5, "int"),                      # was a plain TypeError from iterating it
    (iter([(1, 2)]), "list_iterator"),  # was a plain TypeError from len()
    ({(1, 2), (3, 4)}, "set"),       # was scored in set order
])
def test_line_badness_rejects_a_line_that_is_no_tuple_or_list(line, kind):
    with pytest.raises(InvalidInputError) as exc:
        line_badness(line, 100)
    assert str(exc.value) == f"line must be a list of (width, height) pairs, got {kind}"
    assert line_badness(((1, 2), (3, 4)), 100) == line_badness([(1, 2), (3, 4)], 100)


def test_aggregate_flavors():
    assert aggregate([3, 4], L1) == 7
    assert aggregate([3, 4], L2) == 25
    assert aggregate([3, 4], LINF) == 4
    with pytest.raises(InvalidInputError):
        aggregate([], L1)


@pytest.mark.parametrize("agg, kind", [("l2", "str"), (None, "NoneType")])
def test_agg_must_be_an_aggregate(agg, kind):
    # a spelling or None once minimized the sum in dp_break and took
    # the max in aggregate
    cloud = three_sixty()
    message = f"agg must be a BadnessAggregate, got {kind}"
    with pytest.raises(InvalidInputError) as err:
        dp_break(cloud, None, agg)
    assert str(err.value) == message
    with pytest.raises(InvalidInputError) as err:
        aggregate([3, 4], agg)
    assert str(err.value) == message
    with pytest.raises(InvalidInputError) as err:
        layout_badness(cloud, dp_break(cloud), agg)
    assert str(err.value) == message


def test_aggregate_names():
    assert BadnessAggregate.from_name("l1") is L1
    assert BadnessAggregate.from_name("l2") is L2
    assert BadnessAggregate.from_name("linf") is LINF
    assert BadnessAggregate.from_name("MAX") is LINF
    with pytest.raises(InvalidInputError):
        BadnessAggregate.from_name("l3")


@pytest.mark.parametrize("name", [None, 3, 10**5000], ids=["None", "int", "huge-int"])
def test_aggregate_name_must_be_a_string(name):
    with pytest.raises(InvalidInputError) as exc:
        BadnessAggregate.from_name(name)
    assert str(exc.value).startswith("unknown aggregate ")


def three_sixty() -> Cloud:
    return Cloud(tags=tuple(TagBox(f"t{i}", 1, 60, 20) for i in range(3)),
                 target_width=128, space_width=4)


def test_greedy_pairs_then_solo():
    assert greedy_break(three_sixty()).lines == ((0, 1), (2,))


def test_greedy_oversized_tag_gets_own_line():
    cloud = Cloud(tags=(TagBox("a", 1, 50, 10), TagBox("b", 1, 200, 10),
                        TagBox("c", 1, 50, 10)), target_width=128)
    assert greedy_break(cloud).lines == ((0,), (1,), (2,))


def test_greedy_respects_order():
    cloud = three_sixty()
    assert greedy_break(cloud, [2, 0, 1]).lines == ((2, 0), (1,))


def test_order_must_be_permutation():
    cloud = three_sixty()
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(InvalidInputError):
            greedy_break(cloud, bad)
        with pytest.raises(InvalidInputError):
            dp_break(cloud, bad)


@pytest.mark.parametrize("order, kind", [([True, False, 2], "bool"), ([1.0, 0, 2], "float"),
                                         (["0", 1, 2], "str")])
def test_order_entries_must_be_integers(order, kind):
    # A bool order once gave a layout of bool tag ids, a float one a TypeError.
    cloud = three_sixty()
    for solve in (greedy_break, dp_break):
        with pytest.raises(InvalidInputError) as exc:
            solve(cloud, order)
        assert str(exc.value) == f"order entries must be integers, got {kind}"


def test_empty_cloud_rejected():
    with pytest.raises(InvalidInputError) as exc:
        greedy_break(Cloud(tags=(), target_width=100))
    assert str(exc.value) == "tags non-empty: cloud has no tags"


@pytest.mark.parametrize("breaker", [greedy_break, dp_break])
def test_invalid_cloud_never_reaches_line_breaking(breaker):
    with pytest.raises(InvalidInputError) as exc:
        breaker(Cloud((TagBox("a", 0, 0, 5), TagBox("", 12, 7, -3)),
                      target_width=-5, space_width=-2))
    assert str(exc.value) == "; ".join([
        "target_width must be >= 1, got -5",
        "space_width must be >= 0, got -2",
        "tag 0 ('a'): width must be >= 1, got 0",
        "tag 1 (''): empty label",
        "tag 1 (''): weight range is 0..9, got 12",
        "tag 1 (''): height must be >= 1, got -3",
    ])


def test_dp_tie_breaks_to_fewer_lines_then_lex():
    # any pair fits exactly (badness 0), solos leave 14px slack; the
    # optimum 140 is reached by [0][1,2] and [0,1][2]: lex prefers ends
    # (1, 3) over (2, 3)
    cloud = Cloud(tags=tuple(TagBox(f"t{i}", 1, 10, 10) for i in range(3)),
                  target_width=24, space_width=4)
    for agg in (L1, LINF):
        assert dp_break(cloud, agg=agg).lines == ((0,), (1, 2)), agg


def boxes_of(cloud: Cloud, order):
    return [(cloud.tags[i].width, cloud.tags[i].height) for i in order]


def ends_of(layout) -> tuple[int, ...]:
    ends, total = [], 0
    for line in layout.lines:
        total += len(line)
        ends.append(total)
    return tuple(ends)


def tie_heavy_cases():
    """(cloud, order) pairs with many equally good layouts: equal boxes,
    solo tags wider than the line, no inter-tag space, up to 11 tags,
    each in the given order and in a shuffled one."""

    rng = random.Random(20261018)
    for n in range(1, 12):
        clouds = [Cloud(tags=tuple(TagBox(f"t{i}", 1, 10, 10) for i in range(n)),
                        target_width=target, space_width=space)
                  for target, space in ((24, 4), (30, 0), (50, 4), (8, 0))]
        for space in (0, 4):
            boxes = [rng.choice(((10, 10), (10, 12), (20, 10), (60, 10))) for _ in range(n)]
            clouds.append(Cloud(tags=tuple(TagBox(f"t{i}", 1, w, h)
                                           for i, (w, h) in enumerate(boxes)),
                                target_width=40, space_width=space))
        for cloud in clouds:
            yield cloud, list(range(n))
            yield cloud, rng.sample(range(n), n)


@pytest.mark.parametrize("agg", [L1, L2, LINF])
def test_dp_matches_exhaustive(agg):
    rng = random.Random(20260801)
    cases = [(make_cloud(rng, rng.randint(1, 9)), None) for _ in range(60)]
    for cloud, order in cases + list(tie_heavy_cases()):
        layout = dp_break(cloud, order, agg)
        boxes = boxes_of(cloud, order or range(len(cloud.tags)))
        score, ends = best_break(boxes, cloud.target_width, cloud.space_width, agg.value)
        assert layout_badness(cloud, layout, agg) == score
        assert ends_of(layout) == ends
        if order is not None:
            assert [i for line in layout.lines for i in line] == order


def scale_cases():
    """(cloud, order) pairs of seeded synthetic clouds of 50-1000 tags,
    narrow and wide, each in the given, alpha and weight orders."""

    clouds = [random_cloud(seed, n, width) for seed, n, width in
              ((1, 50, 250), (2, 200, 550), (3, 500, 300), (4, 1000, 800))]
    clouds += [topic_cloud(seed, k=k, target_width=width)[0] for seed, k, width in
               ((5, 50, 550), (6, 100, 250))]
    for cloud in clouds:
        for name in ("given", "alpha", "weight"):
            yield cloud, order_indices(cloud, name)


def test_reference_dp_matches_exhaustive():
    rng = random.Random(20261019)
    cases = [(make_cloud(rng, rng.randint(1, 9)), None) for _ in range(30)]
    for cloud, order in cases + list(tie_heavy_cases()):
        boxes = boxes_of(cloud, order or range(len(cloud.tags)))
        for agg in ("l1", "l2", "linf"):
            assert (reference_break(boxes, cloud.target_width, cloud.space_width, agg)
                    == best_break(boxes, cloud.target_width, cloud.space_width, agg))


@pytest.mark.parametrize("agg", [L1, L2, LINF])
def test_dp_matches_reference_dp_at_scale(agg):
    for cloud, order in list(scale_cases()) + list(tie_heavy_cases()):
        layout = dp_break(cloud, order, agg)
        boxes = boxes_of(cloud, order)
        score, ends = reference_break(boxes, cloud.target_width, cloud.space_width, agg.value)
        assert layout_badness(cloud, layout, agg) == score
        assert ends_of(layout) == ends


def boxes_cloud(boxes, target, space) -> Cloud:
    return Cloud(tags=tuple(TagBox(f"t{i}", 1, w, h) for i, (w, h) in enumerate(boxes)),
                 target_width=target, space_width=space)


def test_dp_fewest_lines_beats_lexicographic_order():
    # lines 6 + 7 + 11 + 5 and 6 + 7 + 6 + 0 + 10 both score 29; the
    # five-line layout has the smaller ends, but four lines are fewer
    boxes = [(9, 1), (8, 1), (9, 1), (5, 2), (10, 2), (5, 1)]
    cloud = boxes_cloud(boxes, 15, 0)
    layout = dp_break(cloud, agg=L1)
    assert layout.lines == ((0,), (1,), (2, 3), (4, 5))
    five = LineLayout(((0,), (1,), (2,), (3, 4), (5,)))
    assert layout_badness(cloud, layout, L1) == layout_badness(cloud, five, L1) == 29
    assert ends_of(five) < ends_of(layout)
    assert reference_break(boxes, 15, 0, "l1") == (29, ends_of(layout))


def test_dp_max_takes_a_suffix_that_is_not_optimal_on_its_own():
    # the first line scores 20, so from tag 3 on [3][4, 5] (20, 8) is as
    # good as [3, 4][5] (10, 18) and ends sooner, though alone the
    # second one's max is lower: ranking each suffix by (max, lines)
    # would end at (2, 3, 5, 6)
    boxes = [(4, 4), (4, 4), (12, 1), (4, 2), (4, 2), (5, 2)]
    cloud = boxes_cloud(boxes, 14, 1)
    layout = dp_break(cloud, agg=LINF)
    assert layout.lines == ((0, 1), (2,), (3,), (4, 5))
    suffix = boxes_cloud(boxes[3:], 14, 1)
    assert layout_badness(suffix, LineLayout(((0,), (1, 2))), LINF) == 20
    assert layout_badness(suffix, LineLayout(((0, 1), (2,))), LINF) == 18
    later = LineLayout(((0, 1), (2,), (3, 4), (5,)))
    assert layout_badness(cloud, layout, LINF) == layout_badness(cloud, later, LINF) == 20
    assert ends_of(later) == (2, 3, 5, 6)
    assert reference_break(boxes, 14, 1, "linf") == (20, ends_of(layout))


@pytest.mark.parametrize("agg", [L1, L2, LINF])
def test_dp_never_worse_than_greedy(agg):
    rng = random.Random(99)
    for _ in range(80):
        cloud = make_cloud(rng, rng.randint(1, 20))
        order = list(range(len(cloud.tags)))
        rng.shuffle(order)
        g = layout_badness(cloud, greedy_break(cloud, order), agg)
        d = layout_badness(cloud, dp_break(cloud, order, agg), agg)
        assert d <= g


def test_line_badnesses_match_line_badness():
    cloud = three_sixty()
    layout = greedy_break(cloud)
    per_line = line_badnesses(cloud, layout)
    assert per_line == [
        line_badness(boxes_of(cloud, line), 128, 4) for line in layout.lines
    ]
    rng = random.Random(13)
    for _ in range(40):
        # targets from 40 px put solo overfull lines among the others
        cloud = make_cloud(rng, rng.randint(1, 40), target=rng.choice((40, 150, 300)),
                           space=rng.choice((0, 4)))
        order = list(range(len(cloud.tags)))
        rng.shuffle(order)
        for layout in (greedy_break(cloud, order), dp_break(cloud, order)):
            assert line_badnesses(cloud, layout) == [
                line_badness(boxes_of(cloud, line), cloud.target_width, cloud.space_width)
                for line in layout.lines]


@pytest.mark.parametrize("lines", [((0,), (), (1, 2)), ((0,), (1, 2), ()),
                                   ((0, 1, 2), ()), ((), (0, 1, 2))])
def test_line_badnesses_raise_the_first_bad_lines_message(lines):
    # an empty line's message is layout_to_placement's, an overfull one's line_badness's
    cloud = three_sixty()
    with pytest.raises(InvalidInputError) as want:
        for line in lines:
            if line:
                line_badness(boxes_of(cloud, line), 128, 4)
            else:
                layout_to_placement(LineLayout(lines), cloud)
    with pytest.raises(InvalidInputError) as got:
        line_badnesses(cloud, LineLayout(lines))
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


@pytest.mark.parametrize("lines, kind", [
    (((0, 1.0), (2,)), "float"),
    (((0,), (1, 2.0)), "float"),
    (((0, "1"),), "str"),  # a layout need not hold every tag
    (((True,),), "bool"),  # was scored as tag 1
])
def test_line_badnesses_name_a_non_integer_entry(lines, kind):
    with pytest.raises(InvalidInputError) as exc:
        line_badnesses(three_sixty(), LineLayout(lines))
    assert str(exc.value) == f"layout entries must be integers, got {kind}"


@pytest.mark.parametrize("lines", [((0, 5),), ((0, -1),), ((0, 1, -1),)])
def test_line_badnesses_reject_an_index_that_is_no_tag(lines):
    cloud = random_cloud(1, 3)
    with pytest.raises(InvalidInputError) as placed:
        layout_to_placement(LineLayout(lines), cloud)
    with pytest.raises(InvalidInputError) as scored:
        line_badnesses(cloud, LineLayout(lines))
    assert str(scored.value) == str(placed.value) == "layout does not place every tag exactly once"


box_lists = st.lists(
    st.tuples(st.integers(1, 200), st.integers(1, 80)), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(box_lists, st.integers(30, 400), st.integers(0, 10))
def test_dp_partition_property(boxes, target, space):
    cloud = Cloud(tags=tuple(TagBox(f"t{i}", 0, w, h) for i, (w, h) in enumerate(boxes)),
                  target_width=target, space_width=space)
    layout = dp_break(cloud)
    flat = [i for line in layout.lines for i in line]
    assert flat == list(range(len(boxes)))
    # every multi-tag line fits
    for line in layout.lines:
        if len(line) > 1:
            used = sum(boxes[i][0] for i in line) + (len(line) - 1) * space
            assert used <= target


# runs of one box, so that equal lines tie; widths up to 450 overflow
# every target below them
box_runs = st.lists(
    st.tuples(st.sampled_from((10, 20, 30)) | st.integers(1, 450),
              st.sampled_from((10, 12)) | st.integers(1, 80),
              st.integers(1, 8)),
    min_size=1, max_size=20,
)


@settings(max_examples=80, deadline=None)
@given(box_runs, st.integers(30, 400), st.integers(0, 17))
def test_dp_matches_reference_dp_property(runs, target, space):
    boxes = [(w, h) for w, h, count in runs for _ in range(count)][:60]
    cloud = Cloud(tags=tuple(TagBox(f"t{i}", 0, w, h) for i, (w, h) in enumerate(boxes)),
                  target_width=target, space_width=space)
    for agg in (L1, L2, LINF):
        layout = dp_break(cloud, agg=agg)
        score, ends = reference_break(boxes, target, space, agg.value)
        assert layout_badness(cloud, layout, agg) == score
        assert ends_of(layout) == ends


@settings(max_examples=60, deadline=None)
@given(box_lists, st.integers(30, 400), st.integers(0, 10))
def test_line_score_agreement_property(boxes, target, space):
    # library badness equals the reference formula on feasible lines
    ref = line_score(boxes, target, space)
    if ref is None:
        with pytest.raises(InfeasibleLineError):
            line_badness(boxes, target, space)
    else:
        assert line_badness(boxes, target, space) == ref
        assert ref >= 0


def test_fold_spellings_align_with_enum():
    values = [5, 2, 9]
    assert aggregate(values, L1) == fold(values, "l1")
    assert aggregate(values, L2) == fold(values, "l2")
    assert aggregate(values, LINF) == fold(values, "linf")
