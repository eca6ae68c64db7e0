import random

import pytest
from hypothesis import given, settings, strategies as st

from tagcloud import (
    BadnessAggregate,
    Cloud,
    InvalidInputError,
    TagBox,
    dp_break,
    ffdh,
    ffdhw,
    layout_badness,
    nfdh,
    shuffle_best,
)
from tagcloud.reorder import RNG_ALGORITHM
from .conftest import make_cloud
from .oracles import first_fit_reference


def first_fit_cloud() -> Cloud:
    return Cloud(tags=(
        TagBox("a", 1, 100, 20),
        TagBox("b", 1, 100, 18),
        TagBox("c", 1, 20, 16),
    ), target_width=128, space_width=4)


def test_nfdh_closes_lines_for_good():
    # next-fit cannot return to the first line once b opened a new one
    assert nfdh(first_fit_cloud()).lines == ((0,), (1, 2))


def test_ffdh_backfills_open_lines():
    # first-fit slips c back beside a (100 + 4 + 20 <= 128)
    assert ffdh(first_fit_cloud()).lines == ((0, 2), (1,))


def test_ffdh_capacity_counts_the_space():
    # 100 + 24 == target exactly, but the inter-tag space pushes it over
    cloud = Cloud(tags=(TagBox("a", 1, 100, 20), TagBox("b", 1, 24, 18)),
                  target_width=124, space_width=4)
    assert ffdh(cloud).lines == ((0,), (1,))


def test_height_sort_is_stable():
    cloud = Cloud(tags=(TagBox("a", 1, 10, 20), TagBox("b", 1, 10, 20),
                        TagBox("c", 1, 10, 30)), target_width=500)
    assert nfdh(cloud).lines == ((2, 0, 1),)


def test_ffdhw_orders_equal_heights_by_width():
    cloud = Cloud(tags=(
        TagBox("narrow", 1, 10, 20),
        TagBox("wide", 1, 90, 20),
        TagBox("tall", 1, 10, 40),
    ), target_width=500)
    assert ffdhw(cloud).lines == ((2, 1, 0),)
    assert ffdh(cloud).lines == ((2, 0, 1),)


def test_oversized_tag_still_solo():
    cloud = Cloud(tags=(TagBox("huge", 1, 900, 30), TagBox("b", 1, 40, 20)),
                  target_width=128)
    for fn in (nfdh, ffdh, ffdhw):
        layout = fn(cloud)
        assert (0,) in layout.lines


def test_shuffle_best_is_deterministic():
    rng = random.Random(4)
    cloud = make_cloud(rng, 12)
    a = shuffle_best(cloud, 5, seed=42)
    b = shuffle_best(cloud, 5, seed=42)
    assert a == b
    assert RNG_ALGORITHM == "python-random-mt19937"


def test_shuffle_best_replays_the_documented_procedure():
    rng = random.Random(9)
    cloud = make_cloud(rng, 10)
    agg = BadnessAggregate.SUM
    k, seed = 6, 17
    replay = random.Random(seed)
    best = None
    for trial in range(k):
        order = list(range(10))
        replay.shuffle(order)
        layout = dp_break(cloud, order, agg)
        score = layout_badness(cloud, layout, agg)
        if best is None or (score, trial) < best[:2]:
            best = (score, trial, layout)
    assert shuffle_best(cloud, k, agg, seed) == best[2]


@pytest.mark.parametrize("agg", list(BadnessAggregate))
def test_shuffle_best_selects_on_the_layouts_badness(agg):
    # the winner's DP optimum is its layout's badness, and no replayed
    # shuffle's optimal breaking scores lower
    rng = random.Random(12)
    for n, k, seed in ((1, 3, 0), (9, 5, 2), (30, 10, 7), (120, 4, 11)):
        cloud = make_cloud(rng, n, target=rng.choice((90, 300)))
        replay = random.Random(seed)
        scores = []
        for _ in range(k):
            order = list(range(n))
            replay.shuffle(order)
            scores.append(layout_badness(cloud, dp_break(cloud, order, agg), agg))
        result = shuffle_best(cloud, k, agg, seed)
        assert layout_badness(cloud, result, agg) == min(scores)
        first = scores.index(min(scores))  # ties keep the earliest shuffle
        replay = random.Random(seed)
        for _ in range(first + 1):
            order = list(range(n))
            replay.shuffle(order)
        assert result == dp_break(cloud, order, agg)


@st.composite
def first_fit_clouds(draw):
    """Clouds of up to 300 tags, some wider than the line, often with
    zero space or one width for every tag."""

    n = draw(st.integers(1, 300))
    target = draw(st.integers(1, 400))
    space = draw(st.sampled_from((0, 0, 1, 4, 17)))
    if draw(st.booleans()):
        widths = [draw(st.integers(1, target + 40))] * n
    else:
        widths = draw(st.lists(st.integers(1, target + 40), min_size=n, max_size=n))
    heights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    return Cloud(tags=tuple(TagBox(f"t{i}", 1, w, h)
                            for i, (w, h) in enumerate(zip(widths, heights))),
                 target_width=target, space_width=space)


@settings(max_examples=150, deadline=None)
@given(first_fit_clouds())
def test_first_fit_matches_the_linear_scan(cloud):
    by_height = sorted(range(len(cloud.tags)), key=lambda i: (-cloud.tags[i].height, i))
    by_height_width = sorted(range(len(cloud.tags)),
                             key=lambda i: (-cloud.tags[i].height, -cloud.tags[i].width, i))
    assert ffdh(cloud).lines == first_fit_reference(cloud, by_height)
    assert ffdhw(cloud).lines == first_fit_reference(cloud, by_height_width)


def test_shuffle_best_never_loses_to_single_shuffle():
    rng = random.Random(5)
    agg = BadnessAggregate.SUM_OF_SQUARES
    for _ in range(10):
        cloud = make_cloud(rng, rng.randint(2, 15))
        one = layout_badness(cloud, shuffle_best(cloud, 1, agg, seed=3), agg)
        ten = layout_badness(cloud, shuffle_best(cloud, 10, agg, seed=3), agg)
        assert ten <= one


def test_reorder_layouts_are_permutations():
    rng = random.Random(6)
    for _ in range(20):
        cloud = make_cloud(rng, rng.randint(1, 25))
        n = len(cloud.tags)
        for fn in (nfdh, ffdh, ffdhw):
            flat = sorted(i for line in fn(cloud).lines for i in line)
            assert flat == list(range(n))
        flat = sorted(i for line in shuffle_best(cloud, 3, seed=1).lines for i in line)
        assert flat == list(range(n))


def test_reorder_rejects_empty_and_bad_k():
    for fn in (nfdh, ffdh, ffdhw):
        with pytest.raises(InvalidInputError):
            fn(Cloud(tags=(), target_width=100))
    cloud = Cloud(tags=(TagBox("a", 1, 10, 10),), target_width=100)
    with pytest.raises(InvalidInputError):
        shuffle_best(cloud, 0)


@pytest.mark.parametrize("agg, kind", [("l2", "str"), (None, "NoneType")])
def test_shuffle_best_rejects_a_non_aggregate(agg, kind):
    with pytest.raises(InvalidInputError) as err:
        shuffle_best(first_fit_cloud(), 2, agg)
    assert str(err.value) == f"agg must be a BadnessAggregate, got {kind}"


@pytest.mark.parametrize("k, message", [
    (True, "shuffle count must be an integer, got bool True"),  # ran one shuffle
    (2.5, "shuffle count must be an integer, got float 2.5"),  # died in range
    ("3", "shuffle count must be an integer, got str 3"),  # died in k < 1
    (None, "shuffle count must be an integer, got NoneType None"),  # died in k < 1
    (0, "shuffle count must be >= 1, got 0"),
    pytest.param(-10 ** 5000, "shuffle count must be >= 1, got -<16610-bit int>",
                 id="past-str"),
])
def test_shuffle_count_message(k, message):
    with pytest.raises(InvalidInputError) as err:
        shuffle_best(first_fit_cloud(), k)
    assert str(err.value) == message


@pytest.mark.parametrize("seed, kind", [
    (None, "NoneType"), (1.5, "float"), ("3", "str"), (True, "bool"), ([1], "list"),
])
def test_shuffle_best_seed_must_be_an_integer(seed, kind):
    with pytest.raises(InvalidInputError) as err:
        shuffle_best(first_fit_cloud(), 2, seed=seed)
    assert str(err.value) == f"seed must be an integer, got {kind}"
