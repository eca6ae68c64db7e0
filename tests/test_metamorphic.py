"""Metamorphic relations: how layouts must change when the input does.

Scaling every tag width, the target width and the space width by one
integer multiplies every line's slack and every white strip's width by
that integer, so every line's badness scales by it too.  Feasibility,
first fit and every aggregate's argmin and tie-breaks are unchanged,
so each inline layout must come out identical.

Multiplying every edge strength of an integer graph by one integer
multiplies every cut weight, pull, FM gain and enumeration objective
by it.  Every comparison and tie-break in the min-cut placer is free of
that scale, so its placement, tree and width attempts must come out
identical.  FM rounds fractional strengths at a fixed scale, so the
relation holds for integer graphs and factors only.
"""

from __future__ import annotations

import dataclasses

import pytest

from tagcloud import (
    BadnessAggregate,
    Cloud,
    RelationGraph,
    dp_break,
    ffdh,
    ffdhw,
    greedy_break,
    layout_mincut,
    line_badnesses,
    nfdh,
    shuffle_best,
)
from tagcloud.bench import order_indices
from tagcloud.synthetic import random_cloud, topic_cloud


def scaled(cloud: Cloud, factor: int) -> Cloud:
    return Cloud(tags=tuple(dataclasses.replace(t, width=t.width * factor) for t in cloud.tags),
                 target_width=cloud.target_width * factor,
                 space_width=cloud.space_width * factor)


def inline_layouts(cloud: Cloud) -> dict[str, object]:
    """Every inline method's layout, by name."""

    out = {"nfdh": nfdh(cloud), "ffdh": ffdh(cloud), "ffdhw": ffdhw(cloud)}
    for order in ("alpha", "weight", "given"):
        out[f"greedy-{order}"] = greedy_break(cloud, order_indices(cloud, order))
    for agg in BadnessAggregate:
        out[f"dp-{agg.value}"] = dp_break(cloud, order_indices(cloud, "alpha"), agg)
        out[f"shuffle-{agg.value}"] = shuffle_best(cloud, 4, agg, seed=5)
    return out


# 250 px is narrower than the widest tags of most clouds, so solo
# overfull lines occur; 0 px spaces leave first fit the tightest fits.
CLOUDS = [
    pytest.param(lambda: random_cloud(3, 20, 250), id="random-20-w250"),
    pytest.param(lambda: random_cloud(4, 140, 550), id="random-140-w550"),
    pytest.param(lambda: dataclasses.replace(random_cloud(5, 60, 300), space_width=0),
                 id="random-60-w300-space0"),
    pytest.param(lambda: topic_cloud(6, k=100, target_width=800)[0], id="topic-100-w800"),
]


@pytest.mark.parametrize("factor", [2, 3, 7])
@pytest.mark.parametrize("make", CLOUDS)
def test_integer_width_scaling_keeps_every_inline_layout(make, factor):
    cloud = make()
    big = scaled(cloud, factor)
    want = inline_layouts(cloud)
    got = inline_layouts(big)
    assert got == want
    for name, layout in want.items():
        assert line_badnesses(big, layout) == [factor * b for b in line_badnesses(cloud, layout)]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [30, 80, 150])
def test_integer_strength_scaling_keeps_the_mincut_layout(k, seed):
    cloud, graph = topic_cloud(seed, k=k)
    assert all(type(s) is int for _, _, s in graph.edges)
    want = layout_mincut(cloud, graph, seed=seed)
    for factor in (2, 7):
        big = RelationGraph((i, j, s * factor) for i, j, s in graph.edges)
        got = layout_mincut(cloud, big, seed=seed)
        assert (got.placed, got.tree, got.iterations) == (want.placed, want.tree, want.iterations)
