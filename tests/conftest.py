import random

import pytest

from tagcloud import Cloud, RelationGraph, TagBox
from tagcloud import mincut


def make_cloud(rng: random.Random, n: int, target: int = 300, space: int = 4,
               w_range=(10, 150), h_range=(12, 60)) -> Cloud:
    tags = tuple(
        TagBox(f"t{i}", rng.randrange(10),
               rng.randint(*w_range), rng.randint(*h_range))
        for i in range(n)
    )
    return Cloud(tags=tags, target_width=target, space_width=space)


def split_input(tags, graph=None, pulls=None, axis="V", areas=None):
    """The splitters' arguments for a sorted group of distinct tags,
    prepared exactly as ``bipartition`` prepares them."""

    return mincut._split_input(tags, graph or RelationGraph(), pulls, axis, areas)


@pytest.fixture
def rng():
    return random.Random(0xC10D)
