"""Tag reordering heuristics borrowed from strip packing.

Treating each line as a shelf, packing tags sorted by decreasing
height wastes far less vertical space than arbitrary orders.  NFDH
closes a shelf as soon as a tag does not fit; FFDH revisits every open
shelf first.  FFDHW additionally sorts equal-height tags by decreasing
width.  ``shuffle_best`` instead samples random orders and keeps the
one whose optimal breaking scores best.
"""

from __future__ import annotations

import random
from typing import Sequence

from .inline import BadnessAggregate, dp_break, layout_badness
from .model import Cloud, InvalidInputError, LineLayout, show_value

# Shuffles draw from Python's seeded Mersenne Twister; recorded in
# benchmark metadata so runs can be replayed.
RNG_ALGORITHM = "python-random-mt19937"


def _by_height(cloud: Cloud) -> list[int]:
    return sorted(range(len(cloud.tags)), key=lambda i: (-cloud.tags[i].height, i))


def _by_height_width(cloud: Cloud) -> list[int]:
    return sorted(range(len(cloud.tags)),
                  key=lambda i: (-cloud.tags[i].height, -cloud.tags[i].width, i))


def nfdh(cloud: Cloud) -> LineLayout:
    """Next-fit decreasing height: sort, then greedy line filling."""

    from .inline import greedy_break

    return greedy_break(cloud, _by_height(cloud))


def _first_fit(cloud: Cloud, order: Sequence[int]) -> LineLayout:
    target, space = cloud.target_width, cloud.space_width
    lines: list[list[int]] = []
    used: list[int] = []
    for idx in order:
        w = cloud.tags[idx].width
        for li in range(len(lines)):
            # remaining capacity must cover the tag plus its leading space
            if target - used[li] >= w + space:
                lines[li].append(idx)
                used[li] += space + w
                break
        else:
            lines.append([idx])
            used.append(w)
    return LineLayout(tuple(tuple(line) for line in lines))


def ffdh(cloud: Cloud) -> LineLayout:
    """First-fit decreasing height: tags may fill earlier, taller lines."""

    return _first_fit(cloud, _by_height(cloud))


def ffdhw(cloud: Cloud) -> LineLayout:
    """FFDH with decreasing width as the secondary sort key."""

    return _first_fit(cloud, _by_height_width(cloud))


def check_shuffle_count(k) -> None:
    """A shuffle count is a non-bool ``int`` >= 1; else InvalidInputError."""

    if isinstance(k, bool) or not isinstance(k, int):
        raise InvalidInputError(
            f"shuffle count must be an integer, got {type(k).__name__} {show_value(k)}")
    if k < 1:
        raise InvalidInputError(f"shuffle count must be >= 1, got {show_value(k)}")


def shuffle_best(cloud: Cloud, k: int = 10,
                 agg: BadnessAggregate = BadnessAggregate.SUM_OF_SQUARES,
                 seed: int = 0) -> LineLayout:
    """Best optimal breaking over k seeded random orders.

    Equal scores keep the earliest shuffle, so a given seed always
    reproduces the same layout.
    """

    check_shuffle_count(k)
    rng = random.Random(seed)
    best: tuple[int, int, LineLayout] | None = None
    for trial in range(k):
        order = list(range(len(cloud.tags)))
        rng.shuffle(order)
        layout = dp_break(cloud, order, agg)
        score = layout_badness(cloud, layout, agg)
        if best is None or (score, trial) < (best[0], best[1]):
            best = (score, trial, layout)
    return best[2]
