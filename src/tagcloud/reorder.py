"""Tag reordering heuristics borrowed from strip packing.

Treating each line as a shelf, packing tags sorted by decreasing
height wastes far less vertical space than arbitrary orders (Coffman,
Garey, Johnson and Tarjan, SIAM J. Comput. 1980).  NFDH closes a shelf
as soon as a tag does not fit; FFDH puts each tag on the first open
shelf with room for it, found in O(log lines) by descending a max tree
over the shelves' remaining room (Johnson, "Fast algorithms for bin
packing", JCSS 1974).  FFDHW additionally sorts equal-height tags by
decreasing width.  ``shuffle_best`` instead samples random orders,
scores each by the optimum one pass of its DP reaches, and breaks
only the best one into lines.
"""

from __future__ import annotations

import random
from typing import Sequence

from .inline import BadnessAggregate, _dp_score, dp_break
from .model import Cloud, InvalidInputError, LineLayout, check_seed, show_value

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
    """Each tag in ``order`` joins the first line whose remaining room
    covers it and its leading space, else opens a new line."""

    target, space = cloud.target_width, cloud.space_width
    tags = cloud.tags
    # room[size + li] is line li's remaining room, 0 before it opens (a
    # tag needs at least 1); room[v] is the max of its two children
    size = 1
    while size < len(order):
        size *= 2
    room = [0] * (2 * size)
    lines: list[list[int]] = []
    for idx in order:
        w = tags[idx].width
        need = w + space  # the tag plus its leading space
        if room[1] >= need:
            # the leftmost line with room: go left whenever the left subtree has it
            v = 1
            while v < size:
                v *= 2
                if room[v] < need:
                    v += 1
            lines[v - size].append(idx)
            left = room[v] - need
        else:
            v = size + len(lines)
            lines.append([idx])
            left = target - w
        room[v] = left
        v //= 2
        while v:
            a, b = room[2 * v], room[2 * v + 1]
            top = a if a > b else b
            if room[v] == top:
                break  # the maxima above are unchanged too
            room[v] = top
            v //= 2
    return LineLayout(tuple(map(tuple, lines)))


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

    Each order is scored by the optimum its DP reaches, the aggregate
    badness of the layout ``dp_break`` returns for it, in one pass that
    keeps only that number; only the winning order is broken into lines.
    Equal scores keep the earliest shuffle, so a given seed always
    reproduces the same layout.
    """

    check_shuffle_count(k)
    check_seed(seed)
    rng = random.Random(seed)
    best_order: list[int] = []
    best_score = None
    for _ in range(k):
        order = list(range(len(cloud.tags)))
        rng.shuffle(order)
        score = _dp_score(cloud, order, agg)
        if best_score is None or score < best_score:
            best_order, best_score = order, score
    return dp_break(cloud, best_order, agg)
