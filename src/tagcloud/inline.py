"""Line breaking for inline (text-flow) tag clouds.

A layout cuts the tag sequence into lines.  Each line is scored by its
badness: whitespace left at the end of the line plus whitespace above
tags shorter than the line's tallest tag, both weighted so the score is
the line's white area in pixels.  A whole layout is scored by folding
line badness through an aggregate (sum, sum of squares, or max).

``greedy_break`` fills lines first-come first-served; ``dp_break``
finds a layout minimizing the aggregate exactly via dynamic
programming over break positions.
"""

from __future__ import annotations

import enum
import operator
from typing import Iterable, Sequence

from .model import (
    DEFAULT_SPACE_WIDTH,
    Cloud,
    InfeasibleLineError,
    InvalidInputError,
    LineLayout,
)
from .metrics import _raise_layout_problem


class BadnessAggregate(enum.Enum):
    """How per-line badness folds into a layout score.

    Values double as the CLI spellings: l1 = sum, l2 = sum of squares
    (same argmin as the Euclidean norm), linf = max.
    """

    SUM = "l1"
    SUM_OF_SQUARES = "l2"
    MAX = "linf"

    @classmethod
    def from_name(cls, name: str) -> "BadnessAggregate":
        for member in cls:
            if member.value == name or member.name.lower() == name.lower():
                return member
        raise InvalidInputError(f"unknown aggregate {name!r} (use l1, l2, or linf)")


def line_badness(line_tags: Sequence[tuple[int, int]], target_width: int,
                 space_width: int = DEFAULT_SPACE_WIDTH) -> int:
    """Badness of one line of (width, height) boxes.

    slack = target - sum(widths) - (k-1)*space.  A negative slack is
    only legal for a single tag wider than the whole line (it simply
    overflows); two or more tags must fit, otherwise the line is
    infeasible.  Badness = H*|slack| + sum((H - h_i) * w_i) with H the
    tallest height on the line.
    """

    if not line_tags:
        raise InvalidInputError("line must hold at least one tag")
    widths = [w for w, _ in line_tags]
    heights = [h for _, h in line_tags]
    if min(widths) < 1 or min(heights) < 1:
        raise InvalidInputError("tag boxes must be at least 1x1")
    k = len(line_tags)
    slack = target_width - sum(widths) - (k - 1) * space_width
    if slack < 0 and k > 1:
        raise InfeasibleLineError(
            f"{k} tags need {target_width - slack} pixels but the line is {target_width}"
        )
    tallest = max(heights)
    return tallest * abs(slack) + sum((tallest - h) * w for w, h in line_tags)


def _check_agg(agg: BadnessAggregate) -> None:
    # a string or None would otherwise fall through to the sum or the max
    if not isinstance(agg, BadnessAggregate):
        raise InvalidInputError(f"agg must be a BadnessAggregate, got {type(agg).__name__}")


def aggregate(badness_values: Iterable[int], agg: BadnessAggregate) -> int:
    _check_agg(agg)
    values = list(badness_values)
    if not values:
        raise InvalidInputError("aggregate of an empty layout is undefined")
    if agg is BadnessAggregate.SUM:
        return sum(values)
    if agg is BadnessAggregate.SUM_OF_SQUARES:
        return sum(v * v for v in values)
    return max(values)


def line_badnesses(cloud: Cloud, layout: LineLayout) -> list[int]:
    """Per-line badness of an existing layout.

    One walk per line sums its widths and areas; an empty or overfull
    multi-tag line goes to ``line_badness`` for its message.
    """

    tags = cloud.tags
    target, space = cloud.target_width, cloud.space_width
    out = []
    for line in layout.lines:
        sum_w = sum_hw = tallest = 0
        try:
            for i in line:
                tag = tags[i]
                w, h = tag.width, tag.height
                sum_w += w
                sum_hw += w * h
                if h > tallest:
                    tallest = h
            if line and min(line) < 0:  # tags[i] took it from the end
                raise IndexError("negative tag index")
        except (TypeError, IndexError):  # an index that is not an int, or no tag's
            _raise_layout_problem(layout, cloud)
            raise
        slack = target - sum_w - (len(line) - 1) * space
        if line and (slack >= 0 or len(line) == 1):
            out.append(tallest * abs(slack) + tallest * sum_w - sum_hw)
        else:  # raises the line's message
            out.append(line_badness([(tags[i].width, tags[i].height) for i in line],
                                    target, space))
    return out


def layout_badness(cloud: Cloud, layout: LineLayout, agg: BadnessAggregate) -> int:
    return aggregate(line_badnesses(cloud, layout), agg)


def _check_order(n: int, order: Sequence[int] | None) -> list[int]:
    if order is None:
        return list(range(n))
    order = list(order)
    for i in order:
        if type(i) is not int:  # bool is no tag index
            raise InvalidInputError(f"order entries must be integers, got {type(i).__name__}")
    if sorted(order) != list(range(n)):
        raise InvalidInputError("order must be a permutation of all tag indices")
    return order


def greedy_break(cloud: Cloud, order: Sequence[int] | None = None) -> LineLayout:
    """First-fit line filling in the given order.

    A tag opens a new line when it no longer fits; a tag wider than the
    target width fits beside no other, so it always gets a line of its
    own.
    """

    order = _check_order(len(cloud.tags), order)
    target, space = cloud.target_width, cloud.space_width
    lines: list[list[int]] = []
    used = 0
    for idx in order:
        w = cloud.tags[idx].width
        if lines and used + space + w <= target:
            line.append(idx)
            used += space + w
        else:
            line = [idx]
            lines.append(line)
            used = w
    return LineLayout(tuple(map(tuple, lines)))


def _order_table(cloud: Cloud, order: list[int]) -> list[list[int]]:
    tags = cloud.tags
    return _line_table([tags[i].width for i in order], [tags[i].height for i in order],
                       cloud.target_width, cloud.space_width)


def _dp_score(cloud: Cloud, order: list[int], agg: BadnessAggregate) -> int:
    """The optimum ``dp_break(cloud, order, agg)`` reaches, which is the
    aggregate badness of the layout it returns, without building that
    layout.  ``order`` is taken as a permutation of the tag indices."""

    return _prefix_scores(_order_table(cloud, order), agg)[0][-1]


def dp_break(cloud: Cloud, order: Sequence[int] | None = None,
             agg: BadnessAggregate = BadnessAggregate.SUM_OF_SQUARES) -> LineLayout:
    """Optimal line breaking for the given order and aggregate.

    The last line is scored like any other.  Ties are broken toward
    fewer lines, then the lexicographically smallest sequence of line
    end positions, so results are reproducible.
    """

    order = _check_order(len(cloud.tags), order)
    _, reach, cap = _prefix_scores(_order_table(cloud, order), agg)
    lines = []
    prev = 0
    for end in _best_ends(reach, cap):
        lines.append(tuple(order[prev:end]))
        prev = end
    return LineLayout(tuple(lines))


def _line_table(widths: list[int], heights: list[int], target: int,
                space: int) -> list[list[int]]:
    """Badness of every feasible line, grouped by where the line ends.

    Row j lists the lines ending at tag j-1: entry i is the line holding
    tags j-1-i .. j-1, so line (v, j) is ``bad[j][j-1-v]`` when that
    index exists.  A row stops at the first overfull line, because
    growing a line leftward only adds width; the solo line is always
    there, even when it overflows.  Row 0 is empty.
    """

    # The line of tags k..j fits while their widths plus one space each
    # stay within target + space.  It then has slack = room - sum(w) with
    # room = target - (j - k) * space, so its badness, tallest * slack +
    # sum((tallest - h) * w), is tallest * room - sum(w * h).  A solo tag
    # wider than the line scores tallest * |slack| = h * (w - target),
    # and no longer line ending at it fits.
    cap = target + space
    spaced = [w + space for w in widths]
    areas = list(map(operator.mul, widths, heights))
    bad: list[list[int]] = [[]]
    for j, (w, h) in enumerate(zip(widths, heights)):
        if w > target:
            bad.append([h * (w - target)])
            continue
        used, sum_hw, tallest, room = spaced[j], areas[j], h, target
        row = [h * room - sum_hw]
        for k in range(j - 1, -1, -1):
            used += spaced[k]
            if used > cap:
                break
            sum_hw += areas[k]
            if heights[k] > tallest:
                tallest = heights[k]
            room -= space
            row.append(tallest * room - sum_hw)
        bad.append(row)
    return bad


def _prefix_scores(bad: list[list[int]], agg: BadnessAggregate):
    """Optimal score of every prefix, and what each line gives it.

    Returns ``(t, reach, cap)``: ``t[j]`` is the best aggregate over the
    first j tags; ``reach[j]`` is laid out like ``bad[j]`` and holds the
    score of prefix j when that line ends it on top of an optimal
    shorter prefix; ``cap[j]`` is the most a line ending at j may reach
    and still lie on an optimal layout.  Only this function knows the
    aggregate.

    For sums, ``cap`` is ``t`` itself: ``t[j] <= t[v] + cost`` always
    holds, so ``reach <= t[j]`` picks exactly the lines that end an
    optimal prefix, and the layouts scoring ``t[n]`` are exactly the
    paths over such lines.  For the max, ``cap`` is ``t[n]`` everywhere:
    every position reachable over lines no worse than ``t[n]`` has
    ``t[v] <= t[n]``, so ``max(t[v], cost) <= t[n]`` picks the same
    paths as ``cost <= t[n]``.
    """

    _check_agg(agg)
    square = agg is BadnessAggregate.SUM_OF_SQUARES
    op = max if agg is BadnessAggregate.MAX else operator.add
    t = [0]
    reach: list[list[int]] = [[]]
    for row in bad[1:]:
        # reversed(t) runs over t[j - 1 - i] for entry i of the row
        r = list(map(op, reversed(t), map(operator.mul, row, row) if square else row))
        reach.append(r)
        t.append(min(r))
    return t, reach, [t[-1]] * len(t) if agg is BadnessAggregate.MAX else t


def _best_ends(reach: list[list[int]], cap: list[int]) -> tuple[int, ...]:
    """End positions of the optimal layout with the fewest lines, then
    the lexicographically smallest ends.

    The lines with ``reach[j][j - 1 - v] <= cap[j]`` are the edges of a
    graph over break positions whose paths from 0 to n are exactly the
    optimal layouts (see ``_prefix_scores``).  One backward sweep over
    the rows records, as a bitmask per position, how many lines the rest
    of the cloud can take from there; a forward walk then takes, at each
    step, the earliest usable end that still completes the layout in the
    fewest lines.
    """

    n = len(reach) - 1
    # counts[v] bit c set <=> the suffix from v splits into exactly c usable lines
    counts = [0] * (n + 1)
    counts[n] = 1
    for j in range(n, 0, -1):  # counts[j] is complete once rows > j are done
        more = counts[j] << 1
        if not more:
            continue
        limit = cap[j]
        v = j
        for r in reach[j]:  # the lines starting at j - 1, j - 2, ...
            v -= 1
            if r <= limit:
                counts[v] |= more
    fewest = (counts[0] & -counts[0]).bit_length() - 1

    ends: list[int] = []
    v = 0
    for remaining in range(fewest, 0, -1):
        # lines from v run out together: once (v, j) is overfull, so is (v, j + 1)
        v = next(j for j in range(v + 1, n + 1)
                 if reach[j][j - 1 - v] <= cap[j] and counts[j] >> (remaining - 1) & 1)
        ends.append(v)
    return tuple(ends)
