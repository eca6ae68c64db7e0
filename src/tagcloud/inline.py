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
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import (
    DEFAULT_SPACE_WIDTH,
    Cloud,
    InfeasibleLineError,
    InvalidInputError,
    LineLayout,
)


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


def aggregate(badness_values: Iterable[int], agg: BadnessAggregate) -> int:
    values = list(badness_values)
    if not values:
        raise InvalidInputError("aggregate of an empty layout is undefined")
    if agg is BadnessAggregate.SUM:
        return sum(values)
    if agg is BadnessAggregate.SUM_OF_SQUARES:
        return sum(v * v for v in values)
    return max(values)


def line_badnesses(cloud: Cloud, layout: LineLayout) -> list[int]:
    """Per-line badness of an existing layout."""

    return [
        line_badness([(cloud.tags[i].width, cloud.tags[i].height) for i in line],
                     cloud.target_width, cloud.space_width)
        for line in layout.lines
    ]


def layout_badness(cloud: Cloud, layout: LineLayout, agg: BadnessAggregate) -> int:
    return aggregate(line_badnesses(cloud, layout), agg)


def _check_order(n: int, order: Sequence[int] | None) -> list[int]:
    if order is None:
        return list(range(n))
    order = list(order)
    if sorted(order) != list(range(n)):
        raise InvalidInputError("order must be a permutation of all tag indices")
    return order


def greedy_break(cloud: Cloud, order: Sequence[int] | None = None) -> LineLayout:
    """First-fit line filling in the given order.

    A tag opens a new line when it no longer fits; a tag wider than the
    target width always gets a line of its own.
    """

    if not cloud.tags:
        raise InvalidInputError("cloud has no tags")
    order = _check_order(len(cloud.tags), order)
    target, space = cloud.target_width, cloud.space_width
    lines: list[tuple[int, ...]] = []
    current: list[int] = []
    used = 0
    for idx in order:
        w = cloud.tags[idx].width
        if w > target:
            if current:
                lines.append(tuple(current))
                current, used = [], 0
            lines.append((idx,))
            continue
        if not current:
            current, used = [idx], w
        elif used + space + w > target:
            lines.append(tuple(current))
            current, used = [idx], w
        else:
            current.append(idx)
            used += space + w
    if current:
        lines.append(tuple(current))
    return LineLayout(tuple(lines))


def _prepare(cloud: Cloud, order: Sequence[int] | None):
    """Checked order and the line table of the tags taken in it."""

    if not cloud.tags:
        raise InvalidInputError("cloud has no tags")
    order = _check_order(len(cloud.tags), order)
    widths = [cloud.tags[i].width for i in order]
    heights = [cloud.tags[i].height for i in order]
    return order, _line_table(widths, heights, cloud.target_width, cloud.space_width)


def dp_break(cloud: Cloud, order: Sequence[int] | None = None,
             agg: BadnessAggregate = BadnessAggregate.SUM_OF_SQUARES) -> LineLayout:
    """Optimal line breaking for the given order and aggregate.

    The last line is scored like any other.  Ties are broken toward
    fewer lines, then the lexicographically smallest sequence of line
    end positions, so results are reproducible.
    """

    order, bad = _prepare(cloud, order)
    if agg is BadnessAggregate.MAX:
        ends = _solve_minimax(bad, _minimax_scores(bad))
    else:
        ends = _solve_additive(bad, square=agg is BadnessAggregate.SUM_OF_SQUARES)[-1][2]
    lines = []
    prev = 0
    for end in ends:
        lines.append(tuple(order[prev:end]))
        prev = end
    return LineLayout(tuple(lines))


@dataclass(frozen=True)
class BreakTable:
    """DP internals exposed for inspection.

    ``t[j]`` is the optimal aggregate over the first j tags; ``K[j]``
    the start of the final line in the layout chosen for that prefix
    (K[0] is 0 and unused).  Following n, K[n], K[K[n]], ... back to 0
    reproduces the chosen break positions, and t never decreases along
    that chain.
    """

    t: tuple[int, ...]
    K: tuple[int, ...]


def break_table(cloud: Cloud, order: Sequence[int] | None = None,
                agg: BadnessAggregate = BadnessAggregate.SUM_OF_SQUARES) -> BreakTable:
    _, bad = _prepare(cloud, order)
    if agg is BadnessAggregate.MAX:
        t = _minimax_scores(bad)
        # off the chosen chain, K[j] is the smallest start reaching t[j]
        K = [0] + [min(j - 1 - i for i, b in enumerate(bad[j]) if max(t[j - 1 - i], b) == t[j])
                   for j in range(1, len(bad))]
        prev = 0
        for end in _solve_minimax(bad, t):
            K[end] = prev
            prev = end
        return BreakTable(t=tuple(t), K=tuple(K))
    states = _solve_additive(bad, square=agg is BadnessAggregate.SUM_OF_SQUARES)
    return BreakTable(t=tuple(s[0] for s in states),
                      K=tuple(e[-2] if len(e) >= 2 else 0 for _, _, e in states))


def _line_table(widths: list[int], heights: list[int], target: int,
                space: int) -> list[list[int]]:
    """Badness of every feasible line, grouped by where the line ends.

    Row j lists the lines ending at tag j-1: entry i is the line holding
    tags j-1-i .. j-1, so line (v, j) is ``bad[j][j-1-v]`` when that
    index exists.  A row stops at the first overfull line, because
    growing a line leftward only adds width; the solo line is always
    there, even when it overflows.  Row 0 is empty.
    """

    bad: list[list[int]] = [[]]
    for j in range(1, len(widths) + 1):
        row = []
        sum_w = sum_hw = tallest = 0
        for k in range(j - 1, -1, -1):
            sum_w += widths[k]
            sum_hw += widths[k] * heights[k]
            if heights[k] > tallest:
                tallest = heights[k]
            slack = target - sum_w - (j - 1 - k) * space
            if slack < 0 and k < j - 1:
                break
            row.append(tallest * abs(slack) + tallest * sum_w - sum_hw)
        bad.append(row)
    return bad


def _solve_additive(bad: list[list[int]], square: bool):
    """DP over prefixes; state = (score, line count, end positions).

    Returns the best state of every prefix.  Python tuple comparison
    implements the tie-break exactly: states order by score, then fewer
    lines, then lexicographic ends.  Appending a line preserves that
    order (additive scores are strictly monotone), so one best state
    per prefix suffices.  Every candidate for prefix j appends the same
    end j to ends of equal length whenever score and count tie, so the
    previous ends decide the tie and j is appended once, to the winner.
    """

    best = [(0, 0, ())]
    for j in range(1, len(bad)):
        # prev runs over best[j - 1 - i] for entry i of the row
        score, count, ends = min((prev[0] + (b * b if square else b), prev[1] + 1, prev[2])
                                 for b, prev in zip(bad[j], reversed(best)))
        best.append((score, count, ends + (j,)))
    return best


def _minimax_scores(bad: list[list[int]]) -> list[int]:
    """Optimal worst-line score of every prefix."""

    t = [0]
    for j in range(1, len(bad)):
        t.append(min(map(max, reversed(t), bad[j])))
    return t


def _solve_minimax(bad: list[list[int]], t: list[int]) -> tuple[int, ...]:
    """Minimize the worst line, then line count, then lexicographic ends.

    ``t`` (from ``_minimax_scores``) gives the optimal worst line
    ``t[n]``, but the tie-break cannot ride along (max() is not
    strictly monotone).  So the lines of the table scoring no worse
    than ``t[n]`` are the edges of a graph over break positions.  One
    backward sweep over the rows records, as a bitmask per position,
    how many lines the rest of the cloud can take from there; a forward
    walk then takes, at each step, the earliest admissible end that
    still completes the layout in the fewest lines.
    """

    n = len(bad) - 1
    limit = t[n]
    # counts[v] bit c set <=> the suffix from v splits into exactly c lines
    counts = [0] * (n + 1)
    counts[n] = 1
    for j in range(n, 0, -1):  # counts[j] is complete once rows > j are done
        reach = counts[j] << 1
        for i, b in enumerate(bad[j]):
            if b <= limit:
                counts[j - 1 - i] |= reach
    fewest = (counts[0] & -counts[0]).bit_length() - 1

    ends: list[int] = []
    v = 0
    for remaining in range(fewest, 0, -1):
        # lines from v run out together: once (v, j) is overfull, so is (v, j + 1)
        v = next(j for j in range(v + 1, n + 1)
                 if bad[j][j - 1 - v] <= limit and counts[j] >> (remaining - 1) & 1)
        ends.append(v)
    return tuple(ends)
