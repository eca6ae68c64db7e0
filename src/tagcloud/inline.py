"""Line breaking for inline (text-flow) tag clouds.

A layout cuts the tag sequence into lines.  Each line is scored by its
badness: whitespace left at the end of the line plus whitespace above
tags shorter than the line's tallest tag, both weighted so the score is
the line's white area in pixels.  A whole layout is scored by folding
line badness through an aggregate (sum, sum of squares, or max).

``greedy_break`` fills lines first-come first-served; ``dp_break``
finds a layout minimizing the aggregate exactly via dynamic
programming over break positions (Knuth and Plass, 1981): one pass from
the last tag back (two for the max) records, for every position, the
best score of the tags from there on and where that suffix's first line
ends, and the layout follows those ends from the first tag.
"""

from __future__ import annotations

import enum
import itertools
from typing import Iterable, Sequence

from .model import (
    DEFAULT_SPACE_WIDTH,
    Cloud,
    InfeasibleLineError,
    InvalidInputError,
    LineLayout,
    _pixel_problem,
    show_value,
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
        if isinstance(name, str):
            for member in cls:
                if member.value == name or member.name.lower() == name.lower():
                    return member
        shown = repr(name) if isinstance(name, str) else show_value(name)
        raise InvalidInputError(f"unknown aggregate {shown} (use l1, l2, or linf)")


def line_badness(line_tags: Sequence[tuple[int, int]], target_width: int,
                 space_width: int = DEFAULT_SPACE_WIDTH) -> int:
    """Badness of one line of (width, height) boxes.

    slack = target - sum(widths) - (k-1)*space.  A negative slack is
    only legal for a single tag wider than the whole line (it simply
    overflows); two or more tags must fit, otherwise the line is
    infeasible.  Badness = H*|slack| + sum((H - h_i) * w_i) with H the
    tallest height on the line.  Boxes, target and space follow the
    pixel rules a ``Cloud`` applies; else InvalidInputError, also for
    a line that is not a tuple or list.
    """

    if not isinstance(line_tags, (tuple, list)):
        raise InvalidInputError(
            f"line must be a list of (width, height) pairs, got {type(line_tags).__name__}")
    if not line_tags:
        raise InvalidInputError("line must hold at least one tag")
    problems = [_pixel_problem("target_width", target_width, 1),
                _pixel_problem("space_width", space_width, 0)]
    for i, box in enumerate(line_tags):
        if isinstance(box, (tuple, list)) and len(box) == 2:
            problems += (_pixel_problem(f"box {i} width", box[0], 1),
                         _pixel_problem(f"box {i} height", box[1], 1))
        else:
            problems.append(f"box {i} must be a (width, height) pair, got {show_value(box)}")
    problem = next(filter(None, problems), None)
    if problem:
        raise InvalidInputError(problem)
    widths = [w for w, _ in line_tags]
    heights = [h for _, h in line_tags]
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

    One walk per line sums its widths and areas.  An index that is no
    int or no tag's, or an empty line, raises ``layout_to_placement``'s
    message; an overfull multi-tag line goes to ``line_badness`` for its.
    """

    tags = cloud.tags
    target, space = cloud.target_width, cloud.space_width
    if set(map(type, itertools.chain.from_iterable(layout.lines))) - {int}:  # bool is no index
        _raise_layout_problem(layout, cloud)
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
            if not line or min(line) < 0:  # tags[i] took a negative one from the end
                raise IndexError("empty line or negative tag index")
        except IndexError:
            _raise_layout_problem(layout, cloud)
            raise
        slack = target - sum_w - (len(line) - 1) * space
        if slack >= 0 or len(line) == 1:
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
    if set(map(type, order)) - {int}:  # bool is no tag index
        bad = next(i for i in order if type(i) is not int)
        raise InvalidInputError(f"order entries must be integers, got {type(bad).__name__}")
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


def _dp_score(cloud: Cloud, order: list[int], agg: BadnessAggregate) -> int:
    """The optimum ``dp_break(cloud, order, agg)`` reaches, which is the
    aggregate badness of the layout it returns, without building that
    layout.  ``order`` is taken as a permutation of the tag indices."""

    return _suffix_optima(cloud, order, agg)[0][0]


def dp_break(cloud: Cloud, order: Sequence[int] | None = None,
             agg: BadnessAggregate = BadnessAggregate.SUM_OF_SQUARES) -> LineLayout:
    """Optimal line breaking for the given order and aggregate.

    The last line is scored like any other.  Ties are broken toward
    fewer lines, then the lexicographically smallest sequence of line
    end positions, so results are reproducible.  ``_suffix_optima``
    ranks every suffix by score, then line count, and records where its
    shortest best first line ends; following those ends from tag 0
    gives the smallest ends.  A suffix cannot see the max of the lines
    before it, so for the max one plain pass finds the optimum T first,
    and a second pass counts lines over the lines no worse than T.
    """

    order = _check_order(len(cloud.tags), order)
    n = len(order)
    base = _dp_score(cloud, order, agg) * (n + 1) if agg is BadnessAggregate.MAX else 0
    ends = _suffix_optima(cloud, order, agg, n + 1, base)[1]
    lines = []
    v = 0
    while v < n:
        lines.append(tuple(order[v:ends[v]]))
        v = ends[v]
    return LineLayout(tuple(lines))


def _suffix_optima(cloud: Cloud, order: list[int], agg: BadnessAggregate,
                   scale: int = 1, base: int = 0) -> tuple[list[int], list[int]]:
    """Best key ``key[v]`` of every suffix ``order[v:]``, and the end
    ``ends[v]`` of its shortest line reaching that key, in one
    right-to-left pass from ``key[n] = base``.

    Each tag starts the lines grown rightward from it up to the first
    overfull one (the solo line is always there, even overflowing).
    Each line's badness is folded through the aggregate onto the best
    key after it; the first line to reach the minimum keeps it.  With
    ``scale`` 1 the key is the suffix's optimal score.  ``dp_break``
    passes ``scale = n + 1``: every pixel length grows by n + 1, so a
    line's badness grows by n + 1 (or (n + 1)**2 squared), and a scaled
    key adds 1 per line, once per position, not per candidate; a suffix
    has at most n lines, so the key orders suffixes by score, then line
    count.  For the max, a base of T * (n + 1) with T the unscaled
    optimum keeps the count of every suffix laid out over lines no worse
    than T, and puts any suffix that needs a worse line above all of
    those.
    """

    # The line of tags v..k fits while their widths plus one space each
    # stay within target + space.  It then has slack = room - sum(w) with
    # room = target - (k - v) * space, so its badness, tallest * slack +
    # sum((tallest - h) * w), is tallest * room - sum(w * h).  A solo tag
    # wider than the line scores tallest * |slack| = h * (w - target).
    _check_agg(agg)
    square = agg is BadnessAggregate.SUM_OF_SQUARES
    worst = agg is BadnessAggregate.MAX
    step = 1 if scale > 1 else 0
    target, space = cloud.target_width * scale, cloud.space_width * scale
    cap = target + space
    boxes = [(tag.width * scale + space, tag.width * tag.height * scale, tag.height)
             for tag in map(cloud.tags.__getitem__, order)]
    n = len(boxes)
    key = [base] * (n + 1)
    ends = [0] * n
    for v in range(n - 1, -1, -1):
        used, sum_hw, tallest = boxes[v]
        room = target
        b = abs(tallest * target - sum_hw)
        after = key[v + 1]
        best = after + b * b if square else max(b, after) if worst else after + b
        end = k = v + 1
        while k < n:
            spaced, hw, h = boxes[k]
            used += spaced
            if used > cap:
                break
            sum_hw += hw
            if h > tallest:
                tallest = h
            room -= space
            b = tallest * room - sum_hw
            k += 1
            after = key[k]
            s = after + b * b if square else (b if b > after else after) if worst else after + b
            if s < best:
                best = s
                end = k
        key[v] = best + step
        ends[v] = end
    return key, ends
