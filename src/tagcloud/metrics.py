"""Evaluation metrics shared by tests and the benchmark harness."""

from __future__ import annotations

import math

from .model import (
    Cloud,
    InvalidInputError,
    LineLayout,
    PlacedCloud,
    Placement,
    RelationGraph,
)


def bbox_area(placed: PlacedCloud) -> float:
    """Bounding box area in kilopixels."""

    w, h = placed.bbox
    return w * h / 1000


def weighted_distance(placed: PlacedCloud, graph: RelationGraph) -> float:
    """Sum of strength-weighted distances between related tags.

    Distances are measured between lower-left corners, i.e. (x, y +
    height) with y growing downward.
    """

    corners = {p.tag: (p.x, p.y + p.height) for p in placed.placements}
    total = 0.0
    for i, j, s in graph.edges:
        if i not in corners or j not in corners:
            raise InvalidInputError(f"edge ({i},{j}) references an unplaced tag")
        total += s * math.dist(corners[i], corners[j])
    return total


def layout_to_placement(layout: LineLayout, cloud: Cloud) -> PlacedCloud:
    """Give a line layout absolute pixel coordinates.

    Lines stack top to bottom at their tallest tag's height; tags sit
    left-aligned with space-width gaps and top-aligned within the line.
    The box width is the target width unless some solo overfull line
    runs wider.
    """

    tags = cloud.tags
    target, space = cloud.target_width, cloud.space_width
    slots: list[Placement | None] = [None] * len(tags)
    y = placed = 0
    bbox_w = target
    try:
        for line in layout.lines:
            placed += len(line)
            x = line_h = 0
            for idx in line:
                tag = tags[idx]
                if idx < 0 or slots[idx] is not None:
                    raise LookupError
                slots[idx] = Placement(idx, x, y, tag.width, tag.height)
                x += tag.width + space
                if tag.height > line_h:
                    line_h = tag.height
            line_w = x - space
            if line_w > target:
                if len(line) > 1:
                    raise LookupError
                bbox_w = max(bbox_w, line_w)
            elif not line:
                raise LookupError
            y += line_h
        if placed != len(tags):  # no index repeats, so some slot is empty
            raise LookupError
        if any(type(p.tag) is bool for p in slots[:2]):  # False took slot 0, True slot 1
            raise TypeError
    except (LookupError, TypeError):
        _raise_layout_problem(layout, cloud)
        raise
    return PlacedCloud(tuple(slots), (bbox_w, y))


def _raise_layout_problem(layout: LineLayout, cloud: Cloud) -> None:
    """Raise for the first thing wrong with ``layout``: a non-int tag index,
    a tag not placed exactly once, the first empty or overfull multi-tag line."""

    flat = [i for line in layout.lines for i in line]
    for i in flat:
        if type(i) is not int:  # bool is no tag index
            raise InvalidInputError(f"layout entries must be integers, got {type(i).__name__}")
    if sorted(flat) != list(range(len(cloud.tags))):
        raise InvalidInputError("layout does not place every tag exactly once")
    for line in layout.lines:
        if not line:
            raise InvalidInputError("layout contains an empty line")
        line_w = sum(cloud.tags[i].width for i in line) + (len(line) - 1) * cloud.space_width
        if line_w > cloud.target_width and len(line) > 1:
            raise InvalidInputError("multi-tag line exceeds the target width")
