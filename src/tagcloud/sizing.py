"""Sizing and placement of slicing-tree floorplans.

Every node of a slicing tree carries a list of candidate (width,
height) shapes: leaves get the tag's default box plus optional
squeezed/stretched variants, internal nodes combine child lists in one
bottom-up walk (Otten 1982; Stockmeyer 1983).  The lists stay small
because they hold no dominated shape (wider *and* taller than
another).  Each internal shape points at the two child shapes it
packs, so once one root shape is selected under the width budget,
following those links yields absolute pixel placements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .tree import Leaf, Node
from .model import Cloud, InternalError, InvalidInputError, PlacedCloud, Placement, TagBox

# Pixels of white kept to the left of a tag placed beside another.
SIDE_GAP = 2

# Width multipliers for alternative shapes, as exact fractions.
_VARIANT_FACTORS = {
    1: ((1, 1),),
    3: ((17, 20), (1, 1), (23, 20)),  # 0.85, 1.0, 1.15
}

# Alternative shapes must stay within 15% of the default area.
_AREA_TOLERANCE = 0.15

ShapeList = tuple[tuple[int, int], ...]


def _round_div(p: int, q: int) -> int:
    """round(p/q) with halves up, in exact integer arithmetic."""

    return (2 * p + q) // (2 * q)


def prune_shapes(candidates: Sequence[tuple[int, int]]) -> ShapeList:
    """Sort by width and drop dominated entries.

    The result has strictly increasing widths and strictly decreasing
    heights, so it reads as the trade-off curve of the node.
    """

    kept: list[tuple[int, int]] = []
    for w, h in sorted(set(candidates)):
        # a narrower-or-equal entry that is not taller dominates this one
        if not kept or h < kept[-1][1]:
            kept.append((w, h))
    return tuple(kept)


def is_shape_list(shapes: Sequence[tuple[int, int]]) -> bool:
    if not shapes:
        return False
    for (w1, h1), (w2, h2) in zip(shapes, shapes[1:]):
        if not (w1 < w2 and h1 > h2):
            return False
    return all(w >= 1 and h >= 1 for w, h in shapes)


def gen_shape_options(tag: TagBox, variants: int = 3) -> ShapeList:
    """Candidate boxes for one tag.

    With three variants the width is scaled by 0.85/1.0/1.15 and the
    height rounded to preserve area; variants whose rounded area drifts
    more than 15% from the original (tiny boxes, mostly) are dropped.
    The default box itself can only drop out when a narrower variant
    rounds to the same height and therefore dominates it.
    """

    if variants not in _VARIANT_FACTORS:
        raise InvalidInputError(f"variants must be one of {sorted(_VARIANT_FACTORS)}, got {variants}")
    if tag.width < 1 or tag.height < 1:
        raise InvalidInputError(f"tag {tag.label!r} has a degenerate box")
    area = tag.width * tag.height
    out = []
    for num, den in _VARIANT_FACTORS[variants]:
        w = _round_div(tag.width * num, den)
        if w < 1:
            continue
        h = _round_div(area, w)
        if h < 1:
            continue
        if abs(w * h - area) > _AREA_TOLERANCE * area:
            continue
        out.append((w, h))
    return prune_shapes(out)


@dataclass(frozen=True)
class ShapeChoice:
    """One packed shape of a node plus where it came from.

    ``first``/``second`` are the child nodes' choices this shape packs;
    they are None on leaves.
    """

    width: int
    height: int
    first: ShapeChoice | None = None
    second: ShapeChoice | None = None


def shape_list(choices: Sequence[ShapeChoice]) -> ShapeList:
    return tuple((c.width, c.height) for c in choices)


def combine_shapes(tree: Node, leaf_shapes: Mapping[int, ShapeList]
                   ) -> dict[Node, tuple[ShapeChoice, ...]]:
    """Bottom-up shape lists for every node of the tree.

    A V node sets children side by side (widths add, plus the side
    gap); an H node stacks them (heights add).  One walk sizes the
    tree, each call returning its node's list to the parent.  A merge
    sweeps the heights (V) or widths (H) of both child lists, pairing
    the cheapest child shapes that fit.  Each step advances the child
    owning the swept value, which becomes the candidate's own, so the
    other dimension moves strictly the other way: no candidate is
    dominated, and list sizes stay near the sum of the children's.
    """

    table: dict[Node, tuple[ShapeChoice, ...]] = {}

    def size(node: Node) -> tuple[ShapeChoice, ...]:
        if isinstance(node, Leaf):
            shapes = leaf_shapes.get(node.tag)
            if not shapes or not is_shape_list(shapes):
                raise InvalidInputError(f"leaf {node.tag}: missing or unsorted shape list")
            choices = tuple(ShapeChoice(w, h) for w, h in shapes)
        else:
            merge = _combine_beside if node.orient == "V" else _combine_stacked
            choices = merge(size(node.first), size(node.second))
        table[node] = choices
        return choices

    size(tree)
    return table


def _combine_beside(first: Sequence[ShapeChoice],
                    second: Sequence[ShapeChoice]) -> tuple[ShapeChoice, ...]:
    # candidate heights: any height present on either side; for each,
    # take the narrowest child shapes that fit under it
    heights = sorted({c.height for c in first} | {c.height for c in second}, reverse=True)
    cands: list[ShapeChoice] = []
    ia = ib = 0
    for h in heights:
        while ia < len(first) and first[ia].height > h:
            ia += 1
        while ib < len(second) and second[ib].height > h:
            ib += 1
        if ia == len(first) or ib == len(second):
            break  # one side cannot get this flat
        a, b = first[ia], second[ib]
        cands.append(ShapeChoice(a.width + SIDE_GAP + b.width, h, a, b))
    return tuple(cands)


def _combine_stacked(first: Sequence[ShapeChoice],
                     second: Sequence[ShapeChoice]) -> tuple[ShapeChoice, ...]:
    widths = sorted({c.width for c in first} | {c.width for c in second})
    cands: list[ShapeChoice] = []
    ia = ib = -1
    for w in widths:
        while ia + 1 < len(first) and first[ia + 1].width <= w:
            ia += 1
        while ib + 1 < len(second) and second[ib + 1].width <= w:
            ib += 1
        if ia < 0 or ib < 0:
            continue  # one side needs more width
        a, b = first[ia], second[ib]
        cands.append(ShapeChoice(w, a.height + b.height, a, b))
    return tuple(cands)


def select_and_place(tree: Node, node_shapes: Mapping[Node, tuple[ShapeChoice, ...]],
                     target_width: int) -> PlacedCloud:
    """Pick the root shape and expand choices into pixel placements.

    Selection takes the minimum-area root shape fitting the width
    budget (ties: the shorter one); when nothing fits, the narrowest
    shape.  Only the root's list is read from ``node_shapes``: the
    chosen shape's child links lead down the tree.  Children go flush
    to their region's top-left; the second child of a V node starts
    after the side gap.
    """

    root = node_shapes.get(tree)
    if not root:
        raise InvalidInputError("tree has no shapes at the root")
    fitting = [c for c in root if c.width <= target_width]
    if fitting:
        chosen = min(fitting, key=lambda c: (c.width * c.height, c.height))
    else:
        chosen = min(root, key=lambda c: c.width)
    placements: list[Placement] = []

    def place(node: Node, choice: ShapeChoice, x: int, y: int) -> None:
        if isinstance(node, Leaf):
            placements.append(Placement(node.tag, x, y, choice.width, choice.height))
            return
        a, b = choice.first, choice.second
        if a is None or b is None:
            raise InternalError("internal node shape lost its child choices")
        if node.orient == "V":
            expect = (a.width + SIDE_GAP + b.width, max(a.height, b.height))
        else:
            expect = (max(a.width, b.width), a.height + b.height)
        if expect != (choice.width, choice.height):
            raise InternalError(
                f"shape provenance mismatch at {node.orient} node: "
                f"recorded {(choice.width, choice.height)}, children give {expect}"
            )
        place(node.first, a, x, y)
        if node.orient == "V":
            place(node.second, b, x + a.width + SIDE_GAP, y)
        else:
            place(node.second, b, x, y + a.height)

    place(tree, chosen, 0, 0)
    placements.sort(key=lambda p: p.tag)
    return PlacedCloud(tuple(placements), (chosen.width, chosen.height))


def default_leaf_shapes(cloud: Cloud, variants: int = 3) -> dict[int, ShapeList]:
    return {i: gen_shape_options(tag, variants) for i, tag in enumerate(cloud.tags)}
