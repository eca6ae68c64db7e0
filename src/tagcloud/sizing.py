"""Sizing and placement of slicing-tree floorplans.

Every node of a slicing tree carries a list of candidate shapes
(Otten 1982; Stockmeyer 1983).  A shape is a plain tuple: a leaf's is
the caller's ``(width, height)`` pair (the tag's default box plus
optional squeezed/stretched variants), and a cut's is ``(width,
height, first, second)``, where ``first`` and ``second`` are the child
shapes it packs.  Internal lists are combined from the child lists in
one bottom-up walk, each merge one O(a + b) sweep over lists of a and
b shapes, with no set and no sort.  They stay small because they hold
no dominated shape (wider *and* taller than another), and nodes go by
post-order position.  Only the root's list is compared: the root shape
chosen under the width budget leads via its child shapes to pixel
placements.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .tree import Leaf, Node
from .model import (Cloud, InternalError, InvalidInputError, PlacedCloud, Placement, TagBox,
                    show_value)

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
    """A non-empty tuple or list (the merges index it) of positive-int
    ``(w, h)`` tuples, ``w`` rising and ``h`` falling."""

    if not isinstance(shapes, (tuple, list)):
        return False
    last_w, last_h = 0, float("inf")
    for shape in shapes:
        if type(shape) is not tuple or len(shape) != 2:
            return False
        w, h = shape
        if type(w) is not int or type(h) is not int or not (last_w < w and 1 <= h < last_h):
            return False
        last_w, last_h = w, h
    return last_w > 0  # some shape was seen


def gen_shape_options(tag: TagBox, variants: int = 3) -> ShapeList:
    """Candidate boxes for one tag.

    With three variants the width is scaled by 0.85/1.0/1.15 and the
    height rounded to preserve area; variants whose rounded area drifts
    more than 15% from the original (tiny boxes, mostly) are dropped.
    The default box itself can only drop out when a narrower variant
    rounds to the same height and therefore dominates it.
    """

    if isinstance(variants, bool) or not isinstance(variants, int):
        raise InvalidInputError(f"variants must be an integer, got {type(variants).__name__}")
    if variants not in _VARIANT_FACTORS:
        raise InvalidInputError(
            f"variants must be one of {sorted(_VARIANT_FACTORS)}, got {show_value(variants)}")
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


def combine_shapes(tree: Node, leaf_shapes: Mapping[int, ShapeList]
                   ) -> dict[int, Sequence[tuple]]:
    """Shape lists keyed by post-order position, root last.

    A leaf's list is its ``leaf_shapes`` entry, used as given once
    checked; leaves that share one list object check it once per call.
    A V node sets children side by side (widths add, plus the side
    gap); an H node stacks them (heights add).  One walk sizes the
    tree, each call returning its node's list to the parent.  A merge
    sweeps the heights (V) or widths (H) of both child lists, pairing
    the cheapest child shapes that fit into a ``(width, height, first,
    second)`` shape.  Each step advances the child owning the swept
    value, which becomes the candidate's own, so the other dimension
    moves strictly the other way: no candidate is dominated, and list
    sizes stay near the sum of the children's.  A merge of lists of a
    and b shapes takes at most a + b steps, with no set and no sort.
    """

    if not isinstance(leaf_shapes, Mapping):
        raise InvalidInputError(
            f"leaf_shapes must map tag indices to shape lists, got {type(leaf_shapes).__name__}")
    table: dict[int, Sequence[tuple]] = {}
    # ids of the leaf lists already checked; the table keeps each alive
    checked: set[int] = set()

    def size(node: Node) -> Sequence[tuple]:
        if isinstance(node, Leaf):
            shapes = leaf_shapes.get(node.tag)
            if id(shapes) not in checked:
                if not is_shape_list(shapes):
                    raise InvalidInputError(
                        f"leaf {node.tag}: needs a list of (width, height) pairs"
                        " of positive ints, widths rising, heights falling")
                checked.add(id(shapes))
        else:
            merge = _combine_beside if node.orient == "V" else _combine_stacked
            shapes = merge(size(node.first), size(node.second))
        table[len(table)] = shapes
        return shapes

    size(tree)
    return table


def _combine_beside(first: Sequence[tuple], second: Sequence[tuple]) -> tuple:
    # sweep the heights down from the tallest: pair the current shapes,
    # the narrowest of each child under the taller of the two, then step
    # past the child owning that height (both on a tie)
    cands = []
    ia = ib = 0
    na, nb = len(first), len(second)
    while ia < na and ib < nb:
        a, b = first[ia], second[ib]
        ha, hb = a[1], b[1]
        cands.append((a[0] + SIDE_GAP + b[0], ha if ha >= hb else hb, a, b))
        if ha >= hb:
            ia += 1
        if hb >= ha:
            ib += 1
    return tuple(cands)


def _combine_stacked(first: Sequence[tuple], second: Sequence[tuple]) -> tuple:
    # the same sweep over the widths, down from the widest child shapes
    cands = []
    ia, ib = len(first) - 1, len(second) - 1
    while ia >= 0 and ib >= 0:
        a, b = first[ia], second[ib]
        wa, wb = a[0], b[0]
        cands.append((wa if wa >= wb else wb, a[1] + b[1], a, b))
        if wa >= wb:
            ia -= 1
        if wb >= wa:
            ib -= 1
    return tuple(reversed(cands))


def select_and_place(tree: Node, root_shapes: Sequence[tuple],
                     target_width: int) -> PlacedCloud:
    """Pick the root shape and expand it into pixel placements.

    ``root_shapes`` is the last entry of ``combine_shapes``' table.  The
    minimum-area shape fitting the width budget is taken (ties: the
    shorter one), or else the narrowest.  Each cut's ``(width, height,
    first, second)`` shape leads down the tree, a leaf's gives its box.
    Children go flush to their region's top-left; the second child of a
    V node starts after the side gap.
    """

    if not root_shapes:
        raise InvalidInputError("tree has no shapes at the root")
    fitting = [c for c in root_shapes if c[0] <= target_width]
    if fitting:
        chosen = min(fitting, key=lambda c: (c[0] * c[1], c[1]))
    else:
        chosen = min(root_shapes, key=lambda c: c[0])
    placements: list[Placement] = []

    def place(node: Node, shape: tuple, x: int, y: int) -> None:
        if isinstance(node, Leaf):
            placements.append(Placement(node.tag, x, y, shape[0], shape[1]))
            return
        if len(shape) != 4:
            raise InternalError("internal node shape lost its child choices")
        w, h, a, b = shape
        if node.orient == "V":
            expect = (a[0] + SIDE_GAP + b[0], max(a[1], b[1]))
        else:
            expect = (max(a[0], b[0]), a[1] + b[1])
        if expect != (w, h):
            raise InternalError(
                f"shape provenance mismatch at {node.orient} node: "
                f"recorded {(w, h)}, children give {expect}"
            )
        place(node.first, a, x, y)
        if node.orient == "V":
            place(node.second, b, x + a[0] + SIDE_GAP, y)
        else:
            place(node.second, b, x, y + a[1])

    place(tree, chosen, 0, 0)
    placements.sort(key=lambda p: p.tag)
    return PlacedCloud(tuple(placements), (chosen[0], chosen[1]))


def default_leaf_shapes(cloud: Cloud, variants: int = 3) -> dict[int, ShapeList]:
    """Each tag's ``gen_shape_options``, made once per distinct box and shared."""

    by_box: dict[tuple[int, int], ShapeList] = {}
    for tag in cloud.tags:
        if (tag.width, tag.height) not in by_box:
            by_box[tag.width, tag.height] = gen_shape_options(tag, variants)
    return {i: by_box[tag.width, tag.height] for i, tag in enumerate(cloud.tags)}
