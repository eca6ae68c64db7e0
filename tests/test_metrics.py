import math

import pytest

from tagcloud import (
    Cloud,
    InvalidInputError,
    LineLayout,
    PlacedCloud,
    Placement,
    RelationGraph,
    TagBox,
    bbox_area,
    layout_to_placement,
    weighted_distance,
)


def test_bbox_area_is_kilopixels():
    placed = PlacedCloud(placements=(), bbox=(550, 200))
    assert bbox_area(placed) == 110.0


def test_weighted_distance_uses_lower_left_corners():
    placed = PlacedCloud(placements=(
        Placement(0, 0, 0, 10, 10),    # lower-left (0, 10)
        Placement(1, 30, 40, 10, 10),  # lower-left (30, 50)
    ), bbox=(40, 50))
    g = RelationGraph([(0, 1, 2.0)])
    assert weighted_distance(placed, g) == 2.0 * math.hypot(30, 40)


def test_weighted_distance_sums_over_edges():
    placed = PlacedCloud(placements=(
        Placement(0, 0, 0, 10, 10),
        Placement(1, 10, 0, 10, 10),
        Placement(2, 20, 0, 10, 10),
    ), bbox=(30, 10))
    g = RelationGraph([(0, 1, 1.0), (0, 2, 3.0)])
    assert weighted_distance(placed, g) == 10 + 3 * 20


def test_weighted_distance_rejects_dangling_edges():
    placed = PlacedCloud(placements=(Placement(0, 0, 0, 10, 10),), bbox=(10, 10))
    g = RelationGraph([(0, 3, 1.0)])
    with pytest.raises(InvalidInputError):
        weighted_distance(placed, g)


def sample_cloud():
    return Cloud(tags=(
        TagBox("a", 1, 60, 20),
        TagBox("b", 1, 40, 30),
        TagBox("c", 1, 50, 10),
    ), target_width=128, space_width=4)


def test_layout_to_placement_stacks_lines():
    placed = layout_to_placement(LineLayout(((0, 1), (2,))), sample_cloud())
    by = placed.by_tag()
    assert (by[0].x, by[0].y) == (0, 0)
    assert (by[1].x, by[1].y) == (64, 0)   # 60 + 4 space
    assert (by[2].x, by[2].y) == (0, 30)   # below the 30px first line
    assert placed.bbox == (128, 40)


def test_layout_to_placement_solo_overflow_widens_bbox():
    cloud = Cloud(tags=(TagBox("wide", 1, 200, 20), TagBox("b", 1, 40, 10)),
                  target_width=128)
    placed = layout_to_placement(LineLayout(((0,), (1,))), cloud)
    assert placed.bbox == (200, 30)


_NOT_ONCE = "layout does not place every tag exactly once"
_EMPTY = "layout contains an empty line"
_OVERFULL = "multi-tag line exceeds the target width"


@pytest.mark.parametrize("lines, message", [
    (((0, 1),), _NOT_ONCE),  # missing a tag
    (((0, 1), (2,), ()), _EMPTY),
    (((0, 1, 2),), _OVERFULL),  # two tags that cannot share a 128px line
    # a missing or repeated tag is named before any line
    (((0, 1), ()), _NOT_ONCE),
    (((), (0, 1)), _NOT_ONCE),
    (((0, 1, 2), (2,)), _NOT_ONCE),
    (((0, 1, 2), (-1,)), _NOT_ONCE),
    (((0, 1), (-1,)), _NOT_ONCE),  # -1 is no name for tag 2
    (((0, 1, 2, 3),), _NOT_ONCE),
    # then the first empty or overfull multi-tag line
    (((0, 1, 2), ()), _OVERFULL),
    (((), (0, 1, 2)), _EMPTY),
])
def test_layout_to_placement_rejects_bad_layouts(lines, message):
    with pytest.raises(InvalidInputError) as exc:
        layout_to_placement(LineLayout(lines), sample_cloud())
    assert str(exc.value) == message


@pytest.mark.parametrize("lines, kind", [
    (((0, 1.0), (2,)), "float"),  # 1.0 == 1, so the entries look like a permutation
    (((0, 1), (2.0,)), "float"),
    (((0, 1), ("2",)), "str"),
    (((0, 1.0), (2, 3)), "float"),  # named before the extra tag
])
def test_layout_to_placement_names_a_non_integer_entry(lines, kind):
    with pytest.raises(InvalidInputError) as exc:
        layout_to_placement(LineLayout(lines), sample_cloud())
    assert str(exc.value) == f"layout entries must be integers, got {kind}"


def test_layout_to_placement_double_use_detected():
    cloud = sample_cloud()
    with pytest.raises(InvalidInputError):
        layout_to_placement(LineLayout(((0, 1), (1,), (2,))), cloud)
    with pytest.raises(InvalidInputError):
        # same tag count, but tag 1 never placed
        layout_to_placement(LineLayout(((0, 0), (2,))), cloud)
