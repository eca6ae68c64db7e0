import dataclasses
import json
import pathlib
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from tagcloud import (
    Cloud,
    InvalidInputError,
    RelationGraph,
    TagBox,
    cloud_from_json,
    cloud_to_json,
    estimate_box,
    font_size_pt,
    validate_cloud,
)
from tagcloud.model import MAX_PIXELS, MAX_TOTAL_STRENGTH

from .oracles import merged_edges


def test_font_scale():
    assert font_size_pt(0) == 8
    assert font_size_pt(9) == 44
    assert [font_size_pt(v) for v in range(10)] == list(range(8, 45, 4))


def test_estimate_box_anchors():
    small = estimate_box("a", 0)
    assert (small.width, small.height) == (6, 14)
    big = estimate_box("abcde", 9)
    assert (big.width, big.height) == (162, 74)


def test_estimate_box_is_exact_ceil():
    # 1.25em at 96dpi: ceil(5*size/3); 0.55em per char: ceil(11*size*n/15)
    for label in ("x", "word", "a" * 30):
        for weight in range(10):
            box = estimate_box(label, weight)
            size = 8 + 4 * weight
            assert box.height == (5 * size + 2) // 3
            assert box.width == (11 * size * len(label) + 14) // 15


def test_estimate_box_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        estimate_box("", 3)
    with pytest.raises(InvalidInputError):
        estimate_box("ok", 10)
    with pytest.raises(InvalidInputError):
        estimate_box("ok", -1)


def test_tagbox_area():
    assert TagBox("x", 1, 30, 20).area() == 600


def test_validate_cloud_collects_all_problems():
    with pytest.raises(InvalidInputError) as exc:
        Cloud(tags=(
            TagBox("", 12, 0, 20),
            TagBox("ok", 3, 30, 20),
        ), target_width=0, space_width=-1)
    assert str(exc.value) == "; ".join([
        "target_width must be >= 1, got 0",
        "space_width must be >= 0, got -1",
        "tag 0 (''): empty label",
        "tag 0 (''): weight range is 0..9, got 12",
        "tag 0 (''): width must be >= 1, got 0",
    ])


def test_cloud_checks_itself_when_replaced():
    cloud = Cloud(tags=(TagBox("ok", 3, 30, 20),), target_width=100)
    with pytest.raises(InvalidInputError) as exc:
        dataclasses.replace(cloud, target_width=0)
    assert str(exc.value) == "target_width must be >= 1, got 0"


@pytest.mark.parametrize("label, shown", [
    ("x" * 600_000, repr("x" * 40 + "…")),
    ("y" * 40, repr("y" * 40)),
])
def test_validate_cloud_caps_long_labels(label, shown):
    with pytest.raises(InvalidInputError) as exc:
        Cloud(tags=(TagBox(label, 1, 0, 20),), target_width=100)
    assert str(exc.value) == f"tag 0 ({shown}): width must be >= 1, got 0"


_OK = TagBox("a", 1, 10, 20)


@pytest.mark.parametrize("tag, fields, message", [
    pytest.param(_OK, {"target_width": 100.5}, "target_width must be an integer, got float",
                 id="float-target"),
    pytest.param(_OK, {"target_width": True}, "target_width must be an integer, got bool",
                 id="bool-target"),
    pytest.param(_OK, {"space_width": "4"}, "space_width must be an integer, got str",
                 id="str-space"),
    pytest.param(_OK, {"space_width": -2.0}, "space_width must be an integer, got float",
                 id="type-before-range"),
    # a non-string label is shown, not measured, and its type is named
    pytest.param(TagBox(5, 1, 0, 20), {},
                 "tag 0 (5): label must be a string, got int;"
                 " tag 0 (5): width must be >= 1, got 0", id="int-label"),
    pytest.param(TagBox(None, 1, 10, 20), {},
                 "tag 0 (None): label must be a string, got NoneType", id="none-label"),
    pytest.param(TagBox("a", True, 10, 20), {},
                 "tag 0 ('a'): weight must be an integer, got bool", id="bool-weight"),
    pytest.param(TagBox("a", 12.0, 10, 20), {},
                 "tag 0 ('a'): weight must be an integer, got float", id="float-weight"),
    pytest.param(TagBox("a", 1, 10.5, 20), {},
                 "tag 0 ('a'): width must be an integer, got float", id="float-width"),
    pytest.param(TagBox("a", 1, "10", 20), {},
                 "tag 0 ('a'): width must be an integer, got str", id="str-width"),
    pytest.param(TagBox("a", 1, 10, False), {},
                 "tag 0 ('a'): height must be an integer, got bool", id="bool-height"),
    pytest.param(TagBox("a", 1, 10, Decimal(-3)), {},
                 "tag 0 ('a'): height must be an integer, got Decimal", id="decimal-height"),
    pytest.param(TagBox("a", 1, 10.5, 20), {"target_width": 100.5},
                 "target_width must be an integer, got float;"
                 " tag 0 ('a'): width must be an integer, got float", id="float-area"),
])
def test_cloud_rejects_fields_of_the_wrong_type(tag, fields, message):
    with pytest.raises(InvalidInputError) as exc:
        Cloud(**{"tags": (tag,), "target_width": 100, **fields})
    assert str(exc.value) == message


def test_relation_graph_normalizes_and_merges():
    assert RelationGraph(((2, 1, 1.0),)).edges == ((1, 2, 1.0),)
    g = RelationGraph([(3, 1, 2.0), (1, 3, 1.0), (0, 2, 5)])
    assert g.edges == ((0, 2, 5), (1, 3, 3.0))
    assert dataclasses.replace(g, edges=((3, 2, 1.0), (2, 3, 1.0))).edges == ((2, 3, 2.0),)
    adj = g.adjacency()
    assert adj[3] == [(1, 3.0)]
    assert adj[0] == [(2, 5)]


_CHAIN = [(i, i + 1, 1 + i % 3) for i in range(500)]  # 500 sorted edges


class _Strength(int):
    """An int subclass: a graph stores ``0 + s``, a plain int."""


@pytest.mark.parametrize("make", [
    pytest.param(lambda raw: raw, id="sorted-list"),
    pytest.param(lambda raw: zip(*zip(*raw)), id="zip"),
    pytest.param(lambda raw: (e for e in raw), id="generator"),
    pytest.param(lambda raw: raw[::-1], id="unsorted"),
    pytest.param(lambda raw: raw + raw[:7], id="duplicates"),
    pytest.param(lambda raw: raw[:10] + raw[9:], id="one-repeat"),
    pytest.param(lambda raw: [(b, a, s) for a, b, s in raw], id="reversed"),
    pytest.param(lambda raw: raw[:200] + [(b, a, s) for a, b, s in raw[200:]],
                 id="reversed-tail"),
    pytest.param(lambda raw: [(0, 700, 2)] + raw, id="top-first"),
    pytest.param(lambda raw: [(a, b, np.float64(s)) for a, b, s in raw], id="numpy-strengths"),
    pytest.param(lambda raw: [(a, b, _Strength(s)) for a, b, s in raw], id="int-subclass"),
    pytest.param(lambda raw: [], id="empty"),
])
def test_relation_graph_stores_the_merged_sorted_edges(make):
    raw = _CHAIN + [(500, 640, 2.5), (501, 502, 4)]
    graph = RelationGraph(make(raw))
    edges, top = merged_edges(make(raw))
    assert graph.edges == edges
    assert [type(s) for _, _, s in graph.edges] == [type(s) for _, _, s in edges]
    assert graph._top == top


def test_relation_graph_builds_adjacency_once():
    g = RelationGraph([(0, 1, 1), (1, 2, 2)])
    assert g.adjacency() is g.adjacency()
    same = RelationGraph([(1, 0, 1), (2, 1, 2)])
    assert g == same and hash(g) == hash(same)
    assert RelationGraph().adjacency() == {}


def test_relation_graph_rejects_bad_edges():
    with pytest.raises(InvalidInputError):
        RelationGraph([(2, 2, 1.0)])
    with pytest.raises(InvalidInputError):
        RelationGraph([(0, 1, 0.0)])
    with pytest.raises(InvalidInputError):
        RelationGraph([(-1, 1, 1.0)])


@pytest.mark.parametrize("raw, match", [
    ([(0, 1, float("nan"))], "finite"),
    ([(0, 1, float("inf"))], "finite"),
    ([(0, 1, 10 ** 400)], "finite"),          # an int no float can hold
    ([(0, 1, 1e301)], "finite"),
    ([(0, 1, 6e299), (1, 0, 6e299)], "total strength"),  # one merged pair
    ([(0, 1, 6e299), (2, 3, 6e299)], "total strength"),
    ([(True, 2, 1)], "endpoints must be integers"),
    ([(0, False, 1)], "endpoints must be integers"),
])
def test_relation_graph_rejects_non_finite_and_bool_edges(raw, match):
    with pytest.raises(InvalidInputError, match=match):
        RelationGraph(raw)


_FINITE = f"strength must be positive and finite (at most {MAX_TOTAL_STRENGTH:g}), got"
_TOTAL = f"total strength exceeds {MAX_TOTAL_STRENGTH:g}"
# 10 ** 400 as messages quote it: its first 40 digits, then a cut mark
_HUGE = "1" + "0" * 39 + "…"


@pytest.mark.parametrize("raw, message", [
    pytest.param([(True, 2, 1)], "edge (True,2): endpoints must be integers", id="bool-endpoint"),
    # A float endpoint once reached layout_mincut, which failed with
    # "external neighbor 0.5 of the group has no assigned side"; an
    # integral one went into JSON that cloud_from_json rejects.
    pytest.param([(0.5, 1, 3), (0, 2, 1)], "edge (0.5,1): endpoints must be integers",
                 id="float-endpoint"),
    pytest.param([(0.0, 1, 2)], "edge (0.0,1): endpoints must be integers",
                 id="integral-float-endpoint"),
    pytest.param([(0, 1, 1), (3, 3, 1.0)], "self-loop on tag 3", id="self-loop"),
    # These once escaped as TypeError, or (True) were stored as 1.
    pytest.param([(0, 1, "2")], "edge (0,1): strength must be a number", id="str-strength"),
    pytest.param([(0, 1, 1), (2, 1, Decimal(2))], "edge (2,1): strength must be a number",
                 id="decimal-strength"),
    pytest.param([(0, 1, None)], "edge (0,1): strength must be a number", id="none-strength"),
    pytest.param([(0, 1, True)], "edge (0,1): strength must be a number", id="bool-strength"),
    pytest.param([(2, 2, "2")], "self-loop on tag 2", id="self-loop-before-strength-type"),
    pytest.param([(0, 1, 0.0)], f"edge (0,1): {_FINITE} 0.0", id="zero"),
    pytest.param([(0, 1, float("nan"))], f"edge (0,1): {_FINITE} nan", id="nan"),
    pytest.param([(1, 0, float("inf"))], f"edge (1,0): {_FINITE} inf", id="inf"),
    pytest.param([(0, 1, 10 ** 400)], f"edge (0,1): {_FINITE} {_HUGE}", id="huge-int"),
    pytest.param([(0, 1, 1), (-1, 1, 1.0)], "edge (-1,1): negative tag index", id="negative"),
    pytest.param([(0, 1, 6e299), (2, 3, 6e299)], f"edge (2,3): {_TOTAL}", id="total"),
    pytest.param([(0, 1, 6e299), (1, 0, 6e299)], f"edge (0,1): {_TOTAL}", id="total-merged"),
    pytest.param([(0, 1, 6e299), (2, 3, 6e299), (4, 4, 1)], "self-loop on tag 4",
                 id="total-then-self-loop"),
    # the one bad edge comes after 500 sorted good ones
    pytest.param(_CHAIN + [(7, 7, 1)], "self-loop on tag 7", id="sorted-then-self-loop"),
    pytest.param(_CHAIN + [(700, -1, 1)], "edge (700,-1): negative tag index",
                 id="sorted-then-negative"),
    pytest.param(_CHAIN + [(700, 701, "1")], "edge (700,701): strength must be a number",
                 id="sorted-then-str-strength"),
    pytest.param(_CHAIN + [(700, 701, float("nan"))], f"edge (700,701): {_FINITE} nan",
                 id="sorted-then-nan"),
    pytest.param(_CHAIN + [(700, 701.0, 1)], "edge (700,701.0): endpoints must be integers",
                 id="sorted-then-float-endpoint"),
    pytest.param(_CHAIN + [(0, 1, 1), (5, 5, 1)], "self-loop on tag 5",
                 id="sorted-repeat-then-self-loop"),
    pytest.param(_CHAIN + [(600, 601, 6e299), (602, 603, 6e299)], f"edge (602,603): {_TOTAL}",
                 id="sorted-then-total"),
])
def test_relation_graph_error_messages_are_exact(raw, message):
    with pytest.raises(InvalidInputError) as exc:
        RelationGraph(raw)
    assert str(exc.value) == message
    with pytest.raises(InvalidInputError) as exc:
        dataclasses.replace(RelationGraph(), edges=raw)
    assert str(exc.value) == message


def test_relation_graph_checks_strength_and_total():
    for bad in (float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(InvalidInputError, match="finite"):
            RelationGraph(((0, 1, bad),))
    assert RelationGraph(((0, 1, 1e300),)).edges == ((0, 1, 1e300),)
    with pytest.raises(InvalidInputError, match="total strength"):
        RelationGraph(((0, 1, 6e299), (1, 2, 6e299)))


# An int past Python's 4300-digit limit for str once raised a plain
# ValueError while its message was formatted; it is shown by its size.
_B = 10 ** 5000
_BIG = f"<{_B.bit_length()}-bit int>"


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Cloud(tags=(TagBox("a", 1, _B, 3),), target_width=100),
                 f"tag 0 ('a'): width must be <= {MAX_PIXELS}, got {_BIG}", id="width"),
    pytest.param(lambda: Cloud(tags=(TagBox("a", _B, 5, 3),), target_width=100),
                 f"tag 0 ('a'): weight range is 0..9, got {_BIG}", id="weight"),
    pytest.param(lambda: Cloud(tags=(TagBox("a", 1, 5, 3),), target_width=_B),
                 f"target_width must be <= {MAX_PIXELS}, got {_BIG}", id="target-width"),
    pytest.param(lambda: RelationGraph([(0, 1, _B)]), f"edge (0,1): {_FINITE} {_BIG}",
                 id="strength"),
    pytest.param(lambda: RelationGraph([(_B, _B, 1)]), f"self-loop on tag {_BIG}",
                 id="self-loop"),
    pytest.param(lambda: RelationGraph([(-_B, 1, 1)]), f"edge (-{_BIG},1): negative tag index",
                 id="negative-endpoint"),
    pytest.param(lambda: RelationGraph([(0, _B, 1)]).check_fits(3),
                 f"edge (0,{_BIG}): tag index out of range 0..2", id="check-fits"),
    pytest.param(lambda: estimate_box("a", _B), f"weight must be in 0..9, got {_BIG}",
                 id="estimate-box"),
])
def test_ints_past_the_digit_limit_are_invalid_input(build, message):
    with pytest.raises(InvalidInputError) as exc:
        build()
    assert str(exc.value) == message


def test_check_fits_index_bounds():
    g = RelationGraph(((0, 5, 1.0),))
    with pytest.raises(InvalidInputError) as exc:
        g.check_fits(3)
    assert str(exc.value) == "edge (0,5): tag index out of range 0..2"
    g.check_fits(6)
    RelationGraph().check_fits(1)


def test_json_round_trip_without_graph():
    cloud = Cloud(tags=(TagBox("alpha", 2, 40, 18), TagBox("beta", 7, 90, 50)),
                  target_width=300, space_width=6)
    back, graph = cloud_from_json(cloud_to_json(cloud))
    assert back == cloud
    assert graph is None


def test_json_round_trip_with_graph():
    cloud = Cloud(tags=(TagBox("a", 0, 10, 14), TagBox("b", 1, 12, 17)),
                  target_width=100)
    g = RelationGraph([(0, 1, 2.5)])
    back, graph2 = cloud_from_json(cloud_to_json(cloud, g))
    assert back == cloud
    assert graph2 == g


def test_readme_cloud_example_parses():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    example = re.search(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    cloud, graph = cloud_from_json(example.group(1))
    assert cloud.tags == (estimate_box("gardens", 9), estimate_box("flowers", 4))
    assert [(t.width, t.height) for t in cloud.tags] == [(226, 74), (124, 40)]
    assert graph.edges == ((0, 1, 5.0),)


def test_json_strict_schema():
    with pytest.raises(InvalidInputError):
        cloud_from_json("[1, 2]")
    with pytest.raises(InvalidInputError):
        cloud_from_json("{not json")
    with pytest.raises(InvalidInputError):
        cloud_from_json(json.dumps({"tags": []}))  # no target_width
    doc = {"target_width": 100, "tags": [{"label": "x", "weight": 1,
                                          "width": 10, "height": 12}]}
    cloud_from_json(json.dumps(doc))  # baseline is fine

    bad = dict(doc, target_width=True)  # bools are not sizes
    with pytest.raises(InvalidInputError):
        cloud_from_json(json.dumps(bad))

    bad = dict(doc, tags=[{"label": "x", "weight": 1, "width": 10}])
    with pytest.raises(InvalidInputError, match="height"):
        cloud_from_json(json.dumps(bad))

    bad = dict(doc, tags=[{"label": 3, "weight": 1, "width": 10, "height": 12}])
    with pytest.raises(InvalidInputError, match="label"):
        cloud_from_json(json.dumps(bad))


def test_json_rejects_out_of_range_graph():
    doc = {
        "target_width": 100,
        "tags": [{"label": "x", "weight": 1, "width": 10, "height": 12}],
        "edges": [{"a": 0, "b": 4, "strength": 1}],
    }
    with pytest.raises(InvalidInputError, match="out of range"):
        cloud_from_json(json.dumps(doc))


@pytest.mark.parametrize("edge, match", [
    ('{"a": 0, "b": 1, "strength": NaN}', "finite"),
    ('{"a": 0, "b": 1, "strength": Infinity}', "finite"),
    ('{"a": 0, "b": 1, "strength": -Infinity}', "finite"),
    ('{"a": 0, "b": 1, "strength": 1e400}', "finite"),
    ('{"a": true, "b": 2, "strength": 1}', "endpoints must be integers"),
    ('{"a": 0, "b": false, "strength": 1}', "endpoints must be integers"),
])
def test_json_rejects_bad_edges(edge, match):
    tags = ", ".join('{"label": "%s", "weight": 1, "width": 10, "height": 12}' % c
                     for c in "xyz")
    text = '{"target_width": 100, "tags": [%s], "edges": [%s]}' % (tags, edge)
    with pytest.raises(InvalidInputError, match=match):
        cloud_from_json(text)


_TAG = {"label": "x", "weight": 1, "width": 10, "height": 12}
_EDGE = {"a": 0, "b": 1, "strength": 1}


def _doc(**fields):
    """A two-tag document with ``fields`` replaced."""
    return json.dumps({"target_width": 100, "tags": [_TAG, _TAG], **fields})


def _with(base, **fields):
    """``base`` with ``fields`` replaced; a None value drops the field."""
    out = {**base, **fields}
    return {k: v for k, v in out.items() if v is not None}


@pytest.mark.parametrize("text, message", [
    (json.dumps([1]), "top-level JSON value must be an object"),
    (json.dumps({"tags": []}), "missing field: target_width"),
    (json.dumps({"target_width": 100}), "missing or invalid field: tags"),
    (json.dumps({"target_width": 100, "tags": {}}), "missing or invalid field: tags"),
    (_doc(target_width="wide"), "target_width must be an integer, got str"),
    (_doc(target_width=True), "target_width must be an integer, got bool"),
    (_doc(space_width=2.5), "space_width must be an integer, got float"),
    (_doc(space_width=False), "space_width must be an integer, got bool"),
    (_doc(tags=[_TAG, "x"]), "tags[1] must be an object"),
    (_doc(tags=[_TAG, _with(_TAG, label=None)]), "tags[1]: missing field label"),
    (_doc(tags=[_TAG, _with(_TAG, weight=None)]), "tags[1]: missing field weight"),
    (_doc(tags=[_TAG, _with(_TAG, width=None)]), "tags[1]: missing field width"),
    (_doc(tags=[_TAG, _with(_TAG, height=None)]), "tags[1]: missing field height"),
    (_doc(tags=[_TAG, _with(_TAG, label=7)]), "tag 1 (7): label must be a string, got int"),
    (_doc(tags=[_TAG, _with(_TAG, weight=1.5)]),
     "tag 1 ('x'): weight must be an integer, got float"),
    (_doc(tags=[_TAG, _with(_TAG, width=False)]),
     "tag 1 ('x'): width must be an integer, got bool"),
    (_doc(tags=[_TAG, _with(_TAG, height="12")]),
     "tag 1 ('x'): height must be an integer, got str"),
    (_doc(edges={}), "edges must be a list"),
    (_doc(edges=[_EDGE, 3]), "edges[1] must be an object"),
    (_doc(edges=[_EDGE, _with(_EDGE, a=None)]), "edges[1]: missing field a"),
    (_doc(edges=[_EDGE, _with(_EDGE, b=None)]), "edges[1]: missing field b"),
    (_doc(edges=[_EDGE, _with(_EDGE, strength=None)]), "edges[1]: missing field strength"),
    (_doc(edges=[_EDGE, _with(_EDGE, a=1.0)]), "edge (1.0,1): endpoints must be integers"),
    (_doc(edges=[_EDGE, _with(_EDGE, strength="1")]), "edge (0,1): strength must be a number"),
    (_doc(edges=[_EDGE, _with(_EDGE, a=1)]), "self-loop on tag 1"),
    (_doc(edges=[_with(_EDGE, strength=-1)]),
     f"edge (0,1): strength must be positive and finite (at most {MAX_TOTAL_STRENGTH:g}), got -1"),
    (_doc(edges=[_EDGE, _with(_EDGE, a=4, b=0), _with(_EDGE, a=1, b=3)]),
     "edge (0,4): tag index out of range 0..1; edge (1,3): tag index out of range 0..1"),
    (_doc(tags=[_TAG, _with(_TAG, label="", weight=10, width=0, height=-1)]),
     "tag 1 (''): empty label; tag 1 (''): weight range is 0..9, got 10;"
     " tag 1 (''): width must be >= 1, got 0; tag 1 (''): height must be >= 1, got -1"),
    (_doc(target_width=MAX_PIXELS + 1), f"target_width must be <= {MAX_PIXELS}, got {MAX_PIXELS + 1}"),
    (_doc(space_width=10 ** 400), f"space_width must be <= {MAX_PIXELS}, got {_HUGE}"),
    (_doc(tags=[_TAG, _with(_TAG, width=10 ** 400, height=MAX_PIXELS + 1)]),
     f"tag 1 ('x'): width must be <= {MAX_PIXELS}, got {_HUGE};"
     f" tag 1 ('x'): height must be <= {MAX_PIXELS}, got {MAX_PIXELS + 1}"),
    # The cloud is checked before the graph: a bad tag is named first.
    (_doc(tags=[_TAG, _with(_TAG, width=0)], edges=[_with(_EDGE, a=0.5)]),
     "tag 1 ('x'): width must be >= 1, got 0"),
    # The one bad tag or edge is the last of 1000.
    pytest.param(_doc(tags=[_TAG] * 999 + [[]]), "tags[999] must be an object",
                 id="last-tag-not-object"),
    pytest.param(_doc(tags=[_TAG] * 999 + [_with(_TAG, height=None)]),
                 "tags[999]: missing field height", id="last-tag-missing-field"),
    pytest.param(_doc(tags=[_TAG] * 999 + [_with(_TAG, weight="1")]),
                 "tag 999 ('x'): weight must be an integer, got str", id="last-tag-bad-value"),
    pytest.param(_doc(edges=[_EDGE] * 999 + ["a"]), "edges[999] must be an object",
                 id="last-edge-not-object"),
    pytest.param(_doc(edges=[_EDGE] * 999 + [_with(_EDGE, strength=None)]),
                 "edges[999]: missing field strength", id="last-edge-missing-field"),
    pytest.param(_doc(edges=[_EDGE] * 999 + [_with(_EDGE, b=0)]), "self-loop on tag 0",
                 id="last-edge-bad-value"),
    pytest.param(_doc(tags=[_TAG] * 999 + [{}], edges=[_EDGE] * 999 + [None]),
                 "tags[999]: missing field label", id="last-tag-before-last-edge"),
])
def test_json_error_messages_are_exact(text, message):
    with pytest.raises(InvalidInputError) as exc:
        cloud_from_json(text)
    assert str(exc.value) == message


# One value of each JSON type, and the types each field may hold.
_JSON_VALUES = {"null": None, "bool": True, "int": 3, "float": 2.5, "string": "7",
                "list": [1], "object": {"k": 1}}
_FIELD_TYPES = {"target_width": {"int"}, "space_width": {"int"}, "label": {"string"},
                "weight": {"int"}, "width": {"int"}, "height": {"int"},
                "a": {"int"}, "b": {"int"}, "strength": {"int", "float"}}


@pytest.mark.parametrize("field, kind", [
    (field, kind) for field, types in _FIELD_TYPES.items()
    for kind in _JSON_VALUES if kind not in types])
def test_json_values_are_checked_by_the_library(field, kind):
    # The reader leaves value rules to Cloud and RelationGraph, so a
    # document fails with the message of building them directly.
    value = _JSON_VALUES[kind]
    tag = TagBox(**_TAG)
    if field in _EDGE:
        text = _doc(edges=[_EDGE, {**_EDGE, field: value}])
        direct = lambda: RelationGraph([(0, 1, 1), tuple({**_EDGE, field: value}.values())])
    elif field in _TAG:
        text = _doc(tags=[_TAG, {**_TAG, field: value}])
        direct = lambda: Cloud(tags=(tag, TagBox(**{**_TAG, field: value})), target_width=100)
    else:
        text = _doc(**{field: value})
        direct = lambda: Cloud(**{"tags": (tag, tag), "target_width": 100, field: value})
    with pytest.raises(InvalidInputError) as want:
        direct()
    with pytest.raises(InvalidInputError) as got:
        cloud_from_json(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("field, message", [
    ("label", "tag 1 ({}…): label must be a string, got list"),
    ("a", "edge ({}…,1): endpoints must be integers"),
])
def test_json_values_of_any_size_are_clipped_in_messages(field, message):
    # Built directly, a 100000-item label once gave a 300042-character message.
    big = [0] * 100000
    if field in _EDGE:
        text = _doc(edges=[{**_EDGE, field: big}])
    else:
        text = _doc(tags=[_TAG, {**_TAG, field: big}])
    with pytest.raises(InvalidInputError) as exc:
        cloud_from_json(text)
    assert str(exc.value) == message.format("[" + "0, " * 13)  # 40 characters


@pytest.mark.parametrize("text, detail", [
    pytest.param("[" * 100000 + "]" * 100000, "recursion", id="deep-nesting"),
    pytest.param('{"target_width": %s, "tags": []}' % ("9" * 5000), "4300",
                 id="long-integer"),
])
def test_json_too_deep_or_too_long_is_invalid_input(text, detail):
    with pytest.raises(InvalidInputError, match=f"^not valid JSON: .*{detail}"):
        cloud_from_json(text)


def test_json_rejects_invalid_cloud_values():
    doc = {"target_width": 100,
           "tags": [{"label": "x", "weight": 11, "width": 10, "height": 12}]}
    with pytest.raises(InvalidInputError, match="weight range"):
        cloud_from_json(json.dumps(doc))


labels = st.text(st.characters(min_codepoint=33, max_codepoint=0x24F), min_size=1, max_size=12)
tag_boxes = st.builds(
    TagBox,
    label=labels,
    weight=st.integers(0, 9),
    width=st.integers(1, 400),
    height=st.integers(1, 120),
)


@given(st.lists(tag_boxes, min_size=1, max_size=8), st.integers(1, 900), st.integers(0, 12))
def test_json_round_trip_property(tags, target, space):
    cloud = Cloud(tags=tuple(tags), target_width=target, space_width=space)
    back, _ = cloud_from_json(cloud_to_json(cloud))
    assert back == cloud


# Mostly valid raw edges: distinct integer endpoints in 0..7, with now
# and then a float or boolean endpoint, and strengths from small
# integers to past the total bound.
_endpoints = st.sampled_from([0.0, True] + list(range(8)) * 6)
_strengths = st.one_of(
    st.integers(1, 10 ** 6),
    st.floats(min_value=0, max_value=MAX_TOTAL_STRENGTH, exclude_min=True),
    st.sampled_from([MAX_TOTAL_STRENGTH / 13, MAX_TOTAL_STRENGTH / 2, MAX_TOTAL_STRENGTH]),
)
_raw_edges = st.lists(st.tuples(_endpoints, st.integers(1, 7), _strengths).map(
    lambda e: (e[0], (int(e[0]) + e[1]) % 8, e[2])), min_size=1, max_size=10)


@given(_raw_edges, st.integers(0, 2))
@example([(0.0, 1, 2)], 0)
# Summed in this order the strengths stay within the bound; merged and
# in sorted order, as the JSON stores them, they pass it.
@example([(2, 3, 1.6444152535397159e+299), (2, 3, 8.426085805350081e+298),
          (2, 1, 1.0376150565834709e+299), (3, 2, 1.6821211761077313e+299),
          (0, 2, 1.3228659626548222e+299), (0, 1, 8.893920267665438e+298),
          (0, 2, 4.0541199420660896e+298), (1, 0, 5.934060449111175e+298),
          (1, 2, 1.2786323438737463e+299), (1, 0, 3.0353156082123684e+298)], 0)
def test_graph_json_round_trip_property(raw, extra):
    try:
        graph = RelationGraph(raw)
    except InvalidInputError:
        assume(False)
    n = max(j for _, j, _ in graph.edges) + 1 + extra
    cloud = Cloud(tags=(TagBox("t", 1, 10, 12),) * n, target_width=100)
    _, back = cloud_from_json(cloud_to_json(cloud, graph))
    assert back == graph


def test_pixel_bound_is_inclusive():
    edge = TagBox("x", 1, MAX_PIXELS, MAX_PIXELS)
    cloud = Cloud(tags=(edge,), target_width=MAX_PIXELS, space_width=MAX_PIXELS)
    assert validate_cloud(cloud) == []
    assert cloud_from_json(cloud_to_json(cloud))[0] == cloud
