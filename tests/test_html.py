import random
from html.parser import HTMLParser

import pytest

from tagcloud import (Cloud, InvalidInputError, LineLayout, TagBox, dp_break, layout_mincut,
                      layout_to_placement, line_badnesses)
from tagcloud.htmlgen import LINE_HEIGHT, emit_css, emit_inline, emit_nested_tables
from tagcloud.synthetic import random_cloud
from tagcloud.tree import Cut, Leaf
from .conftest import make_cloud
from .structure import cut_count


class Collector(HTMLParser):
    """Counts structure and checks tag nesting while parsing."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.counts = {}
        self.stack = []
        self.spans = []
        self.table_cells = []  # (table depth marker, cells in current row set)
        self.errors = []
        self._span_class = None
        self._text = []

    def handle_starttag(self, tag, attrs):
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if tag in ("div", "table", "tr", "td", "span", "a", "html", "body", "head", "style", "title"):
            self.stack.append(tag)
        if tag in ("span", "a"):
            self._span_class = dict(attrs).get("class", "")
            self._text = []

    def handle_endtag(self, tag):
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()
        elif tag in ("div", "table", "tr", "td", "span", "a"):
            self.errors.append(f"mismatched </{tag}>")
        if tag in ("span", "a") and self._span_class is not None:
            self.spans.append((self._span_class, "".join(self._text)))
            self._span_class = None

    def handle_data(self, data):
        if self._span_class is not None:
            self._text.append(data)


def parse(html: str) -> Collector:
    c = Collector()
    c.feed(html)
    assert not c.errors, c.errors
    assert c.stack == [], c.stack
    return c


def test_css_covers_all_weight_levels():
    css = emit_css()
    for level in range(10):
        assert f".tag{level} {{ font-size: {8 + 4 * level}pt; }}" in css
    assert f"line-height: {LINE_HEIGHT}" in css
    assert LINE_HEIGHT == "1.25"
    assert ".narrow" in css and ".wide" in css


def sample():
    cloud = Cloud(tags=(
        TagBox("alpha", 0, 30, 14),
        TagBox("beta & <gamma>", 9, 200, 74),
        TagBox("delta", 3, 60, 25),
    ), target_width=300)
    layout = LineLayout(((0, 1), (2,)))
    return cloud, layout


def test_emit_inline_structure():
    cloud, layout = sample()
    html = emit_inline(layout, cloud)
    c = parse(html)
    assert c.counts["span"] == 3
    assert c.counts["br"] == 1           # lines - 1
    assert c.counts["style"] == 1
    classes = [cls for cls, _ in c.spans]
    assert classes == ["tag0", "tag9", "tag3"]


def test_emit_inline_escapes_labels():
    cloud, layout = sample()
    html = emit_inline(layout, cloud)
    assert "beta &amp; &lt;gamma&gt;" in html
    # the parser unescapes it back
    c = parse(html)
    assert ("tag9", "beta & <gamma>") in c.spans


def test_emit_inline_validates_layout():
    cloud, _ = sample()
    with pytest.raises(InvalidInputError):
        emit_inline(LineLayout(((0, 1),)), cloud)


def scored(layout, cloud):
    return line_badnesses(cloud, layout)


@pytest.mark.parametrize("lines, message", [
    (((0, 1), (2,), (-1,)), "layout does not place every tag exactly once"),
    (((0, "x"), (2,)), "layout entries must be integers, got str"),  # was a TypeError
    (((0, 1.0), (2,)), "layout entries must be integers, got float"),  # was a TypeError
    (((True, 0), (2,)), "layout entries must be integers, got bool"),  # rendered
    (((0,), (False, 2)), "layout entries must be integers, got bool"),
    (((0,), (), (1, 2)), "layout contains an empty line"),  # rendered an extra <br>
    (((0,), (1, 2)), "multi-tag line exceeds the target width"),  # 200 + 4 + 60 > 250
])
def test_emit_inline_rejects_what_layout_to_placement_rejects(lines, message):
    cloud = Cloud(sample()[0].tags, target_width=250, space_width=4)
    checks = [emit_inline, layout_to_placement]
    if message != "multi-tag line exceeds the target width":  # line_badness names that one
        checks.append(scored)
    for check in checks:
        with pytest.raises(InvalidInputError) as exc:
            check(LineLayout(lines), cloud)
        assert str(exc.value) == message, check


def test_emit_nested_tables_two_cells_per_cut():
    rng = random.Random(12)
    for trial in range(6):
        cloud = make_cloud(rng, rng.randint(2, 16), target=420)
        result = layout_mincut(cloud, seed=trial)
        html = emit_nested_tables(result.tree, result.placed, cloud)
        c = parse(html)
        cuts = cut_count(result.tree)
        assert c.counts["table"] == cuts
        assert c.counts["td"] == 2 * cuts
        assert c.counts["span"] == len(cloud.tags)


def test_emit_nested_tables_vertical_and_horizontal_rows():
    cloud = Cloud(tags=(TagBox("aa", 1, 50, 20), TagBox("bb", 1, 50, 20)),
                  target_width=550)
    result = layout_mincut(cloud)
    html = emit_nested_tables(result.tree, result.placed, cloud)
    c = parse(html)
    # V cut: one row with two cells
    assert result.tree.orient == "V"
    assert c.counts["tr"] == 1 and c.counts["td"] == 2

    tall = Cloud(tags=(TagBox("aa", 1, 500, 20), TagBox("bb", 1, 500, 20)),
                 target_width=550)
    result = layout_mincut(tall)
    html = emit_nested_tables(result.tree, result.placed, tall)
    c = parse(html)
    assert result.tree.orient == "H"
    assert c.counts["tr"] == 2 and c.counts["td"] == 2


def test_emit_nested_tables_variant_classes():
    rng = random.Random(9)
    cloud = make_cloud(rng, 10, target=380)
    result = layout_mincut(cloud, seed=2)
    html = emit_nested_tables(result.tree, result.placed, cloud)
    c = parse(html)
    by_tag = result.placed.by_tag()
    label_to_idx = {t.label: i for i, t in enumerate(cloud.tags)}
    for cls, text in c.spans:
        idx = label_to_idx[text]
        placed_w = by_tag[idx].width
        default_w = cloud.tags[idx].width
        if placed_w < default_w:
            assert "narrow" in cls.split()
        elif placed_w > default_w:
            assert "wide" in cls.split()
        else:
            assert cls == f"tag{cloud.tags[idx].weight}"


def test_emit_nested_tables_checks_tag_sets():
    cloud, _ = sample()
    result = layout_mincut(cloud)
    other = Cloud(tags=cloud.tags[:2], target_width=300)
    with pytest.raises(InvalidInputError):
        emit_nested_tables(result.tree, layout_mincut(other).placed, cloud)


@pytest.mark.parametrize("tree, n_tags", [
    (Cut("V", Leaf(0), Cut("H", Leaf(1), Leaf(1))), 3),  # a leaf twice
    (Cut("V", Leaf(0), Leaf(2)), 3),  # a placed tag left out
    (Cut("V", Leaf(0), Cut("H", Leaf(1), Leaf(3))), 3),  # a leaf never placed
    (None, 2),  # a leaf outside the cloud: was an IndexError
])
def test_emit_nested_tables_names_a_tag_set_mismatch(tree, n_tags):
    cloud = random_cloud(1, 3)
    result = layout_mincut(cloud)
    with pytest.raises(InvalidInputError) as exc:
        emit_nested_tables(tree or result.tree, result.placed,
                           Cloud(tags=cloud.tags[:n_tags], target_width=550))
    assert str(exc.value) == "tree and placement disagree on the tag set"


def test_documents_have_title_and_charset():
    cloud, layout = sample()
    html = emit_inline(layout, cloud)
    assert "<title>tag cloud</title>" in html
    assert '<meta charset="utf-8">' in html
    assert html.startswith("<!DOCTYPE html>")
