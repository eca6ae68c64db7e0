"""HTML emission.

Inline layouts render as spans separated by spaces and line breaks;
2-D placements render the slicing tree as nested two-cell tables, so
any browser reproduces the packing without absolute positioning.  Each
tag is a plain span, never a link.  All documents carry the title
``tag cloud`` and embed the stylesheet, one element per line, which
keeps them self-contained and diff-friendly.
"""

from __future__ import annotations

from html import escape
from typing import Iterable

from .metrics import _raise_layout_problem
from .model import (WEIGHT_LEVELS, Cloud, InvalidInputError, LineLayout, PlacedCloud, TagBox,
                    font_size_pt)
from .tree import Leaf, Node

# The estimator assumes 1.25 em line boxes; the stylesheet must agree.
LINE_HEIGHT = "1.25"


def emit_css() -> str:
    """Stylesheet for both inline and nested-table clouds."""

    rules = [
        f".cloud {{ font-family: Arial, Helvetica, sans-serif; line-height: {LINE_HEIGHT}; }}",
        ".cloud table { border-collapse: separate; border-spacing: 0; }",
        ".cloud td { padding: 0; vertical-align: top; }",
        ".cloud span { white-space: nowrap; }",
    ]
    for level in range(WEIGHT_LEVELS):
        rules.append(f".tag{level} {{ font-size: {font_size_pt(level)}pt; }}")
    rules += [
        "/* squeezed and stretched shape variants; real font stretching is",
        "   unreliable across browsers, so letter spacing and weight stand in */",
        ".narrow { letter-spacing: -0.5px; font-stretch: condensed; }",
        ".wide { letter-spacing: 0.5px; font-stretch: expanded; font-weight: 600; }",
    ]
    return "\n".join(rules) + "\n"


def _document(body_lines: Iterable[str]) -> str:
    head = [
        "<!DOCTYPE html>",
        "<html>",
        "<head>",
        '<meta charset="utf-8">',
        "<title>tag cloud</title>",
        "<style>",
        emit_css().rstrip("\n"),
        "</style>",
        "</head>",
        "<body>",
    ]
    tail = ["</body>", "</html>", ""]
    return "\n".join(head + list(body_lines) + tail)


def _span(tag: TagBox, extra_class: str = "") -> str:
    classes = f"tag{tag.weight}" + (f" {extra_class}" if extra_class else "")
    return f'<span class="{classes}">{escape(tag.label)}</span>'


def emit_inline(layout: LineLayout, cloud: Cloud) -> str:
    """One span per tag, spaces within a line, <br> between lines, in a
    document titled ``tag cloud``.

    Labels are HTML-escaped and never split.  A layout that
    ``layout_to_placement`` rejects raises its InvalidInputError.
    """

    tags = cloud.tags
    space, target = cloud.space_width, cloud.target_width
    flat = [i for line in layout.lines for i in line]
    if (set(map(type, flat)) != {int} or sorted(flat) != list(range(len(tags)))
            or not all(layout.lines)):
        _raise_layout_problem(layout, cloud)
    body = ['<div class="cloud">']
    for li, line in enumerate(layout.lines):
        if li:
            body.append("<br>")
        # one span per source line; newlines between spans render as
        # the single inter-tag spaces the widths were computed with
        used = -space
        for idx in line:
            tag = tags[idx]
            used += tag.width + space
            body.append(_span(tag))
        if used > target and len(line) > 1:
            _raise_layout_problem(layout, cloud)
    body.append("</div>")
    return _document(body)


def emit_nested_tables(tree: Node, placed: PlacedCloud, cloud: Cloud) -> str:
    """Render a slicing tree as nested tables.

    A V cut is a one-row, two-cell table; an H cut two rows of one
    cell, in a document titled ``tag cloud``.  Leaves become spans
    classed by weight, plus a variant class when the placed box is
    squeezed or stretched relative to the tag's default box.

    The walk checks the tag set as it goes: each leaf must be a placed
    tag of ``cloud``, none twice, and every placed tag a leaf.
    """

    tags = cloud.tags
    unplaced = placed.by_tag()  # each leaf takes its tag's box out

    def render(node: Node, out: list[str]) -> None:
        if isinstance(node, Leaf):
            box = unplaced.pop(node.tag, None)
            if box is None or not 0 <= node.tag < len(tags):
                raise InvalidInputError("tree and placement disagree on the tag set")
            tag = tags[node.tag]
            out.append(_span(tag, "narrow" if box.width < tag.width
                             else "wide" if box.width > tag.width else ""))
            return
        out.append("<table>")
        out.append("<tr>")
        out.append("<td>")
        render(node.first, out)
        out.append("</td>")
        if node.orient == "V":
            out.append("<td>")
            render(node.second, out)
            out.append("</td>")
            out.append("</tr>")
        else:
            out.append("</tr>")
            out.append("<tr>")
            out.append("<td>")
            render(node.second, out)
            out.append("</td>")
            out.append("</tr>")
        out.append("</table>")

    body = ['<div class="cloud">']
    render(tree, body)
    if unplaced:
        raise InvalidInputError("tree and placement disagree on the tag set")
    body.append("</div>")
    return _document(body)
