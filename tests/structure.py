"""Structural checks on finished layouts, and random slicing trees.

The acceptance gate, the CLI fuzzers and the unit tests share these.
Each check asserts, so a failure says what broke.
"""

from html.parser import HTMLParser

from tagcloud.tree import Cut, Leaf


def no_overlap(placed):
    ps = placed.placements
    for i in range(len(ps)):
        a = ps[i]
        for b in ps[i + 1:]:
            disjoint = (a.x + a.width <= b.x or b.x + b.width <= a.x
                        or a.y + a.height <= b.y or b.y + b.height <= a.y)
            assert disjoint, f"tags {a.tag} and {b.tag} overlap"


def each_tag_once(placed, n):
    assert sorted(p.tag for p in placed.placements) == list(range(n))


def inside_bbox(placed):
    bw, bh = placed.bbox
    for p in placed.placements:
        assert p.x + p.width <= bw and p.y + p.height <= bh, f"tag {p.tag} leaves the bbox"


def lines_fit(cloud, layout):
    """Every line of several tags fits the target width."""
    for line in layout.lines:
        width = (sum(cloud.tags[i].width for i in line)
                 + (len(line) - 1) * cloud.space_width)
        assert width <= cloud.target_width or len(line) == 1


class Cells(HTMLParser):
    """Counts table cells, collects span texts (unescaped labels) and
    leaves ``stack`` empty when the markup is balanced."""

    def __init__(self):
        super().__init__()
        self.stack = []
        self.tds = 0
        self.labels = []

    def handle_starttag(self, tag, attrs):
        if tag in ("table", "tr", "td", "span", "html", "body", "head",
                   "style", "title", "div"):
            self.stack.append(tag)
        if tag == "td":
            self.tds += 1
        if tag == "span":
            self.labels.append("")

    def handle_endtag(self, tag):
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()

    def handle_data(self, data):
        if self.stack and self.stack[-1] == "span":
            self.labels[-1] += data


def random_tree(rng, tags):
    """Random ("V"|"H", first, second) spec over ``tags``, leaves in order."""
    if len(tags) == 1:
        return ("leaf", tags[0])
    cut = rng.randint(1, len(tags) - 1)
    return (rng.choice("VH"), random_tree(rng, tags[:cut]),
            random_tree(rng, tags[cut:]))


def tree_of(spec):
    """("V"|"H", first, second) tuples -> Cut/Leaf nodes."""
    if spec[0] == "leaf":
        return Leaf(spec[1])
    return Cut(spec[0], tree_of(spec[1]), tree_of(spec[2]))


def leaves(node):
    """The tree's leaf tags, left to right."""
    if isinstance(node, Leaf):
        yield node.tag
    else:
        yield from leaves(node.first)
        yield from leaves(node.second)


def iter_nodes(node):
    """Children before parents (post-order), the order of
    ``combine_shapes``' table."""
    if isinstance(node, Cut):
        yield from iter_nodes(node.first)
        yield from iter_nodes(node.second)
    yield node


def cut_count(tree):
    """The number of ``Cut`` nodes in ``tree``."""
    return sum(isinstance(node, Cut) for node in iter_nodes(tree))


def node_lists(tree, table):
    """``combine_shapes``' table keyed by node: its keys are post-order
    positions, the order ``iter_nodes`` yields."""
    return dict(zip(iter_nodes(tree), table.values()))
