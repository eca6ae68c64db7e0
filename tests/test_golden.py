"""Golden layouts: fingerprints of seeded layouts that refactors must keep.

Each case fixes a seeded synthetic cloud and records sha256 hashes of
its line breaks (every DP aggregate and greedy), of the min-cut
placements and slicing tree, and of both HTML outputs, plus the
min-cut bounding box and width-attempt count in the clear.  A
performance or design change must leave ``golden_layouts.json``
byte-identical; an intended layout change regenerates it and says why:

    PYTHONPATH=src python -m tests.test_golden > tests/golden_layouts.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tagcloud import BadnessAggregate, dp_break, greedy_break, layout_mincut
from tagcloud.htmlgen import emit_inline, emit_nested_tables
from tagcloud.synthetic import random_cloud, topic_cloud
from tagcloud.tree import Leaf

GOLDEN_PATH = Path(__file__).with_name("golden_layouts.json")

# name -> (cloud, graph) builder.  topic_cloud's vocabulary is 30 words
# per topic and at most 20 topics, so k = 1000 keeps all 600 words.
CASES = {
    "random-50": lambda: (random_cloud(50, 50), None),
    "random-200": lambda: (random_cloud(200, 200), None),
    "random-1000": lambda: (random_cloud(1000, 1000), None),
    "random-200-narrow": lambda: (random_cloud(201, 200, target_width=260), None),
    "topic-50": lambda: topic_cloud(50, k=50),
    "topic-200": lambda: topic_cloud(200, k=200, topics=8, length=30000),
    "topic-1000": lambda: topic_cloud(1000, k=1000, topics=20, length=200000),
}


def _sha(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _tree(node):
    if isinstance(node, Leaf):
        return node.tag
    return [node.orient, _tree(node.first), _tree(node.second)]


def fingerprint(name: str) -> dict:
    cloud, graph = CASES[name]()
    breaks = {agg.value: _sha(dp_break(cloud, agg=agg).lines) for agg in BadnessAggregate}
    breaks["greedy"] = _sha(greedy_break(cloud).lines)
    result = layout_mincut(cloud, graph, seed=0)
    placements = [[p.tag, p.x, p.y, p.width, p.height] for p in result.placed.placements]
    return {
        "tags": len(cloud.tags),
        "edges": len(graph.edges) if graph else 0,
        "breaks": breaks,
        "mincut": {
            "bbox": list(result.placed.bbox),
            "iterations": result.iterations,
            "placements": _sha(placements),
            "tree": _sha(_tree(result.tree)),
        },
        "html": {
            "inline": _sha(emit_inline(dp_break(cloud), cloud)),
            "nested_tables": _sha(emit_nested_tables(result.tree, result.placed, cloud)),
        },
    }


def render_golden() -> str:
    return json.dumps({name: fingerprint(name) for name in CASES}, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_layout_matches_golden(golden, name):
    assert fingerprint(name) == golden[name]


if __name__ == "__main__":
    print(render_golden(), end="")
