"""Golden layouts: fingerprints of seeded layouts that refactors must keep.

Each case fixes a seeded synthetic cloud and records sha256 hashes of
its line breaks (every DP aggregate, greedy, and the best of 10 seeded
shuffles for every aggregate), of the min-cut
placements and slicing tree, and of both HTML outputs, plus the
min-cut bounding box and width-attempt count in the clear.  A
performance or design change must leave ``golden_layouts.json``
byte-identical; an intended layout change regenerates it and says why:

    PYTHONPATH=src python -m tests.golden

``--check`` writes nothing.  It compares every case it can build with
the file, names each case that needs a module this Python lacks, and
when every case builds, also compares the whole file byte for byte.
It exits 1 if anything differs.  This module needs no pytest, so the
check runs on a bare interpreter too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from tagcloud import BadnessAggregate, dp_break, greedy_break, layout_mincut, shuffle_best
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
    breaks["shuffle"] = {agg.value: _sha(shuffle_best(cloud, 10, agg, seed=0).lines)
                         for agg in BadnessAggregate}
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


def render(fingerprints: dict) -> str:
    return json.dumps(fingerprints, indent=1, sort_keys=True) + "\n"


def render_golden() -> str:
    return render({name: fingerprint(name) for name in CASES})


def check() -> int:
    """Print one line per case and return the exit status."""

    golden = json.loads(GOLDEN_PATH.read_text())
    built, differs = {}, False
    for name in CASES:
        try:
            built[name] = fingerprint(name)
        except ModuleNotFoundError as exc:
            print(f"{name}: needs {exc.name}")
            continue
        same = built[name] == golden.get(name)
        differs |= not same
        print(f"{name}: {'same' if same else 'DIFFERS'}")
    if sorted(golden) != sorted(CASES):
        print(f"{GOLDEN_PATH.name}: holds cases {sorted(golden)}, not {sorted(CASES)}")
        differs = True
    elif len(built) == len(CASES) and render(built).encode() != GOLDEN_PATH.read_bytes():
        print(f"{GOLDEN_PATH.name}: bytes differ from a fresh render")
        differs = True
    return 1 if differs else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit("usage: python -m tests.golden [--check]")
    GOLDEN_PATH.write_text(render_golden())
