"""Turning raw text into a weighted tag cloud.

Words are maximal ASCII alphabetic runs of the lowercased text; short
words (five letters or fewer) are discarded.  The top-k words by
frequency become tags, with weights spread over the ten font levels in
proportion to where each count sits between the least and most
frequent retained word.  Tags seen next to each other repeatedly
become relation edges.

The per-token work runs in C: one regular expression finds the long
words, and adjacent pairs are counted over a numpy array of tag ids.
That count loads numpy on first use; importing this module does not.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import Sequence

from .model import (
    DEFAULT_SPACE_WIDTH,
    DEFAULT_TARGET_WIDTH,
    Cloud,
    InvalidInputError,
    RelationGraph,
    TagBox,
    estimate_box,
    show_value,
)

MIN_WORD_LENGTH = 6
MIN_COOCCURRENCE = 2

_WORD_RE = re.compile(r"[a-z]+")
# A match is always a whole maximal run: the scan reaches each run at its
# first letter, and a run shorter than MIN_WORD_LENGTH holds no match.
_LONG_WORD_RE = re.compile("[a-z]{%d,}" % MIN_WORD_LENGTH)


def tokenize(text: str) -> list[str]:
    """All lowercase ASCII-alphabetic runs; anything else separates."""

    return _WORD_RE.findall(text.lower())


def tokenize_filter(text: str) -> list[str]:
    """Like :func:`tokenize`, keeping only words long enough to tag.

    Equal to ``[w for w in tokenize(text) if len(w) >= MIN_WORD_LENGTH]``
    without building the short words.
    """

    return _LONG_WORD_RE.findall(text.lower())


def importance(f: int, r: int, t: int) -> int:
    """Weight level 0..9 for a count t between the retained extremes.

    f is the highest retained count, r the lowest; f >= t >= r >= 1.
    The least frequent tag maps to 0 and the most frequent to 9.
    """

    if not f >= t >= r >= 1:
        raise InvalidInputError(f"need f >= t >= r >= 1, got f={f} t={t} r={r}")
    return 10 * (t - r) // (f - r + 1)


def build_tag_cloud(stream: Sequence[str], k: int) -> tuple[TagBox, ...]:
    """Pick the k most frequent words and weight them by importance.

    Count ties resolve alphabetically.  A stream with fewer than k
    distinct words gives fewer than k tags, one per word.
    """

    if isinstance(k, bool) or not isinstance(k, int):
        raise InvalidInputError(f"k must be an integer, got {type(k).__name__} {show_value(k)}")
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {show_value(k)}")
    freq = Counter(stream)
    if not freq:
        raise InvalidInputError("token stream is empty")
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    top = max(c for _, c in ranked)
    low = min(c for _, c in ranked)
    return tuple(estimate_box(word, importance(top, low, count))
                 for word, count in ranked)


def cooccurrence_graph(stream: Sequence[str], retained: Sequence[str]) -> RelationGraph:
    """Edges between retained words adjacent in the stream.

    ``retained`` fixes the tag indices (position in the sequence).
    A pair must co-occur at least twice; its strength is the count.
    The stream is mapped to tag ids once (-1 for any other word) and
    the unordered pairs of adjacent, different ids are counted in numpy.
    """

    import numpy as np
    index = {}
    for pos, word in enumerate(retained):
        if word in index:
            raise InvalidInputError(f"retained word {word!r} listed twice")
        index[word] = pos
    k = len(index)
    ids = np.fromiter(map(index.get, stream, itertools.repeat(-1)),
                      dtype=np.int64, count=len(stream))
    seen = np.zeros(k, dtype=bool)
    seen[ids[ids >= 0]] = True
    if not seen.all():
        missing = [w for w, hit in zip(retained, seen.tolist()) if not hit]
        raise InvalidInputError(f"retained words absent from the stream: {missing[:5]}")
    a, b = ids[:-1], ids[1:]
    pair = (a >= 0) & (b >= 0) & (a != b)
    a, b = a[pair], b[pair]
    codes, counts = np.unique(np.minimum(a, b) * k + np.maximum(a, b),
                              return_counts=True)
    strong = counts >= MIN_COOCCURRENCE
    lo, hi = np.divmod(codes[strong], k)
    return RelationGraph(zip(lo.tolist(), hi.tolist(), counts[strong].tolist()))


def build_cloud_from_text(text: str, k: int, target_width: int = DEFAULT_TARGET_WIDTH,
                          space_width: int = DEFAULT_SPACE_WIDTH,
                          adjacency: str = "filtered") -> tuple[Cloud, RelationGraph]:
    """Full ingest pipeline: text to (cloud, relation graph).

    ``adjacency`` picks which stream defines word adjacency for the
    relation edges: "filtered" (default) measures it after short words
    are dropped, "raw" before, so short words break up pairs.
    """

    if adjacency not in ("filtered", "raw"):
        raise InvalidInputError(f"adjacency must be 'filtered' or 'raw', got {adjacency!r}")
    filtered = tokenize_filter(text)
    tags = build_tag_cloud(filtered, k)
    edge_stream = filtered if adjacency == "filtered" else tokenize(text)
    graph = cooccurrence_graph(edge_stream, [t.label for t in tags])
    return Cloud(tags=tags, target_width=target_width, space_width=space_width), graph
