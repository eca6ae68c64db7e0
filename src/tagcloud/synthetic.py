"""Synthetic inputs for benchmarks and tests.

Real corpora are bulky and licensing-encumbered; these generators
produce streams and clouds with the same gross statistics: Zipf-like
word frequencies, and (optionally) topic structure so related words
actually co-occur.
"""

from __future__ import annotations

import random
import string

from .ingest import build_tag_cloud, cooccurrence_graph
from .model import Cloud, RelationGraph, estimate_box

_STEMS = (
    "aurora", "basalt", "cascade", "dynamo", "ember", "fathom", "granite",
    "harbor", "isotope", "juniper", "keystone", "lantern", "meridian",
    "nebula", "obsidian", "pinnacle", "quartz", "ripple", "summit", "timber",
)


def _topic_vocabulary(topic: int, size: int) -> list[str]:
    stem = _STEMS[topic % len(_STEMS)]
    words = []
    for i in range(size):
        suffix = string.ascii_lowercase[i // 26] + string.ascii_lowercase[i % 26]
        words.append(f"{stem}{suffix}")
    return words


def _zipf_weights(n: int, exponent: float = 1.1) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(n)]


def topic_stream(seed: int, topics: int = 4, words_per_topic: int = 30,
                 length: int = 6000) -> list[str]:
    """Token stream written in bursts, one topic at a time.

    Within a burst, words follow a Zipf distribution over the topic's
    own vocabulary, so frequent same-topic words co-occur heavily while
    cross-topic adjacency only happens at burst boundaries.
    """

    rng = random.Random(seed)
    vocabs = [_topic_vocabulary(t, words_per_topic) for t in range(topics)]
    weights = _zipf_weights(words_per_topic)
    stream: list[str] = []
    while len(stream) < length:
        vocab = vocabs[rng.randrange(topics)]
        for _ in range(rng.randint(8, 25)):
            stream.append(rng.choices(vocab, weights)[0])
    return stream[:length]


def topic_cloud(seed: int, k: int = 50, target_width: int = 550,
                topics: int = 4, length: int = 6000) -> tuple[Cloud, RelationGraph]:
    """Cloud plus co-occurrence graph from a topic-structured stream."""

    stream = topic_stream(seed, topics=topics, length=length)
    tags = build_tag_cloud(stream, k)
    graph = cooccurrence_graph(stream, [t.label for t in tags])
    return Cloud(tags=tags, target_width=target_width), graph


# Realistic spread of weight levels: many faint tags, few heavy ones.
_WEIGHT_DISTRIBUTION = (30, 19, 13, 10, 8, 6, 5, 4, 3, 2)


def random_cloud(seed: int, n_tags: int = 93, target_width: int = 550) -> Cloud:
    """Cloud of plausible random words, no relations."""

    rng = random.Random(seed)
    tags = []
    for i in range(n_tags):
        length = rng.randint(4, 12)
        label = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        weight = rng.choices(range(10), weights=_WEIGHT_DISTRIBUTION)[0]
        tags.append(estimate_box(label, weight))
    return Cloud(tags=tuple(tags), target_width=target_width)
