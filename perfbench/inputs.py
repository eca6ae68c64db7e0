"""Seeded input documents for the benchmark workloads.

The generators live here rather than in ``tagcloud.synthetic`` so that a
change to the program cannot change the inputs it is measured on.  The
program only ever receives the text or cloud JSON documents returned
here, never a seed.

Weight levels, and label lengths within each weight level, are drawn
stratified: a cloud of n tags always has about the same boxes, and the
seed decides letters and order.  That keeps the tag areas, and with them
layout cost and bounding-box area, steady from seed to seed without
fixing the layouts themselves.
"""

from __future__ import annotations

import json
import random
import string

# Share of tags per weight level 0..9: many faint tags, few heavy ones
# (the spread tagcloud.synthetic.random_cloud draws from).
WEIGHT_SHARES = (30, 19, 13, 10, 8, 6, 5, 4, 3, 2)

# Short words the ingest filter must drop (five letters or fewer).
FILLER_WORDS = (
    "the", "of", "and", "a", "to", "in", "is", "was", "it", "for", "on",
    "with", "as", "at", "by", "an", "be", "this", "from", "or", "which",
    "but", "are", "not", "have", "they", "one", "had", "were", "there",
)
PUNCTUATION = (",", ".", ";", ":", "!", "?", " --", ")")

# Topics in a text, and content words in each topic's vocabulary.
TEXT_TOPICS = 8
WORDS_PER_TOPIC = 40


def box(label: str, weight: int) -> tuple[int, int]:
    """Pixel (width, height) of a label: 8 + 4*weight pt at 96 dpi,
    1.25 em tall and 0.55 em per character, rounded up."""

    size = 8 + 4 * weight
    return -(-11 * size * len(label) // 15), -(-5 * size // 3)


def stratified(rng: random.Random, n: int, values, shares) -> list:
    """n values whose histogram follows ``shares`` exactly (largest
    remainder rounding), in random order."""

    total = sum(shares)
    counts = [n * s // total for s in shares]
    order = list(range(len(shares)))
    rng.shuffle(order)  # random winner among equal remainders
    by_remainder = sorted(order, key=lambda i: -(n * shares[i] % total))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    out = [v for v, c in zip(values, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


def _word(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=length))


def _weights_and_lengths(rng: random.Random, n: int, lengths) -> tuple[list[int], list[int]]:
    """Stratified weights, and label lengths stratified within each
    weight level, so heavy tags get long and short labels alike."""

    weights = stratified(rng, n, range(10), WEIGHT_SHARES)
    out = [0] * n
    for level in range(10):
        idx = [i for i, w in enumerate(weights) if w == level]
        for i, length in zip(idx, stratified(rng, len(idx), lengths, (1,) * len(lengths))):
            out[i] = length
    return weights, out


def _tags(labels: list[str], weights: list[int]) -> list[dict]:
    tags = []
    for label, weight in zip(labels, weights):
        w, h = box(label, weight)
        tags.append({"label": label, "weight": weight, "width": w, "height": h})
    return tags


def random_cloud(rng: random.Random, n: int, width: int | None) -> str:
    """Cloud JSON of n random words (4 to 12 letters), no edges.

    ``width=None`` sets the target to 4/5 of the widest tag, narrower
    than even its squeezed (0.85) variant, so no placement fits.
    """

    weights, lengths = _weights_and_lengths(rng, n, range(4, 13))
    labels = [_word(rng, length) for length in lengths]
    tags = _tags(labels, weights)
    if width is None:
        width = max(t["width"] for t in tags) * 4 // 5
    return json.dumps({"target_width": width, "space_width": 4, "tags": tags})


def topic_cloud(rng: random.Random, n: int, width: int) -> str:
    """Cloud JSON of n words in topics of about 25, with edges.

    Each word is related to about four words of its own topic, with
    co-occurrence-like strengths of 2 or more, plus a few weak
    cross-topic relations.
    """

    topics = max(2, n // 25)
    stems = [_word(rng, 6) for _ in range(topics)]
    topic_of = [i % topics for i in range(n)]
    rng.shuffle(topic_of)
    weights, suffixes = _weights_and_lengths(rng, n, range(2, 7))
    labels = [stems[t] + _word(rng, s) for t, s in zip(topic_of, suffixes)]
    members: dict[int, list[int]] = {}
    for i, t in enumerate(topic_of):
        members.setdefault(t, []).append(i)
    pairs: dict[tuple[int, int], int] = {}
    for i, t in enumerate(topic_of):
        for j in rng.sample(members[t], min(3, len(members[t]))):
            if i != j:
                pairs[(min(i, j), max(i, j))] = 2 + int(rng.expovariate(0.3))
    for _ in range(n // 10):
        i, j = rng.sample(range(n), 2)
        pairs.setdefault((min(i, j), max(i, j)), 2)
    edges = [{"a": i, "b": j, "strength": s} for (i, j), s in sorted(pairs.items())]
    return json.dumps({"target_width": width, "space_width": 4,
                       "tags": _tags(labels, weights), "edges": edges})


def topic_text(rng: random.Random, tokens: int) -> str:
    """Plain text of about ``tokens`` words written in topic bursts.

    Within a burst, content words follow a Zipf law over the topic's own
    vocabulary of 8-letter words; short filler words and punctuation sit
    between them, so tokenizing and filtering both do real work and
    frequent same-topic words end up adjacent once fillers are dropped.
    """

    suffixes = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
    vocab = [[stem + s for s in suffixes[:WORDS_PER_TOPIC]]
             for stem in (_word(rng, 6) for _ in range(TEXT_TOPICS))]
    zipf = [1.0 / (rank + 1) ** 1.1 for rank in range(WORDS_PER_TOPIC)]
    out: list[str] = []
    count = 0
    while count < tokens:
        burst = rng.randint(8, 25)
        content = rng.choices(vocab[rng.randrange(TEXT_TOPICS)], zipf, k=burst)
        fillers = iter(rng.choices(FILLER_WORDS, k=2 * burst))
        gaps = rng.choices((0, 1, 2), (4, 4, 2), k=burst)
        for word, gap in zip(content, gaps):
            out.extend(next(fillers) for _ in range(gap))
            out.append(word)
            count += 1 + gap
        out.append(rng.choice(PUNCTUATION) + "\n")
    return " ".join(out)
