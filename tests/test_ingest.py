import random

import pytest

from tagcloud import (
    Cloud,
    InvalidInputError,
    build_cloud_from_text,
    build_tag_cloud,
    cooccurrence_graph,
    importance,
)
from tagcloud.ingest import MIN_WORD_LENGTH, tokenize, tokenize_filter
from tagcloud.model import MAX_PIXELS, cloud_to_json
from . import oracles
from .oracles import pair_counts


def test_tokenize_splits_on_anything_nonalpha():
    assert tokenize("Hello, WORLD! it's 2-in-1") == ["hello", "world", "it", "s", "in"]
    assert tokenize("") == []
    assert tokenize("123 !!") == []


def test_tokenize_filter_drops_short_words():
    assert MIN_WORD_LENGTH == 6
    words = tokenize_filter("a tiny stream becomes mighty rivers")
    assert words == ["stream", "becomes", "mighty", "rivers"]
    assert tokenize_filter("The QUICK-quick brown foxes jumped") == ["jumped"]


def test_digits_split_words():
    assert tokenize("people123people") == ["people", "people"]
    assert tokenize_filter("people123people") == ["people", "people"]


def test_importance_boundaries():
    assert importance(50, 3, 3) == 0      # least frequent tag
    assert importance(50, 3, 50) == 9     # most frequent tag
    assert importance(7, 7, 7) == 0       # all counts equal
    assert importance(1, 1, 1) == 0


def test_importance_is_monotone_and_in_range():
    f, r = 40, 2
    levels = [importance(f, r, t) for t in range(r, f + 1)]
    assert levels == sorted(levels)
    assert set(levels) <= set(range(10))
    assert levels[0] == 0 and levels[-1] == 9


def test_importance_validates():
    for f, r, t in ((5, 6, 6), (5, 1, 6), (5, 0, 3), (4, 2, 1)):
        with pytest.raises(InvalidInputError):
            importance(f, r, t)


def test_build_tag_cloud_ranks_by_count_then_word():
    stream = ["banana"] * 3 + ["apples"] * 3 + ["cherry"] * 5 + ["damson"]
    tags = build_tag_cloud(stream, 3)
    assert [t.label for t in tags] == ["cherry", "apples", "banana"]
    assert tags[0].weight == importance(5, 3, 5)


def test_build_tag_cloud_weights_follow_importance():
    stream = ["wwwwww"] * 10 + ["xxxxxx"] * 6 + ["yyyyyy"] * 2
    weights = {t.label: t.weight for t in build_tag_cloud(stream, 3)}
    assert weights == {
        "wwwwww": importance(10, 2, 10),
        "xxxxxx": importance(10, 2, 6),
        "yyyyyy": importance(10, 2, 2),
    }


def test_build_tag_cloud_shortfall():
    tags = build_tag_cloud(["onewrd", "onewrd"], 5)
    assert [t.label for t in tags] == ["onewrd"]


def test_build_tag_cloud_validates():
    with pytest.raises(InvalidInputError):
        build_tag_cloud(["x"], 0)
    with pytest.raises(InvalidInputError):
        build_tag_cloud([], 3)


@pytest.mark.parametrize("k, message", [
    (2.5, "k must be an integer, got float 2.5"),
    ("3", "k must be an integer, got str 3"),
    (None, "k must be an integer, got NoneType None"),
    (True, "k must be an integer, got bool True"),
    (0, "k must be >= 1, got 0"),
    (-2, "k must be >= 1, got -2"),
])
def test_build_tag_cloud_rejects_a_bad_k(k, message):
    for build in (lambda: build_tag_cloud(["rivers", "stones"], k),
                  lambda: build_cloud_from_text("rivers stones rivers", k)):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert str(exc.value) == message


def test_cooccurrence_counts_adjacent_pairs():
    stream = ["aaa", "bbb", "aaa", "bbb", "ccc", "aaa", "ccc", "ccc"]
    g = cooccurrence_graph(stream, ["aaa", "bbb", "ccc"])
    strengths = {(i, j): s for i, j, s in g.edges}
    # aaa-bbb adjacent 3 times, bbb-ccc once (dropped), aaa-ccc twice;
    # the ccc-ccc repeat does not count
    assert strengths == {(0, 1): 3, (0, 2): 2}


def test_cooccurrence_matches_reference_counts():
    import random
    rng = random.Random(31337)
    vocab = [f"word{c}{c}" for c in "abcdefgh"]
    for _ in range(30):
        stream = [rng.choice(vocab) for _ in range(rng.randint(2, 400))]
        retained = sorted(set(stream))[: rng.randint(1, len(set(stream)))]
        g = cooccurrence_graph(stream, retained)
        want = {p: c for p, c in pair_counts(stream, retained).items() if c >= 2}
        assert {(i, j): s for i, j, s in g.edges} == want


def test_cooccurrence_validates_retained():
    with pytest.raises(InvalidInputError, match="twice"):
        cooccurrence_graph(["aaa", "bbb"], ["aaa", "aaa"])
    with pytest.raises(InvalidInputError, match="absent"):
        cooccurrence_graph(["aaa", "bbb"], ["zzz"])


def test_build_cloud_from_text_end_to_end():
    text = ("Gardens gardens! flowers gardens in flowers; gardens a flowers "
            "meadow meadow ok gardens")
    cloud, graph = build_cloud_from_text(text, 3, target_width=300)
    labels = [t.label for t in cloud.tags]
    assert labels == ["gardens", "flowers", "meadow"]
    counts = {"gardens": 5, "flowers": 3, "meadow": 2}
    for tag in cloud.tags:
        assert tag.weight == importance(5, 2, counts[tag.label])
    assert cloud.target_width == 300
    # filtered stream: gardens gardens flowers gardens flowers gardens
    # flowers meadow meadow gardens
    strengths = {(i, j): s for i, j, s in graph.edges}
    assert strengths[(0, 1)] == 5


def test_adjacency_raw_lets_short_words_split_pairs():
    # "of" separates the flowers->gardens pairs in the raw stream; only
    # the two gardens->flowers wrap-arounds survive
    text = "flowers of gardens flowers of gardens flowers of gardens"
    cloud_f, graph_f = build_cloud_from_text(text, 2)
    cloud_r, graph_r = build_cloud_from_text(text, 2, adjacency="raw")
    assert {(i, j): s for i, j, s in graph_f.edges} == {(0, 1): 5}
    assert {(i, j): s for i, j, s in graph_r.edges} == {(0, 1): 2}


def test_build_cloud_from_text_validates_adjacency():
    with pytest.raises(InvalidInputError):
        build_cloud_from_text("enough wordss here", 2, adjacency="both")


# Glue inside a word: apostrophes, digits and "_" split it; the Kelvin
# sign lowercases to ASCII "k" and joins it; the other letters are not
# ASCII after lowercasing ("İ" becomes "i" plus a combining dot).
_GLUE = ("'", "_", "7", "42", "-", "é", "ß", "İ", "\u212a", "Ω")
_SEPARATORS = (" ", " ", " ", ", ", ".\n", "; ", "\t", " -- ", "…")


def _vocabulary(rng):
    """60 five-letter words and 260 words of six or seven letters over a
    small alphabet, so that words repeat and pairs recur."""

    def words(lengths, count):
        found = set()
        while len(found) < count:
            found.add("".join(rng.choice("abcdefghij") for _ in range(rng.choice(lengths))))
        return sorted(found)

    return words((5,), 60) + words((6, 7), 260)


def _text(rng, vocab, tokens):
    parts = []
    for _ in range(tokens):
        word = rng.choice(vocab)
        case = rng.random()
        if case < 0.1:
            word = word.upper()
        elif case < 0.2:
            word = word.capitalize()
        if rng.random() < 0.25:
            word += rng.choice(_GLUE) + rng.choice(vocab)
        parts.append(word)
        if rng.random() < 0.15:
            parts.append(word)  # an immediate repeat
    return "".join(p + rng.choice(_SEPARATORS) for p in parts)


def ingest_texts():
    """Seeded texts of 0 to 3000 words, plus the one-word ones."""

    rng = random.Random(0x7E47)
    vocab = _vocabulary(rng)
    yield "empty", ""
    yield "one-short", "abcde"
    yield "one-long", "abcdef"
    yield "one-kelvin", "abcde\u212a"
    for tokens in (2, 5, 50, 500, 3000, 3000):
        yield f"tokens{tokens}-{rng.random():.4f}", _text(rng, vocab, tokens)


INGEST_TEXTS = list(ingest_texts())


def _raised(fn, *args):
    try:
        return fn(*args)
    except InvalidInputError as e:
        return f"InvalidInputError: {e}"


@pytest.mark.parametrize("name, text", INGEST_TEXTS, ids=[n for n, _ in INGEST_TEXTS])
def test_tokenize_filter_matches_word_by_word_filter(name, text):
    assert tokenize_filter(text) == oracles.tokenize_filter(text)


@pytest.mark.parametrize("adjacency", ["filtered", "raw"])
@pytest.mark.parametrize("name, text", INGEST_TEXTS, ids=[n for n, _ in INGEST_TEXTS])
def test_cooccurrence_matches_counter_reference(name, text, adjacency):
    """Same edges, with the same int types, and the same errors, for
    retained lists of 1 to 200 words in any order, some absent."""

    rng = random.Random(name + adjacency)
    stream = tokenize_filter(text) if adjacency == "filtered" else tokenize(text)
    words = sorted(set(stream))
    sizes = {1, 2, len(words), min(len(words), 200), rng.randint(1, max(1, len(words)))}
    for size in sorted(sizes):
        retained = rng.sample(words, min(size, len(words)))
        if rng.random() < 0.3 or not retained:
            for absent in rng.sample(["zzzzzz", "qqqqqqq", "abcdexy", "WORDS", ""], 3):
                retained.insert(rng.randint(0, len(retained)), absent)
        got = _raised(cooccurrence_graph, stream, retained)
        want = _raised(oracles.cooccurrence_graph, stream, retained)
        if isinstance(want, str):
            assert got == want
        else:
            assert repr(got.edges) == repr(want.edges)
    if words:
        assert (_raised(cooccurrence_graph, stream, [words[0], words[0]])
                == _raised(oracles.cooccurrence_graph, stream, [words[0], words[0]]))


@pytest.mark.parametrize("adjacency", ["filtered", "raw"])
@pytest.mark.parametrize("name, text", INGEST_TEXTS, ids=[n for n, _ in INGEST_TEXTS])
def test_build_cloud_from_text_matches_reference_pipeline(name, text, adjacency):
    def reference(k):
        filtered = oracles.tokenize_filter(text)
        tags = build_tag_cloud(filtered, k)
        stream = filtered if adjacency == "filtered" else tokenize(text)
        graph = oracles.cooccurrence_graph(stream, [t.label for t in tags])
        return cloud_to_json(Cloud(tags=tags, target_width=550), graph)

    for k in (1, 50, 200):
        got = _raised(lambda: cloud_to_json(*build_cloud_from_text(text, k, adjacency=adjacency)))
        assert got == _raised(reference, k)


@pytest.mark.parametrize("width, space, message", [
    (0, 4, "target_width must be >= 1, got 0"),
    (-5, 4, "target_width must be >= 1, got -5"),
    (550, -1, "space_width must be >= 0, got -1"),
    (0, -1, "target_width must be >= 1, got 0; space_width must be >= 0, got -1"),
])
def test_build_cloud_from_text_rejects_widths_no_layout_accepts(width, space, message):
    with pytest.raises(InvalidInputError) as exc:
        build_cloud_from_text("gardens flowers gardens", 2, target_width=width,
                              space_width=space)
    assert str(exc.value) == message
    cloud, _ = build_cloud_from_text("gardens flowers gardens", 2, target_width=1,
                                     space_width=0)
    assert (cloud.target_width, cloud.space_width) == (1, 0)


# Five copies of a 600,000-letter word and one other word: the long word
# weighs 8 and is 17,600,000 px wide, past MAX_PIXELS.
HUGE_WORD_TEXT = " ".join(["w" * 600_000] * 5 + ["garden"])
HUGE_WORD_MESSAGE = (f"tag 0 ({'w' * 40 + '…'!r}): width must be <= {MAX_PIXELS},"
                     " got 17600000")


def test_build_cloud_from_text_rejects_tags_no_layout_accepts():
    with pytest.raises(InvalidInputError) as exc:
        build_cloud_from_text(HUGE_WORD_TEXT, 5)
    assert str(exc.value) == HUGE_WORD_MESSAGE


def test_build_cloud_from_text_reports_the_text_before_the_widths():
    with pytest.raises(InvalidInputError) as exc:
        build_cloud_from_text("", 5, target_width=0)
    assert str(exc.value) == "token stream is empty"
