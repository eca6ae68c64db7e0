from collections import Counter

from tagcloud.ingest import MIN_WORD_LENGTH, tokenize_filter
from tagcloud.synthetic import random_cloud, topic_cloud, topic_stream


def test_topic_stream_is_deterministic_and_sized():
    a = topic_stream(seed=3)
    b = topic_stream(seed=3)
    assert a == b
    assert len(a) == 6000
    assert topic_stream(seed=4) != a


def test_topic_stream_words_survive_the_ingest_filter():
    stream = topic_stream(seed=1, length=500)
    assert all(len(w) >= MIN_WORD_LENGTH for w in stream)
    assert tokenize_filter(" ".join(stream)) == stream


def test_topic_cloud_has_tags_and_edges():
    cloud, graph = topic_cloud(seed=8, k=30)
    assert len(cloud.tags) == 30
    assert cloud.target_width == 550
    assert graph.edges
    assert {s for _, _, s in graph.edges} != {1}  # real counts, not presence


def test_random_cloud_shape():
    cloud = random_cloud(seed=9)
    assert len(cloud.tags) == 93
    assert cloud == random_cloud(seed=9)
    weights = Counter(t.weight for t in cloud.tags)
    assert weights[0] > weights[9]  # faint tags dominate
    assert all(4 <= len(t.label) <= 12 for t in cloud.tags)
