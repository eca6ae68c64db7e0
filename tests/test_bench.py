import csv
import io
import random

import pytest

from tagcloud import Cloud, InvalidInputError, TagBox
from tagcloud.bench import BenchConfig, CSV_COLUMNS, method_table, run_benchmark
from tagcloud.inline import BadnessAggregate
from tagcloud.reorder import shuffle_best
from tagcloud.synthetic import topic_cloud
from .conftest import make_cloud


def small_inputs():
    rng = random.Random(2)
    cloud_a = make_cloud(rng, 8, target=300)
    cloud_b, graph_b = topic_cloud(seed=5, k=12, target_width=400)
    return [("plain", cloud_a, None), ("topics", cloud_b, graph_b)]


def test_method_table_names():
    names = list(method_table(BenchConfig(shuffles=7)))
    assert names == ["greedy-alpha", "greedy-weight", "dp-alpha", "dp-weight",
                     "shuffle7", "nfdh", "ffdh", "ffdhw"]


def test_report_shape():
    report = run_benchmark(small_inputs(), BenchConfig(shuffles=3))
    assert len(report.rows) == 2 * 9
    methods = [r.method for r in report.rows[:9]]
    assert methods[-1] == "mincut"
    mincut_rows = [r for r in report.rows if r.method == "mincut"]
    for r in mincut_rows:
        assert r.badness_l1 is None and r.badness_l2 is None
        assert r.iterations >= 1
    plain_rows = [r for r in report.rows if r.cloud == "plain"]
    assert all(r.weighted_dist is None for r in plain_rows)
    topic_rows = [r for r in report.rows if r.cloud == "topics"]
    assert all(r.weighted_dist is not None for r in topic_rows)


def test_csv_format():
    report = run_benchmark(small_inputs(), BenchConfig(seed=4, shuffles=3,
                                                       agg=BadnessAggregate.SUM))
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# seed=4 agg=l1 shuffles=3 rng=python-random-mt19937"
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    rows = list(reader)
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 18
    # mincut rows leave the badness columns empty
    for row in rows[1:]:
        if row[1] == "mincut":
            assert row[2] == "" and row[3] == ""
            assert row[7] != ""
        else:
            assert row[2] != "" and row[3] != ""
            assert row[7] == ""
        float(row[4])  # area parses
        float(row[6])  # time parses


def test_everything_but_timing_is_reproducible():
    config = BenchConfig(seed=7, shuffles=4)
    a = run_benchmark(small_inputs(), config)
    b = run_benchmark(small_inputs(), config)
    strip = lambda r: (r.cloud, r.method, r.badness_l1, r.badness_l2,
                       r.area_kpx, r.weighted_dist, r.iterations)
    assert [strip(r) for r in a.rows] == [strip(r) for r in b.rows]


def test_text_table_aligns():
    report = run_benchmark(small_inputs()[:1], BenchConfig(shuffles=2))
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0].startswith("cloud  method")
    assert len(lines) == 1 + 9
    assert all(not line.endswith(" ") for line in lines)


@pytest.mark.parametrize("shuffles", [True, 2.5, "3", None, 0, -3])
def test_config_applies_the_shuffle_count_rule(shuffles):
    cloud = Cloud(tags=(TagBox("a", 1, 10, 10),), target_width=100)
    with pytest.raises(InvalidInputError) as want:
        shuffle_best(cloud, shuffles)
    with pytest.raises(InvalidInputError) as got:
        BenchConfig(shuffles=shuffles)
    assert str(got.value) == str(want.value)
