import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_seed_range_takes_ranges_and_lists():
    assert bench_pairs.seed_range("11-14") == [11, 12, 13, 14]
    assert bench_pairs.seed_range("1,4,7-8") == [1, 4, 7, 8]


def pair(parent, change, name="latency_ms.p50"):
    return {"parent": {"metrics": {name: {"value": parent}}},
            "change": {"metrics": {name: {"value": change}}}}


def test_summarize_counts_wins_in_the_better_direction():
    pairs = [pair(10, 8), pair(10, 10), pair(9, 11), pair(12, 9), pair(11, 7)]
    lower = bench_pairs.summarize(pairs, "latency_ms.p50", "lower")
    assert (lower["change_wins"], lower["ties"]) == (3, 1)
    assert lower["parent"] == {"median": 10, "q1": 10, "q3": 11}
    assert lower["change"]["median"] == 9
    assert lower["median_ratio_change_over_parent"] == 0.9
    assert lower["parent_iqr"] == 1
    higher = bench_pairs.summarize(pairs, "latency_ms.p50", "higher")
    assert (higher["change_wins"], higher["ties"]) == (1, 1)
    assert not lower["separated"] and not higher["separated"]
    apart = bench_pairs.summarize([pair(10, 7), pair(9, 8)], "latency_ms.p50", "lower")
    assert apart["separated"]


SPEC = {"name": "latency_ms.p50", "better": "lower", "bound": 0.25}


def test_bound_verdict_says_unresolved_when_the_parent_spreads_past_the_bound():
    # Parent IQR 10 over median 30 is wider than the 0.25 bound.
    wide = [pair(10, 21), pair(30, 29), pair(30, 31), pair(50, 28)]
    s = bench_pairs.summarize(wide, "latency_ms.p50", "lower")
    assert s["parent_iqr"] / s["parent"]["median"] > SPEC["bound"]
    assert bench_pairs.bound_verdict(s, SPEC) == "unresolved"
    # The same spread is resolved when every change run beats every parent run.
    apart = [pair(10, 5), pair(30, 6), pair(30, 7), pair(50, 8)]
    s = bench_pairs.summarize(apart, "latency_ms.p50", "lower")
    assert s["separated"] and bench_pairs.bound_verdict(s, SPEC) == "ok"
    # A narrow parent resolves without separation.
    narrow = [pair(30, 31), pair(30, 29), pair(31, 30)]
    s = bench_pairs.summarize(narrow, "latency_ms.p50", "lower")
    assert bench_pairs.bound_verdict(s, SPEC) == "ok"
    # A median past the bound is worse, whatever the spread.
    slow = [pair(10, 60), pair(30, 61), pair(30, 62), pair(50, 63)]
    s = bench_pairs.summarize(slow, "latency_ms.p50", "lower")
    assert bench_pairs.bound_verdict(s, SPEC) == "WORSE THAN BOUND"
    s = bench_pairs.summarize(slow, "latency_ms.p50", "higher")
    assert bench_pairs.bound_verdict(s, {**SPEC, "better": "higher"}) == "ok"


def claim_row(failed_parent=0, failed_change=0, correct=True):
    pairs = [pair(80 + k % 3, 70 + k % 2) for k in range(10)]
    return {"pairs": len(pairs), "failed": {"parent": failed_parent, "change": failed_change},
            "correct": correct,
            "latency_ms.p50": bench_pairs.summarize(pairs, "latency_ms.p50", "lower")}


def test_claim_needs_wins_a_gain_past_the_iqr_no_more_failures_and_correct_runs():
    met, gain = bench_pairs.claim_met(claim_row(), "latency_ms.p50", "lower")
    assert met and gain == 10.5
    assert bench_pairs.claim_met(claim_row(1, 1), "latency_ms.p50", "lower")[0]
    assert not bench_pairs.claim_met(claim_row(0, 1), "latency_ms.p50", "lower")[0]
    assert not bench_pairs.claim_met(claim_row(correct=False), "latency_ms.p50", "lower")[0]
    # Read the other way round, the same runs are a loss.
    assert not bench_pairs.claim_met(claim_row(), "latency_ms.p50", "higher")[0]
