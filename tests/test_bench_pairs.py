import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

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
    assert lower["parent_spread"] == 0.1  # IQR 1 over median 10
    higher = bench_pairs.summarize(pairs, "latency_ms.p50", "higher")
    assert (higher["change_wins"], higher["ties"]) == (1, 1)
    assert not lower["separated"] and not higher["separated"]
    apart = bench_pairs.summarize([pair(10, 7), pair(9, 8)], "latency_ms.p50", "lower")
    assert apart["separated"]
    assert apart["parent_spread"] == 0.0526  # IQR 0.5 over median 9.5


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


def claim_row(failed_parent=0, failed_change=0, correct=True, attempted=(100, 100)):
    pairs = [pair(80 + k % 3, 70 + k % 2) for k in range(10)]
    return {"pairs": len(pairs), "failed": {"parent": failed_parent, "change": failed_change},
            "attempted": dict(zip(("parent", "change"), attempted)), "correct": correct,
            "latency_ms.p50": bench_pairs.summarize(pairs, "latency_ms.p50", "lower")}


def test_claim_needs_wins_a_gain_past_the_iqr_no_more_failures_and_correct_runs():
    met, gain = bench_pairs.claim_met(claim_row(), "latency_ms.p50", "lower")
    assert met and gain == 10.5
    assert bench_pairs.claim_met(claim_row(1, 1), "latency_ms.p50", "lower")[0]
    assert not bench_pairs.claim_met(claim_row(0, 1), "latency_ms.p50", "lower")[0]
    assert not bench_pairs.claim_met(claim_row(correct=False), "latency_ms.p50", "lower")[0]
    # Read the other way round, the same runs are a loss.
    assert not bench_pairs.claim_met(claim_row(), "latency_ms.p50", "higher")[0]


def test_claim_compares_failed_shares_not_counts():
    # A faster change attempts more: 2 of 200 fail against 1 of 100.
    assert bench_pairs.claim_met(claim_row(1, 2, attempted=(100, 200)),
                                 "latency_ms.p50", "lower")[0]
    assert not bench_pairs.claim_met(claim_row(1, 3, attempted=(100, 200)),
                                     "latency_ms.p50", "lower")[0]
    # One failed operation of one attempted, as a crashed run counts, is
    # a larger share than 1 of 100.
    assert not bench_pairs.claim_met(claim_row(1, 1, attempted=(100, 1)),
                                     "latency_ms.p50", "lower")[0]


def test_a_side_without_a_finished_run_has_no_verdict_and_no_claim():
    crashed = [{"parent": {"metrics": {"latency_ms.p50": {"value": 10}}},
                "change": {"metrics": {}}}] * 3
    s = bench_pairs.summarize(crashed, "latency_ms.p50", "lower")
    assert bench_pairs.bound_verdict(s, SPEC) == "no runs"
    row = {"pairs": 3, "failed": {"parent": 0, "change": 3},
           "attempted": {"parent": 12, "change": 3}, "correct": False, "latency_ms.p50": s}
    assert bench_pairs.claim_met(row, "latency_ms.p50", "lower") == (False, None)


def stub_doc(met=True, verdict="ok", identical=True):
    return {"claim": {"workload": "w", "metric": "latency_ms.p50", "met": met},
            "workloads": {"w": {"pairs": 10, "failed": {"parent": 0, "change": 0},
                                "latency_ms.p50": {"verdict": "ok"},
                                "throughput_rps": {"verdict": verdict}}},
            "same_layouts": {"identical": identical}}


@pytest.mark.parametrize("doc, reasons", [
    (stub_doc(), []),
    (stub_doc(verdict="unresolved"), []),
    ({**stub_doc(), "claim": None}, []),
    (stub_doc(met=False), ["claim w:latency_ms.p50 not met"]),
    (stub_doc(verdict="WORSE THAN BOUND"), ["w throughput_rps WORSE THAN BOUND"]),
    (stub_doc(identical=False), ["same-output check found different layouts"]),
], ids=["all-clear", "unresolved", "no-claim", "claim", "worse", "layouts"])
def test_failures_name_each_reason_to_exit_1(doc, reasons):
    assert bench_pairs.failures(doc) == reasons


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_trees_sit_side_by_side_and_the_change_holds_uncommitted_edits(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    for name, text in (("a.txt", "old"), ("gone.txt", "x"), (".gitignore", "*.log\n")):
        (repo / name).write_text(text)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "a.txt").write_text("new")
    (repo / "gone.txt").unlink()
    (repo / "sub").mkdir()
    (repo / "sub" / "b.txt").write_text("untracked")
    (repo / "run.log").write_text("ignored")

    trees = bench_pairs.make_trees(repo, "HEAD", tmp_path / "work")
    assert {t.parent for t in trees.values()} == {tmp_path / "work"}
    parent, change = trees["parent"], trees["change"]
    assert (parent / "a.txt").read_text() == "old"
    assert (change / "a.txt").read_text() == "new"
    assert (change / "sub" / "b.txt").read_text() == "untracked"
    assert (parent / "gone.txt").exists() and not (change / "gone.txt").exists()
    assert not (change / "run.log").exists() and not (parent / "sub").exists()


STUB_RUN = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if {crash} and args["--seed"] == "2":
    sys.exit(1)
print(f"workload={{args['--workload']}} seed={{args['--seed']}} python=3 stub")
print("output_sha256=abc")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0, "metrics": {{
    "latency_ms.p50": {{"value": {p50}, "unit": "ms"}},
    "quality.area_kpx": {{"value": 1.0, "unit": "kpx"}}}}}}))
"""


def stub_repo(tmp_path, monkeypatch, crash):
    """A repo whose parent's stub runs read p50 10 ms and whose change's
    read 5 ms, its seed-2 run exiting 1 if ``crash``."""

    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "latency_ms.p50", "better": "lower", "bound": 0.25},
                       {"name": "quality.area_kpx", "better": "lower", "bound": 0.06}]}))
    run_py = repo / "perfbench" / "run.py"
    run_py.write_text(STUB_RUN.format(crash=False, p50=10.0))
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    run_py.write_text(STUB_RUN.format(crash=crash, p50=5.0))
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    return repo


def test_a_met_claim_with_the_same_layouts_exits_0(tmp_path, monkeypatch):
    repo = stub_repo(tmp_path, monkeypatch, crash=False)
    assert bench_pairs.main(["--topic", "stub", "--workdir", str(tmp_path / "work"),
                             "--run", "w=1-10", "--claim", "w:latency_ms.p50"]) == 0
    doc = json.loads((repo / "BENCH_stub.json").read_text())
    assert doc["claim"]["met"] and doc["same_layouts"]["identical"]


def test_a_run_that_exits_nonzero_counts_as_failed_and_the_json_is_still_written(
        tmp_path, monkeypatch):
    # The change is faster, but its seed-2 run exits 1.
    repo = stub_repo(tmp_path, monkeypatch, crash=True)

    # The claim is unmet and the layouts differ, so the script exits 1.
    assert bench_pairs.main(["--topic", "stub", "--workdir", str(tmp_path / "work"),
                             "--run", "w=1-10", "--claim", "w:latency_ms.p50"]) == 1
    doc = json.loads((repo / "BENCH_stub.json").read_text())
    row = doc["workloads"]["w"]
    assert row["exit_codes"] == {"parent": [0] * 10, "change": [0, 1] + [0] * 8}
    assert row["failed"] == {"parent": 0, "change": 1} and not row["correct"]
    assert row["attempted"] == {"parent": 40, "change": 37}  # the exit counts 1 of 1
    assert row["latency_ms.p50"]["change_wins"] == 9
    assert row["latency_ms.p50"]["change"]["median"] == 5.0
    assert not doc["claim"]["met"]
    assert not doc["same_layouts"]["identical"]  # the seed-2 check exited 1 too


@pytest.mark.parametrize("args, error", [
    (["--run", "x=1-3"], "--run x=1-3: no workload 'x' in BENCHMARK.json"),
    (["--run", "w=1-3", "--claim", "w:latency_ms.p5"],
     "--claim w:latency_ms.p5: no end-to-end metric 'latency_ms.p5' in BENCHMARK.json"),
    (["--run", "w=1-3", "--claim", "v:latency_ms.p50"],
     "--claim v:latency_ms.p50: workload 'v' has no --run"),
    # Nine tenths of 3 pairs is 2 wins, so a 3-pair run could meet a claim.
    (["--run", "w=1-9", "--claim", "w:latency_ms.p50"],
     "--claim w:latency_ms.p50: a claim needs at least 10 pairs, --run w has 9"),
    # These once died with a ValueError traceback, ran no pairs, or
    # silently replaced the first --run of the workload.
    (["--run", "w="], "--run w=: '' is not a seed or a range like 11-20"),
    (["--run", "w=a"], "--run w=a: 'a' is not a seed or a range like 11-20"),
    (["--run", "w=1,,2"], "--run w=1,,2: '' is not a seed or a range like 11-20"),
    (["--run", "w=5-3"], "--run w=5-3: '5-3' is an empty range"),
    (["--run", "w=1-3", "--run", "w=4-6"], "--run w=4-6: workload 'w' has a --run already"),
])
def test_arguments_are_checked_before_any_tree_is_built(tmp_path, monkeypatch, capsys,
                                                        args, error):
    # A typo here once surfaced as a KeyError after every pair had run.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "latency_ms.p50", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--topic", "t", "--workdir", str(tmp_path / "work"), *args])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {error}\n")
    assert not (tmp_path / "work").exists()
