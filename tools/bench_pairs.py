"""Alternating parent/change benchmark pairs, written as BENCH_<topic>.json.

    python3 tools/bench_pairs.py --topic NAME --parent REV --workdir DIR \\
        --run text-mincut=11-20 --run plain-mincut=21-23 [--claim text-mincut:latency_ms.p50]

The parent is a ``git archive`` of REV unpacked into
``--workdir``/parent-REV; the change is a copy of this checkout's
tracked and untracked, non-ignored files as they stand, in
``--workdir``/change (neither directory may exist yet).  So both sides
run ``perfbench/run.py`` from sibling trees with the same settings:
``BENCHMARK.json``'s ``run_seconds`` per run.  A run that exits
non-zero is recorded with its exit code and counts as one failed
operation of one attempted, and as incorrect.  For each
``--run WORKLOAD=SEEDS`` entry, pair k runs seed k on both sides; the
parent goes first in pairs 1, 3, 5, ...  The JSON
holds, per workload and end-to-end metric, each side's median and
quartiles (inclusive method), the pairs the change won, ties, the
change/parent ratio of the medians, the parent's interquartile range,
its spread (that range over the parent's median, printed beside each
verdict, so a ratio inside the noise shows as such) and the verdict
against the metric's bound.  It also holds the
same-output check (``output_sha256`` and ``quality.area_kpx`` on 1 s
runs of seeds 1-3 of every workload), optionally one traced run per
side, and the machine line.

A metric's verdict is ``WORSE THAN BOUND`` when the change/parent ratio
of the medians is worse than its ``BENCHMARK.json`` bound,
``unresolved`` when the parent's interquartile range over its median is
wider than the bound and some change run does not beat every parent
run, and ``ok`` otherwise.  A ``--claim WORKLOAD:METRIC`` is met when
the change wins at least nine tenths of that workload's pairs, the
medians differ by more than the parent's interquartile range, the
change fails no larger share of the operations it attempts than the
parent (a faster change attempts more), and every run is correct.
The ``--run`` workloads, their seed lists (one ``--run`` per
workload) and the ``--claim`` are checked against ``BENCHMARK.json``
and the ``--run`` list before any tree is built; a claim needs at
least 10 pairs, since nine tenths of 3 pairs is 2 wins.

After writing the JSON the script exits 1, naming each reason, when
the ``--claim`` is not met, a verdict reads ``WORSE THAN BOUND`` or the
same-output check finds a difference; ``unresolved`` alone does not
fail it.  Otherwise it exits 0.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SAME_SEEDS = (1, 2, 3)  # the same-output check, 1 s each
CLAIM_PAIRS = 10  # fewest pairs a claim is judged on


def seed_range(text: str) -> list[int]:
    """``11-20`` or ``1,4,7`` (or a mix) as a list of seeds; a part that
    is not a seed or a rising range is a ``ValueError`` naming it."""

    seeds = []
    for part in text.split(","):
        bounds = re.fullmatch(r"([0-9]+)(?:-([0-9]+))?", part)
        if not bounds:
            raise ValueError(f"{part!r} is not a seed or a range like 11-20")
        lo, hi = int(bounds[1]), int(bounds[2] or bounds[1])
        if hi < lo:
            raise ValueError(f"{part!r} is an empty range")
        seeds += range(lo, hi + 1)
    return seeds


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call in ``tree``: its JSON line plus the
    report lines the JSON leaves out."""

    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return {"exit_code": proc.returncode, "correct": False, "failed": 1, "attempted": 1,
                "metrics": {}, "stderr": proc.stderr[-2000:]}
    lines = proc.stdout.splitlines()
    result = {"exit_code": 0, **json.loads(lines[-1])}
    result["machine"] = lines[0].split(" python=", 1)[1]
    for line in lines:
        if line.startswith("output_sha256="):
            result["output_sha256"] = line.split("=", 1)[1]
    return result


def make_trees(root: Path, rev: str, workdir: Path) -> dict[str, Path]:
    """Both sides' trees under ``workdir``: the parent unpacked from a
    ``git archive`` of ``rev``, the change copied from ``root``'s tracked
    and untracked, non-ignored files as they stand."""

    trees = {"parent": workdir / f"parent-{rev}", "change": workdir / "change"}
    for tree in trees.values():
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=root, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, capture_output=True,
                            check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        if (root / name).is_file():  # not a tracked file deleted in the checkout
            dest = trees["change"] / name
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest)
    return trees


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs: list[dict[str, dict]], name: str, better: str) -> dict:
    """Each side's quartiles over its runs that report ``name``, and wins
    and ties over the pairs where both do; empty when either side has
    no such run."""

    vals = {side: [p[side]["metrics"][name]["value"] for p in pairs
                   if name in p[side]["metrics"]] for side in SIDES}
    if not (vals["parent"] and vals["change"]):
        return {}
    both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
            for p in pairs if all(name in p[side]["metrics"] for side in SIDES)]
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (c - p) > 0 for p, c in both)
    ties = sum(c == p for p, c in both)
    stats = {side: quartiles(vals[side]) for side in SIDES}
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    median = stats["parent"]["median"]
    return {**stats, "change_wins": wins, "ties": ties,
            "median_ratio_change_over_parent": round(stats["change"]["median"] / median, 4),
            "parent_iqr": round(iqr, 4),
            "parent_spread": round(iqr / abs(median), 4),
            "separated": all(sign * (c - p) > 0
                             for p in vals["parent"] for c in vals["change"])}


def bound_verdict(s: dict, spec: dict) -> str:
    """One ``summarize`` row against its ``BENCHMARK.json`` entry."""

    if "change" not in s:
        return "no runs"
    worse = (s["median_ratio_change_over_parent"] - 1) * (
        1 if spec["better"] == "lower" else -1)
    if worse > spec["bound"]:
        return "WORSE THAN BOUND"
    if s["parent_iqr"] > spec["bound"] * abs(s["parent"]["median"]) and not s["separated"]:
        return "unresolved"
    return "ok"


def claim_met(row: dict, name: str, better: str) -> tuple[bool, float | None]:
    """Whether a workload's row bears out a gain on ``name``, and the gain
    (None without a run on either side)."""

    s = row[name]
    if "change" not in s:
        return False, None
    gain = s["parent"]["median"] - s["change"]["median"]
    if better == "higher":
        gain = -gain
    failed, attempted = row["failed"], row["attempted"]
    met = (s["change_wins"] >= 0.9 * row["pairs"] and gain > s["parent_iqr"]
           # failed shares, compared without dividing
           and failed["change"] * attempted["parent"] <= failed["parent"] * attempted["change"]
           and row["correct"])
    return met, gain


def failures(doc: dict) -> list[str]:
    """Why a written ``doc`` fails the change: an unmet claim, each
    ``WORSE THAN BOUND`` verdict, different layouts.  Empty if none."""

    reasons = []
    if doc["claim"] and not doc["claim"]["met"]:
        reasons.append(f"claim {doc['claim']['workload']}:{doc['claim']['metric']} not met")
    for workload, row in doc["workloads"].items():
        reasons += [f"{workload} {name} WORSE THAN BOUND" for name, s in row.items()
                    if isinstance(s, dict) and s.get("verdict") == "WORSE THAN BOUND"]
    if not doc["same_layouts"]["identical"]:
        reasons.append("same-output check found different layouts")
    return reasons


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--topic", required=True, help="writes BENCH_<topic>.json")
    parser.add_argument("--parent", default="HEAD", help="parent commit (default HEAD)")
    parser.add_argument("--workdir", required=True, type=Path,
                        help="directory to put the parent and change trees in")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD=SEEDS")
    parser.add_argument("--trace-seed", type=int, help="also run one traced pass per side")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    all_workloads = [w["name"] for w in bench["workloads"]]
    runs = {}
    for entry in args.run:
        workload, _, seeds = entry.partition("=")
        if workload not in all_workloads:
            parser.error(f"--run {entry}: no workload {workload!r} in BENCHMARK.json")
        if workload in runs:
            parser.error(f"--run {entry}: workload {workload!r} has a --run already")
        try:
            runs[workload] = seed_range(seeds)
        except ValueError as err:
            parser.error(f"--run {entry}: {err}")
    if args.claim:
        workload, _, name = args.claim.partition(":")
        if workload not in runs:
            parser.error(f"--claim {args.claim}: workload {workload!r} has no --run")
        if name not in end_to_end:
            parser.error(f"--claim {args.claim}: no end-to-end metric {name!r}"
                         " in BENCHMARK.json")
        if len(runs[workload]) < CLAIM_PAIRS:
            parser.error(f"--claim {args.claim}: a claim needs at least {CLAIM_PAIRS} pairs,"
                         f" --run {workload} has {len(runs[workload])}")

    rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    trees = make_trees(ROOT, rev, args.workdir)

    def both(workload: str, seed: int, seconds: float, trace: int, parent_first: bool):
        order = SIDES if parent_first else SIDES[::-1]
        out = {side: run_bench(trees[side], workload, seed, seconds, trace) for side in order}
        print(f"{workload} seed={seed} trace={trace} " + " ".join(
            f"{side}: p50={out[side]['metrics'].get('latency_ms.p50', {}).get('value', '-')}"
            f" correct={out[side]['correct']}" for side in SIDES), flush=True)
        return out

    doc = {"topic": args.topic, "change": args.change, "parent_commit": rev,
           "command": f"python3 perfbench/run.py --workload W --seed S"
                      f" --seconds {seconds:g} --trace 0",
           "protocol": "alternating parent/change pairs from sibling trees: parent"
                       f" unpacked from a git archive of {rev}, change copied from the"
                       " checkout's tracked and untracked, non-ignored files; the parent"
                       " runs first in pairs 1, 3, 5, ...; medians and quartiles (inclusive"
                       " method); a run that exits non-zero counts as 1 failed of 1"
                       " attempted and as incorrect; a claim compares failed shares",
           "machine": None, "claim": args.claim, "workloads": {}}
    verdicts = []
    for workload, seeds in runs.items():
        pairs = [both(workload, seed, seconds, 0, k % 2 == 0)
                 for k, seed in enumerate(seeds)]
        doc["machine"] = doc["machine"] or next(
            (p[side]["machine"] for p in pairs for side in SIDES if "machine" in p[side]), None)
        row = {"seeds": seeds, "pairs": len(pairs),
               "exit_codes": {side: [p[side]["exit_code"] for p in pairs] for side in SIDES},
               "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
               "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
               "correct": all(p[side]["correct"] for p in pairs for side in SIDES)}
        for name, spec in end_to_end.items():
            s = row[name] = summarize(pairs, name, spec["better"])
            s["verdict"] = bound_verdict(s, spec)
            if "change" not in s:
                verdicts.append(f"{workload:13} {name:17} {s['verdict']}")
                continue
            verdicts.append(f"{workload:13} {name:17} parent {s['parent']['median']:>12.4f}"
                            f" change {s['change']['median']:>12.4f}"
                            f" ratio {s['median_ratio_change_over_parent']:.4f}"
                            f" wins {s['change_wins']}/{len(pairs)}"
                            f" spread {s['parent_spread']:.4f}"
                            f" bound {spec['bound']:.2f} {s['verdict']}")
        doc["workloads"][workload] = row

    if args.claim:
        workload, _, name = args.claim.partition(":")
        row = doc["workloads"][workload]
        s = row[name]
        met, gain = claim_met(row, name, end_to_end[name]["better"])
        doc["claim"] = {"workload": workload, "metric": name, "met": met,
                        "median_gain": None if gain is None else round(gain, 4),
                        "parent_iqr": s.get("parent_iqr"),
                        "change_wins": s.get("change_wins"), "pairs": row["pairs"]}

    rows, same = [], True
    for workload in all_workloads:
        for seed in SAME_SEEDS:
            out = both(workload, seed, 1, 0, True)
            keys = [(out[side].get("output_sha256"),
                     out[side]["metrics"].get("quality.area_kpx", {}).get("value", -1.0))
                    for side in SIDES]
            same &= keys[0] == keys[1] and all(out[side]["exit_code"] == 0 for side in SIDES)
            rows += [f"{workload} seed={seed} {side} output_sha256={k[0]}"
                     f" area_kpx={k[1]:.3f} correct={str(out[side]['correct']).lower()}"
                     f" failed={out[side]['failed']}" for side, k in zip(SIDES, keys)]
    doc["same_layouts"] = {"seeds": list(SAME_SEEDS), "seconds": 1,
                           "identical": same, "rows": rows}

    if args.trace_seed is not None:
        doc["traced"] = {"seed": args.trace_seed, "seconds": 1, "workloads": {}}
        for workload in all_workloads:
            out = both(workload, args.trace_seed, 1, 1, True)
            doc["traced"]["workloads"][workload] = {
                side: {"correct": out[side]["correct"],
                       **{k: v["value"] for k, v in out[side]["metrics"].items()}}
                for side in SIDES}

    path = ROOT / f"BENCH_{args.topic}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for line in verdicts:
        print(line)
    print(f"same layouts on seeds {SAME_SEEDS}: {same}")
    if doc["claim"]:
        print(f"claim {args.claim}: {'met' if doc['claim']['met'] else 'NOT met'}")
    print(f"wrote {path.name}")
    reasons = failures(doc)
    for reason in reasons:
        print(f"FAIL: {reason}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
