"""Replay one benchmark pass's min-cut splits against source trees.

    python3 tools/replay_splits.py WORKLOAD SEED SRC [SRC ...] [--requests N]

Runs one pass of WORKLOAD at SEED, as ``perfbench/workloads.py`` builds
and runs it, on the first SRC tree's ``tagcloud`` package, and records
every ``bipartition_fm`` and ``bipartition_exhaustive`` call the pass
makes by wrapping the two from outside; ``--requests`` keeps the pass's
first N requests.  Then each SRC tree makes the same calls, on graph
and pull objects of its own built before the clock starts, and prints
one line: the seconds its FM calls and its exhaustive calls took (the
least of ``REPEAT`` replays) and the SHA-256 digest of the results in
call order: parts, relaxed flag and each FM run's passes.
The recording prints the digest of the results the pass itself got.
Equal digests mean the trees split every recorded group alike.  Each
tree is imported under a package name of its own, so that all of them
run in this one process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import inspect
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPLITTERS = ("bipartition_fm", "bipartition_exhaustive")
REPEAT = 3  # replays per tree; the least time is printed


def load_workloads() -> dict:
    """``perfbench/workloads.py``'s workload table, imported as it stands."""

    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.WORKLOADS


def load_tree(src: Path, name: str):
    """The ``tagcloud`` package under ``src``, imported as ``name``."""

    pkg = Path(src) / "tagcloud"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    tc = importlib.util.module_from_spec(spec)
    sys.modules[name] = tc
    spec.loader.exec_module(tc)
    importlib.import_module(f"{name}.htmlgen")  # the workloads render HTML
    return tc


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.part_a, r.part_b, r.relaxed,
                       tuple(run.passes for run in r.runs))).encode())
    return h.hexdigest()


def record(tc, workload: str, seed: int, requests: int | None = None):
    """Every splitter call of the pass, in call order, as (splitter
    name, bound arguments), and the results the pass got from them."""

    mincut = tc.mincut
    calls, results = [], []
    saved = {name: getattr(mincut, name) for name in SPLITTERS}

    def wrap(name, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            calls.append((name, sig.bind(*args, **kwargs).arguments))
            results.append(fn(*args, **kwargs))
            return results[-1]
        return wrapper

    for name, fn in saved.items():
        setattr(mincut, name, wrap(name, fn))
    try:
        work = load_workloads()[workload]
        for req in work.make_pass(seed)[:requests]:
            work.run(tc, req)
    finally:
        for name, fn in saved.items():
            setattr(mincut, name, fn)
    return calls, results


def localize(tc, calls):
    """The calls as (splitter name, function, keyword arguments) of
    ``tc``, with the graphs and pulls rebuilt from its own classes: one
    graph per recorded graph, so each builds its adjacency once."""

    graphs = {}
    out = []
    for name, arguments in calls:
        kw = dict(arguments)
        graph = kw["graph"]  # the calls keep it alive, so its id stays its own
        if id(graph) not in graphs:
            graphs[id(graph)] = tc.RelationGraph(graph.edges)
        kw["graph"] = graphs[id(graph)]
        kw["pulls"] = tc.mincut.Pulls(**{side: dict(getattr(kw["pulls"], side))
                                        for side in tc.mincut.SIDES})
        out.append((name, getattr(tc.mincut, name), kw))
    return out


def replay(tc, calls):
    """The least seconds per splitter over ``REPEAT`` replays of the
    calls on ``tc``, and the digest of its results."""

    local = localize(tc, calls)
    best = dict.fromkeys(SPLITTERS, float("inf"))
    for _ in range(REPEAT):
        gc.collect()
        spent = dict.fromkeys(SPLITTERS, 0.0)
        results = []
        for name, fn, kw in local:
            start = time.perf_counter()
            results.append(fn(**kw))
            spent[name] += time.perf_counter() - start
        best = {name: min(best[name], spent[name]) for name in SPLITTERS}
    return best, digest(results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("src", nargs="+", type=Path)
    parser.add_argument("--requests", type=int, default=None,
                        help="replay only the pass's first N requests")
    args = parser.parse_args(argv)
    if args.workload not in load_workloads():
        parser.error(f"unknown workload {args.workload!r}")

    trees = [load_tree(src, f"tagcloud_replay_{k}") for k, src in enumerate(args.src)]
    calls, results = record(trees[0], args.workload, args.seed, args.requests)
    counts = " ".join(f"{name}={sum(c[0] == name for c in calls)}" for name in SPLITTERS)
    print(f"recorded {args.workload} seed {args.seed} on {args.src[0]}: {counts}"
          f" sha256={digest(results)}")
    for src, tc in zip(args.src, trees):
        seconds, got = replay(tc, calls)
        times = " ".join(f"{name}={seconds[name]:.3f}s" for name in SPLITTERS)
        print(f"{src}: {times} sha256={got}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
