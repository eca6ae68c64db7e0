"""Benchmark of the tagcloud layout engine.

    python3 perfbench/run.py --workload text-mincut --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process acts as one closed-loop client: it sends the next
request when the previous one has returned, with no threads.  The
workload's requests are built from ``--seed``; then whole passes over
them run for about ``--seconds``.  The first pass checks every output;
later passes must reproduce the first pass's outputs exactly.

With ``--trace 0`` nothing is wrapped and the last line reports the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate, and the last line reports per-request self times and counts
per layer; the spans are written to ``.perfbench/`` in the checkout.
The last line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from speed import SpeedTrack
from workloads import WORKLOADS, check

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT_DIR / "src"

# Pairs of fresh interpreters timed per run for setup_s.
SETUP_PAIRS = 9

# A fresh interpreter's ``import numpy`` at nominal machine speed, on
# the machine the benchmark was tuned on (Intel Xeon, 2 vCPUs, CPython
# 3.11, numpy 2.4), so scaled set-up times read close to raw ones there.
REFERENCE_IMPORT_S = 0.155

# A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def measure_setup() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing tagcloud, the start-up
    every command-line call pays, scaled to nominal machine speed; and
    its raw median.

    On a shared host, starting a process runs 20-30% slower for minutes
    at a time, and the reference loop in speed.py does not follow that.
    So each timing is paired with one of a fresh interpreter importing
    numpy alone, which no change to the program can touch.  The median
    of the pairs' ratios is scaled by that import's nominal time."""

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)

    def timed(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT_DIR,
                       check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    ratios, raw = [], []
    for _ in range(SETUP_PAIRS):
        reference = timed("import numpy")
        raw.append(timed("import tagcloud"))
        ratios.append(raw[-1] / reference)
    return REFERENCE_IMPORT_S * statistics.median(ratios), statistics.median(raw)


def max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def output_digest(out, kind: str) -> bytes:
    h = hashlib.sha256()
    h.update(out.stats.encode())
    if kind == "inline":
        h.update(repr(out.layout.lines).encode())
    else:
        h.update(repr([(p.tag, p.x, p.y, p.width, p.height)
                       for p in out.placed.placements]).encode())
        h.update(repr(out.placed.bbox).encode())
    h.update(out.html.encode())
    return h.digest()


class Run:
    """One benchmark run: the passes made and what they produced."""

    def __init__(self, workload, requests, tc):
        self.workload = workload
        self.requests = requests
        self.tc = tc
        self.max_attempts = tc.mincut.MAX_WIDTH_RETRIES
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[bytes | None] = []
        self.quality = {"area_kpx": 0.0, "badness_l2": 0, "weighted_dist": 0.0}

    def _fail(self, i: int, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"request {i} ({self.requests[i].label}): {what}")

    def one(self, i: int, run, speed: SpeedTrack,
            on_outcome=None) -> tuple[int, int, int] | None:
        """Time request i; returns its start, end and own time in ns
        (without the speed timer's work), None if it failed."""

        req = self.requests[i]
        first_pass = i == len(self.digests)
        self.attempted += 1
        # Start without the previous requests' cyclic garbage, as a fresh
        # command-line process does.
        gc.collect()
        spent = speed.spent_ns
        t0 = time.perf_counter_ns()
        try:
            out = run(self.tc, req)
        except Exception as e:  # any exception is a failed request
            self._fail(i, f"{type(e).__name__}: {e}")
            if first_pass:
                self.digests.append(None)
            return None
        t1 = time.perf_counter_ns()
        own = t1 - t0 - (speed.spent_ns - spent)
        kind = self.workload.kind
        if first_pass:
            problems = check(self.workload, req, out, self.max_attempts)
            if problems:
                self._fail(i, "; ".join(problems))
                self.digests.append(None)
                return None
            self.digests.append(output_digest(out, kind))
            self.quality["area_kpx"] += out.area_kpx
            self.quality["badness_l2"] += out.badness_l2
            self.quality["weighted_dist"] += out.weighted_dist
        elif output_digest(out, kind) != self.digests[i]:
            self._fail(i, "output differs from the first pass")
            return None
        if on_outcome:
            on_outcome(out)
        return t0, t1, own

    def one_pass(self, run=None, on_outcome=None) -> list[tuple[int, int, float] | None]:
        """Latency in ns of each request in order, as (wall, own, scaled);
        None where it failed.  Own time leaves out the speed timer's
        work; scaled time is own time at nominal machine speed."""

        run = run or self.workload.run
        with SpeedTrack() as speed:
            spans = [self.one(i, run, speed, on_outcome) for i in range(len(self.requests))]
        return [None if span is None else
                (span[1] - span[0], span[2], span[2] * speed.scale(span[0], span[1]))
                for span in spans]

    def output_sha256(self) -> str:
        h = hashlib.sha256()
        for d in self.digests:
            h.update(d or b"failed")
        return h.hexdigest()


def percentile_line(samples_ms: list[float]) -> str:
    n = len(samples_ms)
    p50 = statistics.median(samples_ms)
    line = f"latency_ms p50={p50:.3f} (n={n})"
    if n >= 10 * TAIL_SAMPLES:
        p90 = statistics.quantiles(samples_ms, n=10)[8]
        line += f" p90={p90:.3f} (n={n}, {sum(s > p90 for s in samples_ms)} beyond)"
    else:
        line += f" p90 not reported: {n} samples leave fewer than {TAIL_SAMPLES} beyond it"
    return line


def untraced(run: Run, seconds: float) -> tuple[dict, list[str]]:
    start = time.perf_counter()
    own_ms: list[float] = []
    scaled_ms: list[float] = []
    passes = 0
    while True:
        pass_lat = [lat for lat in run.one_pass() if lat is not None]
        own_ms += [own / 1e6 for _, own, _ in pass_lat]
        scaled_ms += [scaled / 1e6 for _, _, scaled in pass_lat]
        passes += 1
        estimate = sum(wall for wall, _, _ in pass_lat) / 1e9 * 1.02
        if time.perf_counter() - start + estimate > seconds:
            break
    if not own_ms:
        return {}, [f"passes={passes} requests={len(run.requests)}: every request failed"]
    metrics = {
        "latency_ms.p50": (statistics.median(scaled_ms), "ms"),
        "throughput_rps": (len(scaled_ms) * 1e3 / sum(scaled_ms), "1/s"),
        "quality.area_kpx": (run.quality["area_kpx"], "kpx"),
    }
    q = run.quality
    report = [
        f"passes={passes} requests_per_pass={len(run.requests)} busy_s={sum(own_ms) / 1e3:.3f}",
        "scaled " + percentile_line(scaled_ms),
        "unscaled " + percentile_line(own_ms) + f" rps={len(own_ms) * 1e3 / sum(own_ms):.4f}",
        f"quality area_kpx={q['area_kpx']:.3f} badness_l2={q['badness_l2']}"
        f" weighted_dist={q['weighted_dist']:.3f}",
        f"output_sha256={run.output_sha256()}",
    ]
    return metrics, report


def traced(run: Run, seconds: float, workload_name: str, seed: int) -> tuple[dict, list[str], bool]:
    rec = tracing.Recorder()
    counts = tracing.Counts(run.tc.mincut.DEFAULT_FM_RUNS)
    root = rec.wrap(tracing.ROOT, run.workload.run)
    plain_ns = traced_ns = traced_wall_ns = 0
    plain_passes = traced_passes = traced_requests = 0
    missing: list[str] = []
    start = time.perf_counter()

    def run_and_count(tc, req):
        rec.request += 1
        return root(tc, req)

    def on_outcome(out):
        counts.add(rec.take_returns(), out, run.workload.kind)

    while True:
        lat = [ns for ns in run.one_pass() if ns is not None]
        plain_ns += sum(scaled for _, _, scaled in lat)
        plain_passes += 1
        missing = rec.install()
        try:
            lat = [ns for ns in run.one_pass(run_and_count, on_outcome) if ns is not None]
        finally:
            rec.uninstall()
        rec.take_returns()
        traced_wall_ns += sum(wall for wall, _, _ in lat)
        traced_ns += sum(scaled for _, _, scaled in lat)
        traced_passes += 1
        traced_requests += len(lat)
        if time.perf_counter() - start + 2.2 * traced_wall_ns / 1e9 / traced_passes > seconds:
            break

    spans = rec.spans
    selfs, broken = tracing.self_times(spans)
    # The root spans' self time is the request's work outside every
    # named layer; the layers must account for the rest of the
    # traced wall time.
    glue_ns = sum(s for span, s in zip(spans, selfs) if span[0] == tracing.ROOT)
    layer_ns = sum(selfs) - glue_ns
    problems = [f"trace target {m} not found" for m in missing] + counts.check()
    if broken:
        problems.append(f"{broken} spans break nesting")
    if layer_ns < (1 - tracing.GLUE_TOLERANCE) * traced_wall_ns:
        problems.append(f"the named layers cover {layer_ns / traced_wall_ns:.1%} of the"
                        f" traced request time, below {1 - tracing.GLUE_TOLERANCE:.0%}")
    ok = not problems
    requests = max(traced_requests, 1)
    values = tracing.layer_metrics(spans, selfs, requests)
    values.update(counts.metrics(requests))
    values["trace.glue_ms"] = glue_ns / 1e6 / requests
    values["trace.overhead_ratio"] = ((traced_ns / traced_passes) / (plain_ns / plain_passes)
                                      if plain_ns else 0.0)
    units = {m["name"]: m["unit"] for m in tracing.per_layer_spec()}
    metrics = {name: (values[name], units[name]) for name in units}

    report = [f"traced passes={traced_passes} requests={traced_requests}"
              f" spans={len(spans)} layers_ms={layer_ns / 1e6:.3f}"
              f" glue_ms={glue_ns / 1e6:.3f}"
              f" traced_wall_ms={traced_wall_ns / 1e6:.3f}"
              f" layer_share={layer_ns / max(traced_wall_ns, 1):.2%}"
              f" (at least {1 - tracing.GLUE_TOLERANCE:.0%})"
              f" retried_vertical_splits={counts.retried_splits}"
              f" cut_nodes={counts.cut_nodes}"]
    total_self = sum(selfs) or 1
    shares = sorted(((values[f"{n}.self_ms"] * requests * 1e6 / total_self, n)
                     for n in tracing.span_names()), reverse=True)
    report.append("self-time share: " + " ".join(
        f"{n}={s:.1%}" for s, n in shares if s >= 0.001))
    report += [f"check failed: {p}" for p in problems]

    out_dir = ROOT_DIR / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload_name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload_name, "seed": seed,
                   "fields": ["name", "request", "parent", "start_ns", "end_ns", "self_ns"],
                   "spans": [s + [d] for s, d in zip(spans, selfs)]}, f)
    report.append(f"spans written to {path.relative_to(ROOT_DIR)}")
    return metrics, report, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "tagcloud" / "__init__.py").is_file():
        print(f"perfbench: no tagcloud package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import numpy
    import tagcloud
    import tagcloud.htmlgen
    import tagcloud.mincut

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}"
              f" (choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    setup_s, setup_raw_s = measure_setup() if not args.trace else (None, None)
    imports_kb = max_rss_kb()
    requests = workload.make_pass(args.seed)
    gc.collect()
    gc.freeze()  # the collections between requests skip the inputs
    inputs_kb = max_rss_kb()
    run = Run(workload, requests, tagcloud)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
          f" python={platform.python_version()} numpy={numpy.__version__}"
          f" nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r}")
    if args.trace:
        metrics, report, ok = traced(run, args.seconds, args.workload, args.seed)
    else:
        metrics, report = untraced(run, args.seconds)
        ok = bool(metrics)
        metrics["setup_s"] = (setup_s, "s")
        report.append(f"unscaled setup_s={setup_raw_s:.4f}")
        # What one command-line call would peak at: the interpreter with
        # tagcloud imported, plus the requests' growth over the inputs,
        # which a call holds only one of.
        growth_kb = max_rss_kb() - inputs_kb
        metrics["peak_rss_mb"] = ((imports_kb + growth_kb) / 1024, "MB")
        report.append(f"rss_mb imports={imports_kb / 1024:.1f}"
                      f" with_inputs={inputs_kb / 1024:.1f}"
                      f" request_growth={growth_kb / 1024:.1f}")
    fail_rate = run.failed / run.attempted if run.attempted else 1.0
    report.append(f"fail_rate={fail_rate:.4f} ({run.failed} of {run.attempted})")
    report += [f"failed: {p}" for p in run.problems]
    for line in report:
        print(line)
    print(json.dumps({
        "correct": ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
