"""Benchmark of dianasched's host time and memory on seeded simulation runs.

    python3 bench/run.py                     # all workloads, end-to-end
    python3 bench/run.py --workload deep_queue --seed 7 --seconds 15 --trace 1

Each pass takes a workload's scenario text through the public library
API, `parse_scenario` -> `Simulation(scenario, seed)` -> `run()` ->
`write_run`, one run at a time in this process.  Every time is host
time (`time.perf_counter`); simulated time is never a metric.  The
cyclic GC stays on, as users run it, with a collection before each
timed region.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json;
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (see spans.py).  Every pass is
checked: it fails if it raises, if its job counts do not add up, or if
its outcome digest differs from the one recorded for seed 42 in
digests.json (for another seed, from the run's first pass).  The last
line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 42

sys.path.insert(0, str(SRC))
try:
    import dianasched
except ImportError as exc:
    sys.exit(f"bench: cannot import dianasched from {SRC}: {exc}")
if Path(dianasched.__file__).resolve().parent != SRC / "dianasched":
    sys.exit(f"bench: dianasched was imported from {dianasched.__file__}, "
             f"not from {SRC}")

from dianasched import engine, report, scenario  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# Setup-only passes after each full pass, so setup_s is a median of many.
SETUP_REPEATS = 2
# Fewest timed passes per run (per side when tracing), however slow.
MIN_PASSES = 3

# The summary fields `RunResult.summary()` returned when the digests were
# recorded; fields added later do not enter the digest.
SUMMARY_FIELDS = (
    "scheduler", "queue", "seed", "submitted", "completed",
    "failed_unreachable", "rejected_unschedulable", "pending",
    "mean_exec_time", "total_exec_time", "mean_queue_time",
    "total_queue_time", "mean_transfer_time", "message_count",
    "messages_per_job", "makespan", "mean_utilization", "workload_hash")


def outcome_digest(result) -> str:
    """SHA-256 over every job's outcome and the summary fields above."""
    h = hashlib.sha256()
    for rec in result.records():
        h.update(f"{rec.spec.job_id}|{rec.exec_site}|{rec.scheduled!r}|"
                 f"{rec.started!r}|{rec.completed!r}|{rec.migrations}|"
                 f"{rec.status.value}\n".encode())
    summary = result.summary()
    for key in SUMMARY_FIELDS:
        h.update(f"{key}={summary[key]!r}\n".encode())
    return h.hexdigest()


class Checker:
    """Counts passes and the ones whose outcome is wrong."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        recorded = json.loads((HERE / "digests.json").read_text())
        self.expected: Optional[str] = (recorded[wl.name]
                                        if seed == DEFAULT_SEED else None)
        self.attempted = 0
        self.failed = 0

    def guarded(self, fn: Callable):
        """Run one pass; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None

    def check(self, result) -> None:
        """Count the last pass failed if its outcome is wrong."""
        s = result.summary()
        parts = (s["completed"] + s["failed_unreachable"]
                 + s["rejected_unschedulable"] + s["pending"])
        digest = outcome_digest(result)
        if self.expected is None:
            self.expected = digest  # later passes must repeat the first
        problem = None
        if s["submitted"] != self.wl.jobs or parts != s["submitted"]:
            problem = (f"counts do not add up: submitted {s['submitted']} "
                       f"(stated {self.wl.jobs}), parts {parts}")
        elif digest != self.expected:
            problem = f"outcome digest {digest} != {self.expected}"
        if problem:
            print(f"bench: {self.wl.name}: {problem}", file=sys.stderr)
            self.failed += 1


def one_pass(wl: Workload, seed: int):
    """Scenario text to written CSVs: (result, setup_s, run_s, wall_s).

    Functions are looked up on their modules at call time, so the
    traced pass goes through the wrappers spans.py installs.
    """
    out_dir = str(OUT / "csv" / wl.name)
    gc.collect()
    t0 = time.perf_counter()
    sim = engine.Simulation(scenario.parse_scenario(wl.text), seed)
    t1 = time.perf_counter()
    result = sim.run()
    t2 = time.perf_counter()
    report.write_run(result, out_dir)
    t3 = time.perf_counter()
    return result, t1 - t0, t2 - t1, t3 - t0


def setup_pass(wl: Workload, seed: int) -> float:
    gc.collect()
    t0 = time.perf_counter()
    engine.Simulation(scenario.parse_scenario(wl.text), seed)
    return time.perf_counter() - t0


def heap_pass(wl: Workload, seed: int):
    """Untimed pass under tracemalloc: (result, peak traced MB)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = one_pass(wl, seed)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def keep_going(started: float, seconds: float, durations: List[float]) -> bool:
    """True while another pass of typical length fits in the time budget."""
    if len(durations) < MIN_PASSES:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(durations) <= seconds


def measure_end_to_end(wl: Workload, seed: int, seconds: float,
                       checker: Checker) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {"wall_s": [], "setup_s": [],
                                       "jobs_per_s": [], "peak_heap_mb": []}
    # tracemalloc slows a run several-fold, so the heap is measured in a
    # pass of its own that is never timed; it doubles as the warm-up.
    got = checker.guarded(lambda: heap_pass(wl, seed))
    if got is not None:
        checker.check(got[0])
        samples["peak_heap_mb"].append(got[1])
    started = time.perf_counter()
    durations: List[float] = []
    while keep_going(started, seconds, durations):
        t = time.perf_counter()
        got = checker.guarded(lambda: one_pass(wl, seed))
        if got is not None:
            result, setup_s, run_s, wall_s = got
            checker.check(result)
            samples["wall_s"].append(wall_s)
            samples["setup_s"].append(setup_s)
            samples["jobs_per_s"].append(len(result.jobs) / run_s)
            del result, got
            # Extra setup-only passes, spread over the run like the full
            # ones, so setup_s samples every phase of the host's speed.
            for _ in range(SETUP_REPEATS):
                samples["setup_s"].append(setup_pass(wl, seed))
        durations.append(time.perf_counter() - t)
    return samples


def traced_pass(wl: Workload, seed: int, checker: Checker) -> Dict[str, float]:
    rec = spans.SpanRecorder()
    with spans.Traced(rec):
        result, _, _, wall_s = one_pass(wl, seed)
    checker.check(result)
    m = spans.layer_metrics(rec)
    m["wall_s"] = wall_s
    m["engine.trace_events"] = len(result.trace)
    m["engine.messages"] = result.messages
    m["engine.migration_picks"] = sum(1 for e in result.trace
                                      if e["kind"] == "migration_pick")
    return m


def measure_layers(wl: Workload, seed: int, seconds: float,
                   checker: Checker) -> Dict[str, List[float]]:
    """Alternate untraced and traced passes; per-layer samples."""
    untraced: List[float] = []
    samples: Dict[str, List[float]] = {}
    started = time.perf_counter()
    durations: List[float] = []
    while keep_going(started, seconds, durations):
        t = time.perf_counter()
        got = checker.guarded(lambda: one_pass(wl, seed))
        if got is not None:
            checker.check(got[0])
            untraced.append(got[3])
            del got
        m = checker.guarded(lambda: traced_pass(wl, seed, checker))
        if m is not None:
            for key, value in m.items():
                samples.setdefault(key, []).append(value)
        durations.append(time.perf_counter() - t)
    if untraced and samples:
        samples["trace.overhead_s"] = [statistics.median(samples["wall_s"])
                                       - statistics.median(untraced)]
        samples["untraced_wall_s"] = untraced
    return samples


def describe(values: List[float]) -> Dict[str, float]:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    # Counts repeat exactly; keep them whole numbers.
    middle = (statistics.median_low if all(isinstance(v, int) for v in values)
              else statistics.median)
    return {"n": len(values), "median": middle(values), "q1": q1, "q3": q3}


def environment() -> Dict[str, object]:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "commit": _git_commit()}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 declared: Dict[str, str]) -> dict:
    """Measure one workload; returns its record, with the reported metrics."""
    checker = Checker(wl, seed)
    measure = measure_layers if trace else measure_end_to_end
    samples = measure(wl, seed, seconds, checker)
    stats = {k: describe(v) for k, v in samples.items() if v}
    problems = []
    if trace:
        problems = [f"layer counter {k} is zero: a wrapper missed its "
                    f"call site" for k in wl.uses
                    if stats.get(k, {"median": 0})["median"] == 0]
    for p in problems:
        print(f"bench: {wl.name}: {p}", file=sys.stderr)
    metrics = {k: {"value": stats[k]["median"] if k in stats else 0,
                   "unit": unit} for k, unit in declared.items()}
    return {"workload": wl.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "environment": environment(),
            "attempted": checker.attempted, "failed": checker.failed,
            "correct": checker.failed == 0 and not problems,
            "stats": stats, "samples": samples, "metrics": metrics}


def print_record(rec: dict, declared: Dict[str, str]) -> None:
    env = rec["environment"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"({rec['seconds']:g} s budget)")
    print(f"   python {env['python']}, {env['platform']}, nproc {env['nproc']}, "
          f"{env['cpu']}, commit {env['commit']}")
    print(f"   {'metric':38s} {'unit':7s} {'n':>4s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s}")
    for name, unit in declared.items():
        st = rec["stats"].get(name)
        if st is None:
            print(f"   {name:38s} {unit:7s} {0:4d} {'-':>12s}")
            continue
        print(f"   {name:38s} {unit:7s} {st['n']:4d} {st['median']:12.6g} "
              f"{st['q1']:12.6g} {st['q3']:12.6g}")
    share = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"   failed passes {rec['failed']}/{rec['attempted']} "
          f"(failure share {share:.3f})")


def main(argv: Optional[List[str]] = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=config["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in config[kind]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    records = []
    for name in names:
        rec = run_workload(WORKLOADS[name], args.seed, args.seconds,
                           bool(args.trace), declared)
        print_record(rec, declared)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")
        records.append(rec)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
