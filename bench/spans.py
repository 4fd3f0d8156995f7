"""Per-layer spans recorded around the simulator's public functions.

The wrappers are installed at run time on the names the callers look
up: module globals such as `engine.schedule`, `engine.transfer_cost` and
`scheduler.total_cost` (each module imports the others' functions by
name), and methods on the existing classes.  Classes are never
substituted, so `isinstance` checks in the engine keep working, and
nothing under `src/` changes.

A span records its name, start, end and parent.  Spans are kept in flat
arrays while the simulation runs and are folded into per-layer figures
only after it ends.  A span's self time is its duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from dianasched import (core, discovery, engine, queueing, report, scenario,
                        scheduler)

# Layers called from inside `Simulation.run()`; each one's span self
# times are summed into `<layer>.self_s`.  What run() spends outside all
# of them is `engine.self_s`.
RUN_LAYERS = ("queueing", "scheduler", "costs", "core", "discovery",
              "baselines")

# Counters bumped by observers; reported as 0 when nothing bumps them.
OBSERVED = ("queueing.ordered.items", "queueing.max_depth",
            "scheduler.candidates", "scheduler.migrate_batch.exports",
            "report.bytes")


class SpanRecorder:
    """Spans and counters for one simulation pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = dict.fromkeys(OBSERVED, 0)

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def peak(self, name: str, value: int) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def span(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """Wrap `fn` so each call records one span named `name`.

        `observe(recorder, args, result)` runs after the span has closed,
        for counters that need the call's arguments or result.
        """
        nid = self._name(name)
        name_id, start, end, parent, stack = (self.name_id, self.start,
                                              self.end, self.parent,
                                              self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap `fn` so each call only bumps `name` (no span)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def fold(self) -> Tuple[Dict[str, int], Dict[str, float], Dict[str, float]]:
        """Per span name: call count, self time and total duration."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = {n: 0 for n in self.names}
        self_s = {n: 0.0 for n in self.names}
        total_s = {n: 0.0 for n in self.names}
        for i, nid in enumerate(self.name_id):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += dur[i] - covered[i]
            total_s[name] += dur[i]
        return calls, self_s, total_s


def _items(rec, args, result):
    rec.bump("queueing.ordered.items", len(result))


def _depth(rec, args, result):
    rec.peak("queueing.max_depth", len(args[0]))


def _candidates(rec, args, result):
    rec.bump("scheduler.candidates", len(result.alternatives))


def _exports(rec, args, result):
    rec.bump("scheduler.migrate_batch.exports", int(result is not None))


def _written(rec, args, result):
    rec.bump("report.bytes", sum(os.path.getsize(p) for p in result.values()))


def _baseline_queue_spans():
    """The engine's FCFS/SJF queues report under the priority queue's
    names (`add` is their enqueue), so the names outlive those classes.
    Only methods a class defines itself are listed; inherited ones are
    wrapped on the base class."""
    out = []
    for cls_name in ("FcfsQueue", "SjfQueue"):
        cls = getattr(engine, cls_name, None)
        for attr, name, observe in (("add", "queueing.enqueue", _depth),
                                    ("remove", "queueing.remove", None),
                                    ("ordered", "queueing.ordered", _items)):
            if cls is not None and attr in vars(cls):
                out.append((cls, attr, name, observe))
    return out


# (owner, attribute, span name, observer).  The owner is where the caller
# looks the name up: a module global, or a method on the existing class.
SPANS = [
    (scenario, "parse_scenario", "scenario.parse", None),
    (engine.Simulation, "__init__", "engine.init", None),
    (engine.Simulation, "run", "engine.run", None),
    (engine, "generate_workload", "engine.generate_workload", None),
    (queueing.MultilevelQueue, "enqueue", "queueing.enqueue", _depth),
    (queueing.MultilevelQueue, "remove", "queueing.remove", None),
    (queueing.MultilevelQueue, "reprioritize", "queueing.reprioritize", None),
    (queueing.MultilevelQueue, "ordered", "queueing.ordered", _items),
    (queueing.MultilevelQueue, "jobs_ahead", "queueing.jobs_ahead", None),
    (queueing.MultilevelQueue, "migration_candidates",
     "queueing.migration_candidates", None),
    (engine, "schedule", "scheduler.schedule", _candidates),
    (scheduler.PeerSnapshot, "as_of", "scheduler.as_of", None),
    (engine, "migrate_batch", "scheduler.migrate_batch", _exports),
    (scheduler, "total_cost", "costs.total_cost", None),
    (engine, "transfer_cost", "costs.transfer_cost", None),
    (core.Topology, "link_between", "core.link_between", None),
    (discovery.PeerRegistry, "list_peers", "discovery.list_peers", None),
    (discovery.PeerRegistry, "echo_sweep", "discovery.echo_sweep", None),
    (engine, "flop_schedule", "baselines.flop_schedule", None),
    (report, "write_run", "report.write_run", _written),
] + _baseline_queue_spans()

# Calls whose number is reported but not their time.
COUNTED = [
    (discovery.PeerRegistry, "is_alive", "discovery.is_alive.calls"),
    (engine, "rr_schedule", "baselines.rr_schedule.calls"),
]


class Traced:
    """Context manager that installs the wrappers and restores the originals.

    A name missing from its owner is skipped; the traced run's zero-call
    check reports it if the workload needed it.
    """

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []

    def _swap(self, owner, attr: str, make: Callable[[Callable], Callable]):
        original = getattr(owner, attr, None)
        if original is not None:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def __enter__(self) -> SpanRecorder:
        rec = self.rec
        for owner, attr, name, observe in SPANS:
            self._swap(owner, attr,
                       lambda f, n=name, o=observe: rec.span(n, f, o))
        for owner, attr, name in COUNTED:
            self._swap(owner, attr, lambda f, n=name: rec.counter(n, f))
        return rec

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Fold the spans into the per-layer metric names the benchmark reports."""
    calls, self_s, total_s = rec.fold()
    out: Dict[str, float] = dict(rec.counts)
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = self_s[name]
    for layer in RUN_LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_s.items()
                                     if n.split(".", 1)[0] == layer)
    out["scenario.parse_s"] = self_s.get("scenario.parse", 0.0)
    out["engine.init_s"] = self_s.get("engine.init", 0.0)
    out["engine.generate_workload_s"] = self_s.get("engine.generate_workload", 0.0)
    out["engine.self_s"] = self_s.get("engine.run", 0.0)
    out["engine.run_s"] = total_s.get("engine.run", 0.0)
    out["report.write_run_s"] = self_s.get("report.write_run", 0.0)
    return out
