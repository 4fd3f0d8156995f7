"""Cross-check the traced per-layer split against cProfile.

    python3 bench/profile_check.py

For deep_queue and wide_grid at seed 42, one traced pass gives each
layer's span self time as a share of `run()`, and one cProfile pass over
an untraced `run()` gives each layer's share of profiled time.  Both use
the same partition: a function the tracer wraps owns its own time, and
every other function's time (built-ins and generated `__init__`s
included) goes to the wrapped function that called it, split by the
caller edges cProfile records.  If the two splits agree, the traced
split is not an artefact of wrapper overhead.  Writes
.bench_out/profile_check.json.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from typing import Dict, Tuple

import run  # puts the checkout's src/ on sys.path
import spans
from dianasched import engine, scenario

WORKLOADS = ("deep_queue", "wide_grid")
GROUPS = {"queueing": ("queueing",),
          "scheduler+costs+core": ("scheduler", "costs", "core")}

Key = Tuple[str, int, str]  # cProfile's (file, first line, function name)


def boundary() -> Dict[Key, str]:
    """The layer of every function spans.py wraps, keyed as cProfile keys it."""
    out = {}
    for owner, attr, name, _ in spans.SPANS:
        fn = getattr(owner, attr, None)
        if fn is not None:
            code = fn.__code__
            out[(code.co_filename, code.co_firstlineno, code.co_name)] = \
                name.split(".", 1)[0]
    return out


def profile_shares(stats: Dict[Key, tuple]) -> Dict[str, float]:
    """Each layer's share of profiled time under the span partition."""
    layers = boundary()
    memo: Dict[Key, Dict[str, float]] = {}

    def owners(key: Key, seen: frozenset) -> Dict[str, float]:
        if key in memo:
            return memo[key]
        layer = layers.get(key)
        if layer is not None:
            return {layer: 1.0}
        callers = {k: v for k, v in stats[key][4].items() if k not in seen}
        weights = {k: v[2] or v[0] for k, v in callers.items()}
        total = sum(weights.values())
        out: Dict[str, float] = {}
        if not total:
            out = {"engine": 1.0}  # the profiled root: run() itself
        for caller, w in weights.items():
            if not total:
                break
            for lay, frac in owners(caller, seen | {key}).items():
                out[lay] = out.get(lay, 0.0) + frac * w / total
        memo[key] = out
        return out

    shares: Dict[str, float] = {}
    grand = sum(v[2] for v in stats.values())
    for key, v in stats.items():
        for lay, frac in owners(key, frozenset()).items():
            shares[lay] = shares.get(lay, 0.0) + v[2] * frac / grand
    return shares


def traced_shares(wl, seed: int) -> Dict[str, float]:
    rec = spans.SpanRecorder()
    with spans.Traced(rec):
        run.one_pass(wl, seed)
    m = spans.layer_metrics(rec)
    shares = {lay: m[f"{lay}.self_s"] / m["engine.run_s"]
              for lay in spans.RUN_LAYERS}
    shares["engine"] = m["engine.self_s"] / m["engine.run_s"]
    return shares


def main() -> int:
    seed = run.DEFAULT_SEED
    report = {"environment": run.environment(), "seed": seed, "workloads": {}}
    print(f"{'workload':12s} {'layer':22s} {'traced':>8s} {'cProfile':>9s}")
    for name in WORKLOADS:
        wl = run.WORKLOADS[name]
        traced = traced_shares(wl, seed)
        sim = engine.Simulation(scenario.parse_scenario(wl.text), seed)
        prof = cProfile.Profile()
        prof.runcall(sim.run)
        profiled = profile_shares(pstats.Stats(prof).stats)
        rows = {}
        for group, layers in GROUPS.items():
            rows[group] = {"traced": sum(traced.get(l, 0.0) for l in layers),
                           "cprofile": sum(profiled.get(l, 0.0) for l in layers)}
            print(f"{name:12s} {group:22s} {rows[group]['traced']:8.1%} "
                  f"{rows[group]['cprofile']:9.1%}")
        report["workloads"][name] = {"groups": rows, "traced": traced,
                                     "cprofile": profiled}
    run.OUT.mkdir(exist_ok=True)
    (run.OUT / "profile_check.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
