"""Every benchmark workload exercises the counters its traced run gates on.

`bench/run.py --trace 1` fails a workload when a counter it lists in
`Workload.uses` reads zero, which is how a refactor that inlines or
bypasses a wrapped function shows up.  This runs the same check in the
test suite: one traced pass per workload at the benchmark's seed, with
the wrappers from `bench/spans.py`.  Nothing under bench/ is changed and
no output is written.
"""

import importlib.util
import pathlib
import sys

import pytest

from dianasched import engine, scenario

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 42  # bench/run.py's default seed, the one digests.json records


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # workloads' dataclass looks itself up
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


def traced_counters(wl):
    """Per-layer metrics of one traced run, as bench/run.py derives them."""
    rec = spans.SpanRecorder()
    with spans.Traced(rec):
        # Looked up on the modules at call time, so the wrappers apply.
        sim = engine.Simulation(scenario.parse_scenario(wl.text), SEED)
        result = sim.run()
    metrics = spans.layer_metrics(rec)
    metrics["engine.migration_picks"] = sum(
        1 for e in result.trace if e["kind"] == "migration_pick")
    return result, metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_uses_every_gated_counter(name):
    wl = workloads.WORKLOADS[name]
    result, metrics = traced_counters(wl)
    assert len(result.jobs) == wl.jobs
    zero = [k for k in wl.uses if not metrics.get(k)]
    assert not zero, f"{name}: counters read zero: {zero}"

