"""The benchmark's hook points still exist in the simulator.

`bench/spans.py` wraps simulator functions and methods by name at run
time and skips a name it cannot find, so a rename would otherwise only
show up as a failed traced benchmark run.
"""

import importlib.util
import pathlib

import pytest

from dianasched.queueing import MultilevelQueue

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
HOOKS = ([(owner, attr) for owner, attr, _, _ in spans.SPANS]
         + [(owner, attr) for owner, attr, _ in spans.COUNTED])


@pytest.mark.parametrize("owner,attr", HOOKS,
                         ids=[f"{getattr(o, '__name__', o)}.{a}"
                              for o, a in HOOKS])
def test_hook_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("method", ["enqueue", "remove", "reprioritize",
                                    "ordered", "jobs_ahead",
                                    "migration_candidates"])
def test_queue_defines_wrapped_method_itself(method):
    assert method in vars(MultilevelQueue)
