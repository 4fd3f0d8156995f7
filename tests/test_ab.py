"""tools/ab.py, the in-process A/B timing tool, loads two copies of the
package side by side and compares them; this keeps it from rotting."""

import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dianasched"

TINY = """\
site s1 nodes=1 power=1
site s2 nodes=2 power=1
default_link bandwidth=1000
user u quota=1
burst time=0 user=u site=s1 count=4 demand=2:5 procs=1 data_site=s1
"""


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("tools_ab",
                                                  ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def sides(ab):
    return (ab.load_package("ab_test_base", SRC),
            ab.load_package("ab_test_change", SRC))


def test_one_round_of_the_working_tree_against_itself(ab, sides):
    base, change = sides
    assert base.engine is not change.engine
    ratios = ab.compare(base, change, {"tiny": TINY}, seed=1, rounds=2)
    assert list(ratios) == ["tiny"]
    assert list(ratios["tiny"]) == ["setup", "run"]
    for values in ratios["tiny"].values():
        assert len(values) == 2 and all(r > 0 for r in values)


def test_differing_outcomes_are_refused(ab, sides, monkeypatch):
    base, change = sides
    parse = change.scenario.parse_scenario
    monkeypatch.setattr(change.scenario, "parse_scenario",
                        lambda text: parse(text.replace("count=4", "count=3")))
    with pytest.raises(SystemExit, match="tiny: base and change outcomes differ"):
        ab.compare(base, change, {"tiny": TINY}, seed=1, rounds=1)
