"""Golden outputs: SHA-256 of jobs.csv + summary.csv for fixed runs at seed 42.

Refactors must keep every digest unchanged.  A digest that changes on
purpose (a deliberate change of behaviour) is re-recorded with

    PYTHONPATH=src python tests/test_golden.py

which prints the current table.
"""

import hashlib
import pathlib
import tempfile

import pytest

from dianasched.baselines import QueueDiscipline
from dianasched.cli import _load_scenario
from dianasched.engine import run_scenario
from dianasched.presets import scenario_preset
from dianasched.report import apply_axis, write_run

SEED = 42
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

GOLDEN = {
    "P1:diana":
        "5aee3b31cc735047aecef3cb49e3d721f3c59f4080152b0d42ed5e780e7a7c3d",
    "P1:round_robin":
        "45ac31ae476b43053665de114cd571b7a3351326bf2bae4f8176124ed6c683dc",
    "P1:flop_greedy":
        "536deb803c3c189705ac70fcfe9d221e4219e782e2cd76c38e4d7fe541f5ca7d",
    "P2:diana":
        "4e5c4bc26de910846d0c1d27150eef1ce9bee4e059f58266663acd75f4e9c540",
    "P2:round_robin":
        "5284d2ed26187c5684a68adc0210e99fd9d6b25ab63e1d8558ab9965fa7ea9c1",
    "P2:flop_greedy":
        "0711cbb63cfe7a4d2881cc8e8cc24d82d27b591e939520b620a762a4361d0ea0",
    "P3:diana":
        "d45ca045d5340933a62d4d18682f1d3398ae9dffda1b42ffbc4aeb8ee156bc07",
    "P3:round_robin":
        "bd734d6e926346496e485e6c337267e296a81aa885327fcc4d2d7ce1ef24aabd",
    "P3:flop_greedy":
        "5942395f366669962150d4df2a9db714199d69170c8bb27241ef1dd0ffba594e",
    "P4:diana":
        "9e9b38e25c2cd9b55ea3c5dde51b10185d224a0a2fbffe4d3c98040e93d0372f",
    "P4:round_robin":
        "d2e0ed581f268280bea4f4cf0393d1a50031ebfee44874223d6f4e37bd7088ce",
    "P4:flop_greedy":
        "4209c883827abc23cb65dd8fef7e5886aa112e78591dda3f6f9c1c280a4b3502",
    "P1:diana/fcfs":
        "843c7a79722482625169762a541e1d6ef87be3dfeaa3db35d144b57bcf3dc3fd",
    "P1:diana/sjf":
        "34011b50b627d5bdc7b3ebec59c8cc6e9878df64c32e0de5a2c9e3443b3063df",
    "P2:diana/fcfs":
        "dbf6720a04566592271119dd67268a299f0fd42cc94d8cf30ff37d9d60813b3e",
    "P2:diana/sjf":
        "ab277f22f03d38b1fdc07af02d72b454bf7b2b7f844f9e1ecf66803cd755a57d",
    "P3:diana/fcfs":
        "5fd3ebbf6320cc612d8d6f9a83a00de72ae58808f147d2a5d8454381cd2b54f0",
    "P3:diana/sjf":
        "4174b67662bf037cbdebd9c4d57aa4980ae5160b8ae5d8346a155d8aaa74fe97",
    "P4:diana/fcfs":
        "3a30adcdf48b57f8a7ef91e4f6efbecbab59b601abc05718ecf488eb6217e1b7",
    "P4:diana/sjf":
        "e00a0a6a72ba474cc734be28e5a8191f44c1a0bb7c73c3b6fd950873a1aae5ee",
    "file:basic.txt":
        "43311f73a4cdd2494314f08a7db498055c90f2875684e375b887914f2e4e5a74",
    "file:comparison.txt":
        "5aee3b31cc735047aecef3cb49e3d721f3c59f4080152b0d42ed5e780e7a7c3d",
    "file:faults.txt":
        "458d8dcbb0f61ab3e22ae15f6ec9db8c68f316fa0e40a1563d4fdc9ef25b9fe0",
    "file:migration.txt":
        "9b5348dbf5108630e124b83300e0b0371af3aaa3f6177576cb7e01407509dcba",
}


def _case(name):
    """The scenario a case name stands for."""
    kind, _, arg = name.partition(":")
    if kind == "file":
        return _load_scenario(str(SCENARIOS / arg))
    preset, scheduler, queue = kind, arg, None
    if "/" in arg:
        scheduler, queue = arg.split("/")
    scenario = apply_axis(scenario_preset(preset), "scheduler", scheduler)
    if queue is not None:
        scenario.queue = QueueDiscipline(queue)
    return scenario


def output_digest(name, out_dir):
    paths = write_run(run_scenario(_case(name), SEED), str(out_dir))
    h = hashlib.sha256()
    for key in ("jobs", "summary"):
        h.update(pathlib.Path(paths[key]).read_bytes())
    return h.hexdigest()


def case_names():
    names = [f"{p}:{s}" for p in ("P1", "P2", "P3", "P4")
             for s in ("diana", "round_robin", "flop_greedy")]
    names += [f"{p}:diana/{q}" for p in ("P1", "P2", "P3", "P4")
              for q in ("fcfs", "sjf")]
    names += [f"file:{p.name}" for p in sorted(SCENARIOS.glob("*.txt"))]
    return names


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(case_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    assert output_digest(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(case_names()):
            digest = output_digest(name, pathlib.Path(tmp) / str(i))
            print(f'    "{name}":\n        "{digest}",')
