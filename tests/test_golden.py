"""Golden outputs: SHA-256 of jobs.csv + summary.csv for fixed runs at seed 42.

TRACE_GOLDEN holds, for the same runs, the SHA-256 of
`json.dumps(result.trace)`, so the event trace is pinned as well.
Refactors must keep every digest unchanged.  A digest that changes on
purpose (a deliberate change of behaviour) is re-recorded with

    PYTHONPATH=src python tests/test_golden.py

which prints the current tables.
"""

import dataclasses
import gc
import hashlib
import json
import pathlib
import sys
import tempfile
from operator import attrgetter

import pytest

from dianasched.baselines import QueueDiscipline
from dianasched.cli import _load_scenario
from dianasched.core import Job
from dianasched.engine import (EVENT_FIELDS, EventKind, Simulation,
                               generate_workload, run_scenario)
from dianasched.report import apply_axis, write_run
from dianasched.scenario import BurstDef, parse_scenario
from conftest import assert_busy_node_seconds_conserved

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

TRACE_GOLDEN = {
    "P1:diana":
        "13ae314fa4309a81fe1287d9800c1aeadd07d2234dff431a9ce34b19fe05d809",
    "P1:round_robin":
        "58c3cff92af77d03d442d41c9b01e5338a68a76ba85cda543d080ed18380093d",
    "P1:flop_greedy":
        "8de2f343940fdf9aa863682b2739c0561ac08ca334adf81f154c41872653f178",
    "P2:diana":
        "b256a3ab1dd1d5d460d5ae4df575fc0c980d36df7b0f2f124316985a5e890b8c",
    "P2:round_robin":
        "04574cb41218f48962e58de5f1f70d13c910241fd15e53f4944c1c5697597a2f",
    "P2:flop_greedy":
        "04574cb41218f48962e58de5f1f70d13c910241fd15e53f4944c1c5697597a2f",
    "P3:diana":
        "e657c49ccbb3c01f02c04ceeefbd6c8f3c95c17181c81d9b6773ea1d8ad6f462",
    "P3:round_robin":
        "f2c0a1fb5d340c634dde6cfd2008481ce0639252f6a45952bdcc965117f23cf7",
    "P3:flop_greedy":
        "4e4e4e7129771b104fd35c6faaed81df126650cbc1bd602f62d47ec97bdd84c6",
    "P4:diana":
        "f6b0b415af59da4b1ae3b4f540492248f70f9f146c3d8953cd1224fee0981500",
    "P4:round_robin":
        "63a5d02b82032192cd1b2fdd5cb7ef9d3e976884a7467d3bc12a009001a4c3eb",
    "P4:flop_greedy":
        "970bf33c6b1f5720ed992f0a1d943499b5405c160d8c7465dffc3ea53981fc3a",
    "P1:diana/fcfs":
        "13ae314fa4309a81fe1287d9800c1aeadd07d2234dff431a9ce34b19fe05d809",
    "P1:diana/sjf":
        "13ae314fa4309a81fe1287d9800c1aeadd07d2234dff431a9ce34b19fe05d809",
    "P2:diana/fcfs":
        "95b06abe6fd45bde6d1de14ffa04a4825f162bbfca0a37a9a42da9ee1cc80c32",
    "P2:diana/sjf":
        "b256a3ab1dd1d5d460d5ae4df575fc0c980d36df7b0f2f124316985a5e890b8c",
    "P3:diana/fcfs":
        "e657c49ccbb3c01f02c04ceeefbd6c8f3c95c17181c81d9b6773ea1d8ad6f462",
    "P3:diana/sjf":
        "e657c49ccbb3c01f02c04ceeefbd6c8f3c95c17181c81d9b6773ea1d8ad6f462",
    "P4:diana/fcfs":
        "f6b0b415af59da4b1ae3b4f540492248f70f9f146c3d8953cd1224fee0981500",
    "P4:diana/sjf":
        "f6b0b415af59da4b1ae3b4f540492248f70f9f146c3d8953cd1224fee0981500",
    "file:basic.txt":
        "5e1c85271fc910811588bab837190e9a705f2cf996d0ac787d810293847b2e9b",
    "file:comparison.txt":
        "13ae314fa4309a81fe1287d9800c1aeadd07d2234dff431a9ce34b19fe05d809",
    "file:faults.txt":
        "72b07c6605d3737bbaa6abd5cc385a0739948b7a630017691544c0c5bf715642",
    "file:migration.txt":
        "13a8d205e2b5b244383e4e4f4e7b0abc1eb6573047b3c8d2f09f5bdfc60f4e94",
}


def _case(name):
    """The scenario a case name stands for."""
    kind, _, arg = name.partition(":")
    if kind == "file":
        return _load_scenario(str(SCENARIOS / arg))
    preset, scheduler, queue = kind, arg, None
    if "/" in arg:
        scheduler, queue = arg.split("/")
    scenario = apply_axis(parse_scenario(f"preset {preset}\n"), "scheduler", scheduler)
    if queue is not None:
        scenario = dataclasses.replace(scenario, queue=QueueDiscipline(queue))
    return scenario


def output_digest(name, out_dir):
    paths = write_run(run_scenario(_case(name), SEED), str(out_dir))
    h = hashlib.sha256()
    for key in ("jobs", "summary"):
        h.update(pathlib.Path(paths[key]).read_bytes())
    return h.hexdigest()


def trace_digest(name):
    trace = run_scenario(_case(name), SEED).trace
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()


def case_names():
    names = [f"{p}:{s}" for p in ("P1", "P2", "P3", "P4")
             for s in ("diana", "round_robin", "flop_greedy")]
    names += [f"{p}:diana/{q}" for p in ("P1", "P2", "P3", "P4")
              for q in ("fcfs", "sjf")]
    names += [f"file:{p.name}" for p in sorted(SCENARIOS.glob("*.txt"))]
    return names


def test_every_case_has_a_digest():
    assert sorted(GOLDEN) == sorted(case_names())
    assert sorted(TRACE_GOLDEN) == sorted(case_names())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden(name, tmp_path):
    assert output_digest(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TRACE_GOLDEN))
def test_trace_matches_golden(name):
    assert trace_digest(name) == TRACE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_busy_node_seconds_conserved(name):
    sim = Simulation(_case(name), SEED)
    result = sim.run()
    assert_busy_node_seconds_conserved(sim, result)
    assert any(site.busy_node_seconds for site in sim.sites.values())


def test_run_state_is_compact():
    """Jobs have no instance dict; the events sit in typed columns, with
    no object per event: a number is stored as a machine number, and a
    job id is the str its job already holds."""
    sim = Simulation(_case("P1:diana"), SEED)
    result = sim.run()
    job = next(iter(result.jobs.values()))
    assert type(job) is Job
    assert not hasattr(job, "__dict__")
    log, trace = result.log, result.trace
    assert log is sim.log and log.sites is sim.site_order
    assert (log.times.typecode, log.refs.typecode, log.nums.typecode) == \
        ("d", "I", "d")
    assert type(log.kinds) is bytearray and type(log.jobs) is list
    assert all(jid is result.jobs[jid].job_id for jid in log.jobs)
    # Each column holds its fields' values and nothing else.
    assert len(log.times) == len(log.kinds) == len(trace)
    assert len(log.jobs) == sum("job" in e for e in trace)
    assert len(log.nums) == sum(isinstance(v, float) for e in trace
                                for k, v in e.items() if k != "t")
    assert len(log.jobs) + len(log.refs) + len(log.nums) == sum(
        len(EVENT_FIELDS[EventKind(e["kind"])]) for e in trace)
    # About 26 bytes per event with the columns' spare capacity, where
    # a flat list of one 8-byte slot per value took 37.
    stored = sum(sys.getsizeof(column) for column in (
        log.times, log.kinds, log.jobs, log.refs, log.nums))
    assert stored / len(trace) < 27


def test_bursts_are_slotted():
    burst = _case("P1:diana").bursts[0]
    assert isinstance(burst, BurstDef)
    assert not hasattr(burst, "__dict__")


def test_expanded_jobs_share_one_str_per_id():
    """Jobs expanded from many burst lines hold one object per distinct
    user, data site and submit site.  The scenario has baseline_sjf's
    shape (bench/workloads.py) at 20 rounds instead of 300."""
    lines = ["scheduler flop_greedy", "queue sjf",
             *(f"site s{i} nodes=40 power=1.0" for i in range(1, 5)),
             "default_link bandwidth=1000", "user u1 quota=4", "user u2 quota=4"]
    for i in range(20):
        for procs, demand in [(8, 200), (17, 1000), (26, 4444), (35, 5556)]:
            lines.append(f"burst time={20 * i} user=u1 site=s1 count=1 "
                         f"demand={demand} procs={procs} data_site=s1 "
                         f"kind=compute_intensive")
        lines.append(f"burst time={20 * i} user=u2 site=s{1 + i % 4} count=8 "
                     f"demand=40 procs=1 data_site=s{1 + i % 4} "
                     f"kind=compute_intensive")
    sim = Simulation(parse_scenario("\n".join(lines) + "\n"), SEED)
    records = list(sim.jobs.values())
    for ids in ([r.user_id for r in records],
                [r.data_site for r in records],
                [r.submit_site for r in records]):
        first = {}
        assert all(first.setdefault(i, i) is i for i in ids)
        assert len(first) > 1


# The fields a job is built with: its spec and its submit site.
SPEC_FIELDS = attrgetter(*(f.name for f in dataclasses.fields(Job) if f.init))


@pytest.mark.parametrize("name", ["P1:diana", "P2:diana/sjf", "P3:diana",
                                  "file:faults.txt", "file:migration.txt"])
def test_run_writes_only_run_state(name):
    """After run(), every job's spec fields and submit site equal those
    of a freshly generated workload for the same scenario and seed."""
    scenario = _case(name)
    result = run_scenario(scenario, SEED)
    fresh = generate_workload(scenario, SEED)
    assert list(result.jobs) == list(fresh)
    assert ([SPEC_FIELDS(job) for job in result.jobs.values()]
            == [SPEC_FIELDS(job) for job in fresh.values()])


def test_each_job_is_one_object():
    """After run(), each job is one object, held only by `result.jobs`
    and, while still in flight, by its site's queue, its site's parked
    list or an event on the heap; no per-job tuple or second object of
    the workload is left.  The run is cut short by `duration_cap` with
    jobs queued, in transit, running and parked."""
    text = ("site s1 nodes=1 power=1.0\nsite s2 nodes=1 power=1.0\n"
            "default_link bandwidth=100\nuser u quota=1\nduration_cap 50\n"
            "burst time=0 user=u site=s1 count=6 demand=40 procs=1 "
            "data=1e9 data_site=s1\n"
            "burst time=20 user=u site=s2 count=2 demand=5 procs=1 "
            "data_site=s2\n"
            "fault crash s2 10\n")
    for sim in (Simulation(_case("P1:diana"), SEED),
                Simulation(parse_scenario(text), SEED)):
        result = sim.run()
        assert result.jobs is sim.jobs
        in_flight = {"heap": [args for *_, args in sim._heap]}
        for sid, site in sim.sites.items():
            in_flight[f"{sid} queue"] = [site.queue.jobs,
                                         *site.queue._classes.values()]
            in_flight[f"{sid} parked"] = [site.parked]
        holder_of = {id(c): where for where, held in in_flight.items()
                     for c in held}
        jobs = list(result.jobs.values())
        holders = [r for r in gc.get_referrers(*jobs) if r is not jobs]
        assert sum(r is result.jobs for r in holders) == 1
        rest = [r for r in holders if r is not result.jobs]
        assert all(id(r) in holder_of for r in rest), rest
        seen = {holder_of[id(r)] for r in rest}
        if sim.scenario.duration_cap:
            assert seen == {"heap", "s1 queue", "s2 parked"}
        else:
            assert not seen


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, name in enumerate(case_names()):
            digest = output_digest(name, pathlib.Path(tmp) / str(i))
            print(f'    "{name}":\n        "{digest}",')
    print("TRACE_GOLDEN")
    for name in case_names():
        print(f'    "{name}":\n        "{trace_digest(name)}",')
