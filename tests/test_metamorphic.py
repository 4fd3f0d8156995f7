"""Metamorphic relations: rescaled or reordered scenarios run the same.

Each relation rewrites a scenario with `dataclasses.replace` in a way the
model must not notice, and the run must keep every jobs.csv row and
every summary field except `workload_hash` (which digests the job
demands and data sizes) unchanged:

- compute: every node power and every demand doubled, so each job's
  service time is the same;
- network: every bandwidth, every burst's `data=` and `b_ref` doubled,
  so each transfer time and network cost is the same;
- declarations: the `user` and `link` lines in reverse order.

Doubling is exact in binary floating point, so "the same" means equal
bytes, not merely close values.  No preset or scenario file declares a
`link` line or more than two users, so two extra bases give the
declaration-order relation something to reorder: faults.txt with two
links, and migration.txt with a third user competing at the hot site and
quotas 0.1, 0.3 and 0.2, whose float sum depends on the order it is
taken in.  The run must not: Q sums the quotas exactly.

Two more relations change how the run is made, not the model's inputs:

- seed: on a base whose bursts all have fixed demands the seed draws
  nothing, so another seed keeps jobs.csv, the trace and every summary
  field but `seed`;
- cap: a `duration_cap` beyond the run's final time stops nothing, so
  it keeps both CSVs and the trace.
"""

import dataclasses
import functools
import pathlib

import pytest

from dianasched.baselines import QueueDiscipline, SchedulerKind
from dianasched.cli import _load_scenario
from dianasched.core import JobKind, NetworkLink, UserProfile
from dianasched.engine import Simulation
from dianasched.report import SUMMARY_COLUMNS, jobs_rows, summary_row
from dianasched.scenario import BurstDef, parse_scenario

SEED = 42
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
FILES = sorted(p.name for p in SCENARIOS.glob("*.txt"))
BASES = (["P1", "P2", "P3", "P4"] + FILES
         + ["faults.txt+links", "migration.txt+users"])
CONFIGS = {
    "diana": (SchedulerKind.DIANA, QueueDiscipline.PRIORITY_MULTIQUEUE),
    "round_robin+fcfs": (SchedulerKind.ROUND_ROBIN, QueueDiscipline.FCFS),
    "flop_greedy+fcfs": (SchedulerKind.FLOP_GREEDY, QueueDiscipline.FCFS),
}
HASH = SUMMARY_COLUMNS.index("workload_hash")
SEED_COLUMN = SUMMARY_COLUMNS.index("seed")
FIXED_DEMAND = ["P2", "P3", "P4", "faults.txt", "migration.txt"]


def _base(name):
    if name in ("P1", "P2", "P3", "P4"):
        return parse_scenario(f"preset {name}\n")
    if name == "faults.txt+links":
        return dataclasses.replace(
            _base("faults.txt"),
            links=[NetworkLink("s1", "s2", 400.0, latency=0.5),
                   NetworkLink("s3", "s1", 2500.0, background_load=0.2)])
    if name == "migration.txt+users":
        s = _base("migration.txt")
        mid = [BurstDef(time=t, user="mid", site="hot", count=2, demand=10.0,
                        procs=1, data=2e9, data_site="hot",
                        kind=JobKind.DATA_INTENSIVE) for t in (2.0, 12.0, 22.0)]
        return dataclasses.replace(
            s, users=[UserProfile("heavy", 0.1), UserProfile("light", 0.3),
                      UserProfile("mid", 0.2)],
            bursts=[*s.bursts, *mid])
    return _load_scenario(str(SCENARIOS / name))


def double_compute(s):
    def twice(demand):
        if isinstance(demand, tuple):
            return (2 * demand[0], 2 * demand[1])
        return 2 * demand

    template = s.site_template  # None or a SiteDef
    return dataclasses.replace(
        s,
        sites=[dataclasses.replace(d, power=2 * d.power) for d in s.sites],
        site_template=template and dataclasses.replace(
            template, power=2 * template.power),
        bursts=[dataclasses.replace(b, demand=twice(b.demand))
                for b in s.bursts])


def double_network(s):
    link = s.default_link  # None or a NetworkLink
    return dataclasses.replace(
        s,
        default_link=link and dataclasses.replace(
            link, bandwidth=2 * link.bandwidth),
        links=[dataclasses.replace(l, bandwidth=2 * l.bandwidth)
               for l in s.links],
        bursts=[dataclasses.replace(b, data=2 * b.data) for b in s.bursts],
        b_ref=2 * s.b_ref)


def reverse_declarations(s):
    return dataclasses.replace(s, users=s.users[::-1], links=s.links[::-1])


RELATIONS = {"compute": double_compute, "network": double_network,
             "declarations": reverse_declarations}


def run(scenario, seed=SEED):
    """A run's jobs.csv rows, summary row and trace events, and its
    final time."""
    sim = Simulation(scenario, seed)
    result = sim.run()
    return list(jobs_rows(result)), summary_row(result), result.trace, sim.now


def outputs(scenario):
    """Every jobs.csv row, and the summary row without workload_hash."""
    jobs, summary, _, _ = run(scenario)
    del summary[HASH]
    return jobs, summary


def configured(base, config):
    scheduler, queue = CONFIGS[config]
    return dataclasses.replace(_base(base), scheduler=scheduler, queue=queue)


@functools.lru_cache(maxsize=None)
def base_run(base, config):
    return run(configured(base, config))


def base_outputs(base, config):
    jobs, summary, _, _ = base_run(base, config)
    return jobs, summary[:HASH] + summary[HASH + 1:]


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("relation", list(RELATIONS))
def test_relation_keeps_the_outputs(relation, base, config):
    scenario = RELATIONS[relation](configured(base, config))
    jobs, summary = outputs(scenario)
    expect_jobs, expect_summary = base_outputs(base, config)
    assert summary == expect_summary
    assert jobs == expect_jobs


def test_each_relation_changes_its_scenario():
    """No relation is vacuous on the bases it is meant to exercise."""
    for base in BASES:
        s = _base(base)
        assert double_compute(s) != s and double_network(s) != s, base
    users = _base("migration.txt+users")
    assert reverse_declarations(users).users != users.users
    links = _base("faults.txt+links")
    assert reverse_declarations(links).links != links.links


def _without_seed(summary):
    return summary[:SEED_COLUMN] + summary[SEED_COLUMN + 1:]


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("base", FIXED_DEMAND)
def test_seed_keeps_fixed_demand_outputs(base, config):
    jobs, summary, events, _ = run(configured(base, config), seed=SEED + 1)
    expect_jobs, expect_summary, expect_events, _ = base_run(base, config)
    assert _without_seed(summary) == _without_seed(expect_summary)
    assert summary[SEED_COLUMN] != expect_summary[SEED_COLUMN]
    assert jobs == expect_jobs
    assert events == expect_events


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("base", BASES)
def test_cap_beyond_the_end_keeps_the_outputs(base, config):
    expect_jobs, expect_summary, expect_events, end = base_run(base, config)
    capped = dataclasses.replace(configured(base, config),
                                 duration_cap=end + 1.0)
    jobs, summary, events, _ = run(capped)
    assert summary == expect_summary
    assert jobs == expect_jobs
    assert events == expect_events


def test_seed_and_cap_relations_are_not_vacuous():
    """The fixed-demand bases draw no demand, the seed does reach a run
    that draws one, and a cap inside a run does cut it short."""
    for base in FIXED_DEMAND:
        assert not any(isinstance(b.demand, tuple) for b in _base(base).bursts)
    assert run(_base("P1"))[0] != run(_base("P1"), seed=SEED + 1)[0]
    jobs, _, _, end = base_run("P1", "diana")
    capped = dataclasses.replace(_base("P1"), duration_cap=end / 2)
    assert run(capped)[0] != jobs
