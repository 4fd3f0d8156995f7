"""Oracles that need no golden: results the model must meet by reasoning
alone.

- One site, three schedulers: with a single site every scheduler sends
  each job to it, so `diana`, `round_robin` and `flop_greedy` give the
  same jobs.csv rows under `fcfs` and under `sjf`.  Only the messages
  each one spends to decide differ.
- M/D/1 and M/M/c: one FCFS node fed by Poisson arrivals of jobs of
  one fixed size is the M/D/1 queue, whose mean wait is
  Pollaczek–Khinchine's rho / (2 mu (1 - rho)); c nodes fed jobs of
  exponentially distributed size are the M/M/c queue, whose mean wait
  is Erlang C's (Kleinrock, *Queueing Systems, Vol. 1*, 1975).  The
  run's `mean_queue_time` must fall within a batch-means confidence
  interval of it.
- Little's law as an area identity (Little, "A proof for the queuing
  formula L = lambda W", Operations Research 9(3), 1961): the number of
  waiting jobs, integrated over time from the trace, equals the sum of
  the jobs' `queue_time`.  A run cut by `duration_cap` H leaves waits
  open; integrated up to H, the area also counts H - submit -
  `transfer_total` for each placed job not yet started.
"""

import dataclasses
import math
import pathlib
import random
import statistics

import pytest

from dianasched.baselines import QueueDiscipline, SchedulerKind
from dianasched.core import JobKind, JobStatus, UserProfile
from dianasched.engine import run_scenario
from dianasched.presets import PRESETS
from dianasched.report import jobs_rows
from dianasched.scenario import BurstDef, Scenario, SiteDef, parse_scenario

SCHEDULERS = [SchedulerKind.DIANA, SchedulerKind.ROUND_ROBIN,
              SchedulerKind.FLOP_GREEDY]


def _one_site_text():
    """One 3-node site, 800 jobs from two users: processor counts 1 to 3,
    ranged demands, and two jobs too wide for the site."""
    lines = ["site s1 nodes=3 power=1.0", "default_link bandwidth=1000",
             "user u1 quota=1", "user u2 quota=3"]
    for i in range(40):
        for user, procs, demand in (("u1", 1 + i % 3, "5:40"),
                                    ("u2", 1 + (i + 1) % 3, "1:20")):
            lines.append(f"burst time={15 * i} user={user} site=s1 count=10 "
                         f"demand={demand} procs={procs} data=1e9 "
                         f"data_site=s1 kind=mixed")
    lines.append("burst time=300 user=u1 site=s1 count=2 demand=5 procs=4 "
                 "data_site=s1")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("queue", [QueueDiscipline.FCFS, QueueDiscipline.SJF])
def test_one_site_gives_every_scheduler_the_same_jobs(queue):
    base = parse_scenario(_one_site_text())
    runs = {kind: run_scenario(dataclasses.replace(
        base, scheduler=kind, queue=queue), seed=7) for kind in SCHEDULERS}
    rows = {kind: list(jobs_rows(r)) for kind, r in runs.items()}
    assert len(rows[SchedulerKind.DIANA]) == 802
    assert rows[SchedulerKind.ROUND_ROBIN] == rows[SchedulerKind.DIANA]
    assert rows[SchedulerKind.FLOP_GREEDY] == rows[SchedulerKind.DIANA]
    summaries = {kind: r.summary() for kind, r in runs.items()}
    assert summaries[SchedulerKind.DIANA]["completed"] == 800
    assert summaries[SchedulerKind.DIANA]["rejected_unschedulable"] == 2
    decision = ("scheduler", "message_count", "messages_per_job")
    same = [{k: v for k, v in s.items() if k not in decision}
            for s in summaries.values()]
    assert same[1] == same[0] and same[2] == same[0]
    messages = [s["message_count"] for s in summaries.values()]
    assert len(set(messages)) == 3


# Two-sided 99% quantile of Student's t with BATCHES - 1 = 19 degrees of
# freedom.
BATCHES = 20
T_99 = 2.861
JOBS = 20_000


def _poisson_mean_wait(lam, nodes, demand):
    """Run JOBS Poisson arrivals at rate `lam` through one FCFS site of
    `nodes` 1 MFLOPS nodes, each job's demand in MFLOP (its service time
    in s) drawn by `demand(rng)`, and return the mean wait and the
    half-width of its 99% batch-means interval."""
    rng = random.Random(2024)
    t, bursts = 0.0, []
    for _ in range(JOBS):
        t += rng.expovariate(lam)
        bursts.append(BurstDef(time=t, user="u", site="s1", count=1,
                               demand=demand(rng), procs=1, data=0.0,
                               data_site="s1", kind=JobKind.COMPUTE_INTENSIVE))
    scenario = Scenario(scheduler=SchedulerKind.ROUND_ROBIN,
                        queue=QueueDiscipline.FCFS,
                        sites=[SiteDef("s1", nodes, 1.0)],
                        users=[UserProfile("u", 1.0)], bursts=bursts)
    result = run_scenario(scenario, seed=0)
    summary = result.summary()
    assert summary["completed"] == JOBS
    # Waits of successive jobs are correlated, so the interval comes from
    # the means of BATCHES consecutive batches of 1,000 jobs, each 476 s
    # (at 2.1 jobs/s) to 1,429 s (at 0.7) long, far beyond the queues'
    # relaxation times of about 40 s or less.
    waits = [job.queue_time for job in result.records()]
    size = JOBS // BATCHES
    means = [statistics.fmean(waits[i:i + size])
             for i in range(0, JOBS, size)]
    mean = summary["mean_queue_time"]
    assert mean == pytest.approx(statistics.fmean(means), rel=1e-12)
    return mean, T_99 * statistics.stdev(means) / BATCHES ** 0.5


def test_md1_mean_wait_meets_pollaczek_khinchine():
    # Arrival rate 0.7/s; each job is 1 MFLOP on a 1 MFLOPS node, so the
    # service time is exactly 1 s (mu = 1) and rho = 0.7.
    lam, mu = 0.7, 1.0
    mean, half_width = _poisson_mean_wait(lam, 1, lambda rng: 1.0)
    rho = lam / mu
    expected = rho / (2 * mu * (1 - rho))
    assert abs(mean - expected) <= half_width
    # The interval is narrow enough to mean something: within 20% of the
    # expected wait (15% at this seed).
    assert half_width < 0.2 * expected


@pytest.mark.parametrize("nodes,lam", [(1, 0.7), (3, 2.1)])
def test_mmc_mean_wait_meets_erlang_c(nodes, lam):
    # Service times are exponential with mean 1 s (mu = 1), and each
    # case loads its nodes to rho = 0.7.  Erlang C gives the chance that
    # a job waits; its mean wait is that over c*mu - lambda: 2.333 s for
    # one node (rho / (mu - lambda)), 0.547 s for three.
    mu = 1.0
    mean, half_width = _poisson_mean_wait(lam, nodes,
                                          lambda rng: rng.expovariate(mu))
    a = lam / mu
    queued = a ** nodes / math.factorial(nodes) / (1 - a / nodes)
    p_wait = queued / (sum(a ** k / math.factorial(k)
                           for k in range(nodes)) + queued)
    expected = p_wait / (nodes * mu - lam)
    assert abs(mean - expected) <= half_width
    # Exponential service spreads the waits, so the interval is wider
    # than M/D/1's: within 25% of the expected wait (12% for one
    # node and 16% for three at this seed).
    assert half_width < 0.25 * expected


SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# Jobs submitted at s1 while it is down wait there, parked, until it
# registers again; no scenario file parks a job.
PARKED = """
site s1 nodes=1 power=1
site s2 nodes=1 power=1
default_link bandwidth=100
user u quota=1
burst time=5 user=u site=s1 count=4 demand=10 procs=1 data_site=s1
burst time=30 user=u site=s2 count=3 demand=10 procs=1 data_site=s2
fault crash s1 1
fault register s1 20
"""

LITTLE_CASES = {f"file:{p.name}": p.read_text()
                for p in sorted(SCENARIOS.glob("*.txt"))}
LITTLE_CASES.update({name: f"preset {name}\n" for name in PRESETS})
LITTLE_CASES["parked"] = PARKED


def waiting_area(trace, horizon=None):
    """The number of waiting jobs integrated over time, summed over sites.

    A job waits in a site's queue from its arrival (a place or migrate
    event's time plus its transfer) until it is allocated or picked for
    export there, and parked at a crashed site from its submission until
    the site registers again and places it.  Without a horizon every
    wait must have ended; with one, the integral stops at it and closes
    the waits still open there.
    """
    changes = {}  # site -> [(time, +1 or -1)]
    crashed, parked = set(), {}  # parked: job -> site
    for event in trace:
        kind, t = event["kind"], event["t"]
        if kind == "crash":
            crashed.add(event["site"])
        elif kind == "peer_registered":
            crashed.discard(event["site"])
        elif kind == "submit" and event["site"] in crashed:
            parked[event["job"]] = event["site"]
            changes.setdefault(event["site"], []).append((t, 1))
        elif kind in ("place", "migrate"):
            if event["job"] in parked:
                changes[parked.pop(event["job"])].append((t, -1))
            changes.setdefault(event["dest"], []).append(
                (t + event["transfer"], 1))
        elif kind in ("allocate", "migration_pick"):
            site = event["site" if kind == "allocate" else "source"]
            changes[site].append((t, -1))
    end = math.inf if horizon is None else horizon
    area = []
    for site_changes in changes.values():
        waiting, last = 0, 0.0
        for t, delta in sorted(site_changes):
            t = min(t, end)
            area.append(waiting * (t - last))
            waiting, last = waiting + delta, t
        if horizon is None:
            assert waiting == 0
        else:
            area.append(waiting * (horizon - last))
    if horizon is None:
        assert not parked
    return math.fsum(area)


@pytest.mark.parametrize("name", sorted(LITTLE_CASES))
def test_waiting_area_is_the_sum_of_queue_times(name):
    result = run_scenario(parse_scenario(LITTLE_CASES[name]), seed=42)
    # Every job starts, so no wait is left open at the end.
    assert all(job.started is not None for job in result.records())
    total = math.fsum(job.queue_time for job in result.records())
    assert total > 0
    assert waiting_area(result.trace) == pytest.approx(total, rel=1e-9)


# Runs cut while jobs still wait.  P1 stages no data, so no job is in
# transfer at the cap.
OPEN_WAIT_CASES = {
    "P1-diana": ("preset P1\nduration_cap 400\n", 6),
    "P1-round_robin": ("preset P1\nscheduler round_robin\nqueue fcfs\n"
                       "duration_cap 333\n", 15),
}


@pytest.mark.parametrize("name", sorted(OPEN_WAIT_CASES))
def test_waiting_area_counts_the_waits_open_at_the_cap(name):
    text, open_count = OPEN_WAIT_CASES[name]
    result = run_scenario(parse_scenario(text), seed=42)
    cap = result.scenario.duration_cap
    trace = result.trace
    assert all(e["t"] + e["transfer"] <= cap for e in trace
               if e["kind"] in ("place", "migrate"))
    started = [job for job in result.records() if job.started is not None]
    waiting = [job for job in result.records()
               if job.status is JobStatus.PENDING and job.scheduled is not None]
    assert len(waiting) == open_count
    total = math.fsum([job.queue_time for job in started]
                      + [cap - job.submit_time - job.transfer_total
                         for job in waiting])
    assert waiting_area(trace, horizon=cap) == pytest.approx(total, rel=1e-9)
