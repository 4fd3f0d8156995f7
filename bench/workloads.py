"""Scenario text for the four benchmark workloads.

Each builder returns the scenario text a `dianasched run` user would
write.  The simulator also receives the benchmark's seed, which draws
every `lo:hi` demand range.  congested_export and baseline_sjf use fixed
demands, like the scenarios they scale up: their queue dynamics are
chaotic, and a demand range made their work differ by about 10% from
seed to seed, which a timing benchmark would read as host noise.  Why
each workload exists is recorded in `WORKLOADS` and in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


def deep_queue(bursts: int = 100) -> str:
    # P1's topology and job mix with four times the jobs per burst: the
    # five sites fall far behind, so the site queues grow without bound.
    lines = [
        "site site1 nodes=4 power=1.0",
        *(f"site site{i} nodes=5 power=1.0" for i in range(2, 6)),
        "default_link bandwidth=1000",
        "user u1 quota=10",
        "poll_interval 5",
    ]
    lines += [f"burst time={4 * i} user=u1 site=site1 count=20 "
              f"demand=5:30 procs=1 data_site=site1 kind=compute_intensive"
              for i in range(bursts)]
    return "\n".join(lines) + "\n"


def wide_grid(sites: int = 100, bursts: int = 10) -> str:
    # P4's shape (one job per site per second, all entering at site001,
    # polls every 5 s), so every placement scores one candidate per site.
    lines = [
        "site_template prefix=site nodes=5 power=1.0",
        f"site_count {sites}",
        "default_link bandwidth=1000",
        "user u1 quota=20",
        "poll_interval 5",
    ]
    lines += [f"burst time={i} user=u1 site=site001 count=1 demand=2.5:3.5 "
              f"procs=1 data=1e6 data_site=site001 kind=compute_intensive "
              f"per_site=true" for i in range(bursts)]
    return "\n".join(lines) + "\n"


def congested_export() -> str:
    # Each hot site gets 4 jobs every 5 s but serves one per ~10 s, and
    # its 2 GB inputs must cross a 100 Mbps link to leave it; the heavy
    # user's surplus goes negative and is exported in batches.
    hot = [f"hot{i}" for i in range(1, 7)]
    cold = [f"cold{i}" for i in range(1, 7)]
    lines = [f"site {h} nodes=1 power=1.0" for h in hot]
    lines += [f"site {c} nodes=5 power=1.0" for c in cold]
    lines += [
        "default_link bandwidth=100 latency=0.05",
        "link hot1 cold1 bandwidth=10 load=0.5",
        "user heavy quota=1",
        "user light quota=3",
        "fault crash cold6 150",
        "fault register cold6 450",
    ]
    for i in range(50):
        for h in hot:
            for user, count in (("heavy", 3), ("light", 1)):
                lines.append(
                    f"burst time={5 * i} user={user} site={h} count={count} "
                    f"demand=10 procs=1 data=2e9 data_site={h} "
                    f"kind=data_intensive")
    return "\n".join(lines) + "\n"


def baseline_sjf() -> str:
    # P2's processor classes from one user plus a stream of small jobs
    # from another; the 40-node sites fall behind, so the SJF queues
    # re-sort a few hundred jobs per allocation.
    lines = [
        "scheduler flop_greedy",
        "queue sjf",
        *(f"site s{i} nodes=40 power=1.0" for i in range(1, 5)),
        "default_link bandwidth=1000",
        "user u1 quota=4",
        "user u2 quota=4",
    ]
    classes = [(8, 200), (17, 1000), (26, 4444), (35, 5556)]
    for i in range(300):
        t = 20 * i
        for procs, demand in classes:
            lines.append(f"burst time={t} user=u1 site=s1 count=1 "
                         f"demand={demand} procs={procs} data_site=s1 "
                         f"kind=compute_intensive")
        lines.append(f"burst time={t} user=u2 site=s{1 + i % 4} count=8 "
                     f"demand=40 procs=1 data_site=s{1 + i % 4} "
                     f"kind=compute_intensive")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    jobs: int  # the stated job count every run must submit
    why: str
    # Per-layer call counters this workload must exercise; a zero means a
    # wrapper missed its call site, so the traced run fails.
    uses: Tuple[str, ...]


_QUEUE = ("queueing.enqueue.calls", "queueing.remove.calls",
          "queueing.ordered.calls")
_PLACEMENT = ("scheduler.schedule.calls", "scheduler.as_of.calls",
              "costs.total_cost.calls", "core.link_between.calls",
              "discovery.list_peers.calls", "discovery.is_alive.calls")

WORKLOADS = {w.name: w for w in (
    Workload("deep_queue", deep_queue(), 2000,
             "hot 5-site grid whose queues grow to hundreds per site: "
             "priority reprioritize and full sorts dominate; 5 candidates",
             _QUEUE + _PLACEMENT + ("queueing.reprioritize.calls",)),
    Workload("wide_grid", wide_grid(), 1000,
             "P4 shape at 100 sites: 100 candidates per placement, so "
             "cost, link and snapshot work dominate; queues stay short",
             _QUEUE + _PLACEMENT + ("costs.transfer_cost.calls",)),
    Workload("congested_export", congested_export(), 1200,
             "hot one-node sites export batches to cold peers over real "
             "transfers, with a crash and revival: the migration path",
             _QUEUE + _PLACEMENT + (
                 "queueing.migration_candidates.calls",
                 "queueing.jobs_ahead.calls",
                 "scheduler.migrate_batch.calls",
                 "scheduler.migrate_batch.exports",
                 "costs.transfer_cost.calls", "discovery.echo_sweep.calls",
                 "engine.migration_picks")),
    Workload("baseline_sjf", baseline_sjf(), 3600,
             "FLOP-greedy placement with an SJF queue: baseline paths "
             "only, bypassing costs, scheduler and peer polls",
             _QUEUE + ("baselines.flop_schedule.calls",)),
)}
