"""Ready-made scenarios for the standard comparison experiments.

Workload presets:
  P1 - 1000 single-processor compute jobs arriving in steady bursts on the
       five-site topology (4 + 4x5 nodes).
  P2 - four processor classes (8/17/26/35) submitted in one interleaved
       burst on two 40-node sites; exercises the queue disciplines.
  P3 - 10 GB data-intensive jobs whose data lives on a storage site that
       cannot run them, forcing a transfer whose duration tracks the
       link bandwidth.
  P4 - scalability workload: job count proportional to the site count,
       all submitted at one entry site (3 MFLOP / 1 MB jobs).
"""

from __future__ import annotations

from .core import JobKind, NetworkLink, UserProfile
from .scenario import BurstDef, Scenario, SiteDef


def five_site_topology():
    """The five-site testbed: site1 has four nodes, the rest five each."""
    sites = [SiteDef("site1", 4, 1.0)]
    sites += [SiteDef(f"site{i}", 5, 1.0) for i in range(2, 6)]
    return sites


def scenario_preset(name: str) -> Scenario:
    if name == "P1":
        return _p1()
    if name == "P2":
        return _p2()
    if name == "P3":
        return _p3()
    if name == "P4":
        return _p4()
    raise KeyError(f"unknown preset {name!r}")


def _p1() -> Scenario:
    # 200 bursts of 5 jobs every 4 s: 1.25 jobs/s against 24 MFLOPS of
    # total capacity with mean demand 17.5 MFLOP, so the grid runs hot and
    # falls behind unless placement is load-aware.  Peers are polled every
    # 5 s so load estimates stay fresh relative to the burst period.
    bursts = [BurstDef(time=4.0 * i, user="u1", site="site1", count=5,
                       demand=(5.0, 30.0), procs=1, data=0.0,
                       data_site="site1", kind=JobKind.COMPUTE_INTENSIVE)
              for i in range(200)]
    return Scenario(
        sites=five_site_topology(),
        default_link=NetworkLink("*", "*", 1000.0),
        users=[UserProfile("u1", 10.0)],
        bursts=bursts,
        poll_interval=5.0,
    )


def _p2() -> Scenario:
    # 25 jobs per processor class, submitted interleaved at t=0 so FCFS
    # order mixes the classes.  Demands scale with the class input range.
    classes = [(8, 200.0), (17, 1000.0), (26, 4444.0), (35, 5556.0)]
    bursts = []
    for _ in range(25):
        for procs, demand in classes:
            bursts.append(BurstDef(time=0.0, user="u1", site="siteA", count=1,
                                   demand=demand, procs=procs, data=0.0,
                                   data_site="siteA",
                                   kind=JobKind.COMPUTE_INTENSIVE))
    return Scenario(
        # One site, so runs differ only in how the queue orders the jobs.
        sites=[SiteDef("siteA", 40, 1.0)],
        default_link=NetworkLink("*", "*", 1000.0),
        users=[UserProfile("u1", 4.0)],
        bursts=bursts,
        thrs=1.0,  # keep migration out of the discipline comparison
    )


def _p3() -> Scenario:
    # Data lives on a one-node storage site; every job needs two
    # processors, so execution always requires moving the 10 GB input
    # across the (swept) link.
    sites = [SiteDef("store1", 1, 1.0)]
    sites += [SiteDef(f"c{i}", 5, 1.0) for i in range(1, 5)]
    bursts = [BurstDef(time=0.0, user="u1", site="store1", count=40,
                       demand=120.0, procs=2, data=10e9,
                       data_site="store1", kind=JobKind.DATA_INTENSIVE)]
    return Scenario(
        sites=sites,
        default_link=NetworkLink("*", "*", 1000.0),
        users=[UserProfile("u1", 5.0)],
        bursts=bursts,
        thrs=1.0,
    )


def _p4() -> Scenario:
    # Job count scales with the site count (resolved at run time): 40
    # bursts of one job per site, all entering at site001.
    bursts = [BurstDef(time=1.0 * i, user="u1", site="site001", count=1,
                       demand=3.0, procs=1, data=1e6, data_site="site001",
                       kind=JobKind.COMPUTE_INTENSIVE, per_site=True)
              for i in range(40)]
    return Scenario(
        site_template=SiteDef("site", 5, 1.0),
        site_count=5,
        default_link=NetworkLink("*", "*", 1000.0),
        users=[UserProfile("u1", 20.0)],
        bursts=bursts,
        # Frequent polls keep distribution even at every scale, so message
        # volume per job is dominated by the poll traffic itself.
        poll_interval=5.0,
    )
