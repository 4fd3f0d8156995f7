"""The standard comparison experiments P1-P4, as scenario text.

A `preset P1` line splices P1's statements into the parse at its line;
see docs/scenario-format.md.
"""

from __future__ import annotations


def _text(*lines: str) -> str:
    return "\n".join(lines) + "\n"


# P1, bulk compute submission: 1000 single-processor jobs on the
# five-site topology (4 + 4x5 nodes), in 200 bursts of 5 every 4 s.
# That is 1.25 jobs/s against 24 MFLOPS of capacity with mean demand
# 17.5 MFLOP, so the grid runs hot and falls behind unless placement is
# load-aware.  Polls every 5 s keep load estimates fresh.
P1 = _text(
    "site site1 nodes=4 power=1.0",
    *(f"site site{i} nodes=5 power=1.0" for i in range(2, 6)),
    "default_link bandwidth=1000",
    "user u1 quota=10",
    "poll_interval 5",
    *(f"burst time={4 * i} user=u1 site=site1 count=5 demand=5:30 procs=1 "
      f"data_site=site1 kind=compute_intensive" for i in range(200)))

# P2, processor classes 8/17/26/35: 25 jobs per class, submitted
# interleaved at t=0 so FCFS order mixes the classes; demands scale with
# the class.  One site, so runs differ only in how the queue orders the
# jobs, and thrs 1 keeps migration out of the discipline comparison.
P2 = _text(
    "site siteA nodes=40 power=1.0",
    "default_link bandwidth=1000",
    "user u1 quota=4",
    "thrs 1",
    *(f"burst time=0 user=u1 site=siteA count=1 demand={demand} "
      f"procs={procs} data_site=siteA kind=compute_intensive"
      for _ in range(25)
      for procs, demand in ((8, 200), (17, 1000), (26, 4444), (35, 5556))))

# P3, data staging: the data lives on a one-node storage site and every
# job needs two processors, so each run moves a 10 GB input across the
# (swept) link.
P3 = _text(
    "site store1 nodes=1 power=1.0",
    *(f"site c{i} nodes=5 power=1.0" for i in range(1, 5)),
    "default_link bandwidth=1000",
    "user u1 quota=5",
    "thrs 1",
    "burst time=0 user=u1 site=store1 count=40 demand=120 procs=2 data=10e9 "
    "data_site=store1 kind=data_intensive")

# P4, scalability: 40 bursts of one 3 MFLOP / 1 MB job per site (the
# count resolved at run time), all entering at site001.  Frequent polls
# keep distribution even at every scale, so the poll traffic dominates
# the message volume per job.
P4 = _text(
    "site_template prefix=site nodes=5 power=1.0",
    "site_count 5",
    "default_link bandwidth=1000",
    "user u1 quota=20",
    "poll_interval 5",
    *(f"burst time={i} user=u1 site=site001 count=1 demand=3 procs=1 "
      f"data=1e6 data_site=site001 kind=compute_intensive per_site=true"
      for i in range(40)))

PRESETS = {"P1": P1, "P2": P2, "P3": P3, "P4": P4}
