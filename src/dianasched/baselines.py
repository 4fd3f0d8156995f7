"""Baseline placement policies and the scheduler and queue kinds.

Round Robin ignores cost, queues and network conditions entirely; the
FLOP-greedy policy polls every site before every decision and grabs the
most powerful idle capacity.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence, Tuple


class SchedulerKind(str, Enum):
    DIANA = "diana"
    ROUND_ROBIN = "round_robin"
    FLOP_GREEDY = "flop_greedy"


class QueueDiscipline(str, Enum):
    FCFS = "fcfs"
    SJF = "sjf"
    PRIORITY_MULTIQUEUE = "priority"


def rr_schedule(sites: Sequence[str], cursor: int) -> Tuple[str, int]:
    """Next site in cyclic order; returns (site, advanced cursor)."""
    return sites[cursor % len(sites)], (cursor + 1) % len(sites)


def flop_schedule(sites: Sequence) -> str:
    """Site with the most idle capacity (node_power * idle_nodes).

    `sites` are the sites that fit the job, objects with site_id,
    node_power and idle_nodes.  Ties break to the lexically smallest
    site id.
    """
    best = min(sites, key=lambda s: (-(s.node_power * s.idle_nodes), s.site_id))
    return best.site_id
