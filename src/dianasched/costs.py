"""Cost model behind site selection.

Computation cost, data-transfer cost and a bandwidth-normalized network
cost, combined into a weighted aggregate.  All formulas are deliberately
minimal and isolated here so alternates can be swapped without touching
the schedulers.  Reachability is not decided here: each cost takes the
link that `Topology.link_between` returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import Job, JobKind, NetworkLink

EPSILON = 1e-9  # guards the cold-start division before any job completes
REFERENCE_BANDWIDTH = 1000.0  # Mbps


@dataclass(frozen=True)
class CostWeights:
    w_c: float
    w_d: float
    w_n: float

    def __post_init__(self):
        weights = (self.w_c, self.w_d, self.w_n)
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError("cost weights must be finite and non-negative")
        if self.w_c + self.w_d + self.w_n <= 0:
            raise ValueError("at least one cost weight must be positive")


# Category presets; configurable per scenario.
PRESET_WEIGHTS = {
    JobKind.COMPUTE_INTENSIVE: CostWeights(1.0, 0.25, 0.25),
    JobKind.DATA_INTENSIVE: CostWeights(0.25, 1.0, 1.0),
    JobKind.MIXED: CostWeights(1.0, 1.0, 1.0),
}

UNIT_WEIGHTS = CostWeights(1.0, 1.0, 1.0)


def transfer_cost(job: Job, link: NetworkLink) -> float:
    """Seconds to move the job's input data over `link`.

    The link comes from `Topology.link_between`, which alone decides
    whether two sites are the same (no link, nothing to move) or cannot
    reach each other.
    """
    bits = job.data_size * 8.0
    return link.latency + bits / (link.available * 1e6)


def total_cost(job: Job, site, backlog: float,
               link: Optional[NetworkLink], weights: CostWeights,
               b_ref: float = REFERENCE_BANDWIDTH) -> float:
    """Weighted aggregate cost of running `job` at one candidate site.

    The compute term is the service time on `site` plus the wait behind
    its `backlog` jobs at the site's service rate; `site` needs site_id,
    node_count, node_power and service_rate, which the engine's
    SiteRuntime (the local site) and a PeerSnapshot both have.  The data
    term is the staging time over `link`, the path from the job's data
    site to the candidate (None when co-located), and the network term
    is the reference bandwidth over its available bandwidth.  The sum is
    `w_c*c + w_d*d + w_n*n` in that association: placements compare
    these floats exactly.
    """
    # The conditionals give exactly min(need, nodes) and max(rate,
    # EPSILON), without two builtin calls per candidate.
    need = job.processors_required
    nodes = site.node_count
    rate = site.service_rate
    effective = site.node_power * (nodes if nodes < need else need)
    c = ((job.compute_demand / effective if job.compute_demand else 0.0)
         + backlog / (EPSILON if EPSILON > rate else rate))
    if link is None:
        d = n = 0.0
    else:
        d = transfer_cost(job, link)
        n = b_ref / link.available
    return weights.w_c * c + weights.w_d * d + weights.w_n * n
