"""The per-site P2P meta-scheduler decision logic.

Normal scheduling picks the minimum aggregate-cost site for a first-time
job.  Under congestion, whole batches of low-priority jobs are exported
to the single peer that wins on queue length first and cost second, or
kept local when no peer is strictly better on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import Job, Topology, UnreachableSiteError
from .costs import PRESET_WEIGHTS, REFERENCE_BANDWIDTH, UNIT_WEIGHTS, total_cost


class UnschedulableError(Exception):
    """No known site can satisfy the job's processor requirement."""


@dataclass
class PeerSnapshot:
    """A peer's state as reported over one poll reply."""

    site_id: str
    node_count: int
    node_power: float
    queue_length: float  # queued plus running jobs when polled
    service_rate: float
    snapshot_time: float
    jobs_ahead: int = 0  # relative to the probing reference priority
    sent_since: int = 0  # local bookkeeping: jobs routed there after the poll

    def as_of(self, now: float) -> float:
        """The queue length aged by the peer's service rate up to `now`.

        Without this a snapshot only ever grows (via sent_since) while the
        local view keeps shrinking, biasing every decision toward local.
        The snapshot itself is left as polled; a placement adds
        `sent_since`, the optimistic count of what was routed there since.
        Each conditional is exactly `max(0.0, x)`, without the call.
        """
        elapsed = now - self.snapshot_time
        served = self.service_rate * (elapsed if elapsed > 0.0 else 0.0)
        left = self.queue_length - served
        return left if left > 0.0 else 0.0


@dataclass
class SchedulingDecision:
    chosen_site: str
    alternatives: List[Tuple[str, float]]  # (site, total), best first


def schedule(job: Job, local, peers: Sequence[PeerSnapshot], now: float,
             topology: Topology, b_ref: float = REFERENCE_BANDWIDTH,
             weights=PRESET_WEIGHTS) -> SchedulingDecision:
    """Choose the minimum aggregate-cost site for a first-time job.

    Candidates are the local site (the engine's SiteRuntime, at its
    current backlog) plus every peer snapshot, whose backlog is its queue
    aged to `now` plus the jobs sent there since the poll; `peers` may
    come in any order.  Ties break by (lower total, fewer queued jobs,
    lexical site id).  Raises UnschedulableError when no candidate owns
    enough nodes even when idle, and the UnreachableSiteError of the last
    `link_between` that failed when the data reaches none that does.
    `weights` maps each job kind to its cost weights.
    """
    kind_weights = weights[job.kind]
    need = job.processors_required
    data_site = job.data_site
    link_between = topology.link_between
    feasible = False
    scored = []
    for cand in (local, *peers):
        if need > cand.node_count:
            continue
        feasible = True
        backlog = (local.backlog if cand is local
                   else cand.as_of(now) + cand.sent_since)
        try:
            link = link_between(data_site, cand.site_id)
        except UnreachableSiteError as exc:
            unreachable = exc
            continue
        scored.append((total_cost(job, cand, backlog, link, kind_weights, b_ref),
                       backlog, cand.site_id))
    if not feasible:
        raise UnschedulableError(
            f"job {job.job_id} needs {need} processors; "
            f"no site is large enough")
    if not scored:
        # Some candidate was feasible, so `link_between` said why.
        raise unreachable
    scored.sort()  # site ids are unique, so no comparison goes further
    return SchedulingDecision(
        chosen_site=scored[0][2],
        alternatives=[(site_id, total) for total, _, site_id in scored])


def batch_cost(batch: Sequence[Job], site, backlog: float,
               topology: Topology,
               b_ref: float = REFERENCE_BANDWIDTH) -> float:
    """Unweighted total cost of running the whole batch at one site."""
    acc = 0.0
    for job in batch:
        link = topology.link_between(job.data_site, site.site_id)
        acc += total_cost(job, site, backlog, link, UNIT_WEIGHTS, b_ref)
    return acc


def migrate_batch(batch: Sequence[Job], local,
                  local_jobs_ahead: int, peers: Sequence[PeerSnapshot],
                  now: float, topology: Topology,
                  b_ref: float = REFERENCE_BANDWIDTH) -> Optional[str]:
    """Pick the single peer a congested site should export the batch to.

    Peers are ranked lexicographically by (jobs ahead + queue length aged
    to `now`, total batch cost, site id), so their order does not matter;
    a peer's batch cost counts its aged queue plus the jobs sent there
    since the poll.  The batch stays local unless the best peer is
    strictly better than the local site on both criteria; unreachable or
    too-small peers never win.  `batch` is nonempty.  Returns the target
    site id, or None for stay-local.
    """
    need = max(j.processors_required for j in batch)
    local_backlog = local.backlog
    local_key = local_jobs_ahead + local_backlog
    local_cost = batch_cost(batch, local, local_backlog, topology, b_ref)
    best = None
    for peer in peers:
        if need > peer.node_count:
            continue
        queued = peer.as_of(now)
        try:
            cost = batch_cost(batch, peer, queued + peer.sent_since,
                              topology, b_ref)
        except UnreachableSiteError:
            continue
        key = (peer.jobs_ahead + queued, cost, peer.site_id)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    jobs_key, cost, site_id = best
    if jobs_key < local_key and cost < local_cost:
        return site_id
    return None
