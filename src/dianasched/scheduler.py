"""The per-site P2P meta-scheduler decision logic.

Normal scheduling picks the minimum aggregate-cost site for a first-time
job.  Under congestion, whole batches of low-priority jobs are exported
to the single peer that wins on queue length first and cost second, or
kept local when no peer is strictly better on both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import JobSpec, Topology, UnreachableSiteError
from .costs import (CostWeights, PRESET_WEIGHTS, REFERENCE_BANDWIDTH,
                    UNIT_WEIGHTS, total_cost)


class UnschedulableError(Exception):
    """No known site can satisfy the job's processor requirement."""


@dataclass
class PeerSnapshot:
    """A peer's state as reported over one poll reply."""

    site_id: str
    node_count: int
    node_power: float
    queue_length: float  # queued plus running jobs, aged by as_of
    service_rate: float
    snapshot_time: float
    jobs_ahead: int = 0  # relative to the probing reference priority
    sent_since: int = 0  # local bookkeeping: jobs routed there after the poll

    @property
    def backlog(self):
        # Optimistic correction: count what we exported since the snapshot.
        return self.queue_length + self.sent_since

    def as_of(self, now: float) -> "PeerSnapshot":
        """Copy with the queue estimate aged by the peer's service rate.

        Without this a snapshot only ever grows (via sent_since) while the
        local view keeps shrinking, biasing every decision toward local.
        """
        served = self.service_rate * max(0.0, now - self.snapshot_time)
        projected = max(0.0, self.queue_length - served)
        return PeerSnapshot(
            site_id=self.site_id, node_count=self.node_count,
            node_power=self.node_power, queue_length=projected,
            service_rate=self.service_rate,
            snapshot_time=self.snapshot_time, jobs_ahead=self.jobs_ahead,
            sent_since=self.sent_since)


@dataclass
class SchedulingDecision:
    chosen_site: str
    alternatives: List[Tuple[str, float]]  # (site, total), best first


def classify(job: JobSpec, overrides=None) -> CostWeights:
    """Weights for the job's declared kind; the tag is authoritative."""
    if overrides and job.kind in overrides:
        return overrides[job.kind]
    return PRESET_WEIGHTS[job.kind]


def schedule(job: JobSpec, local, peers: Sequence[PeerSnapshot],
             topology: Topology, b_ref: float = REFERENCE_BANDWIDTH,
             weight_overrides=None) -> SchedulingDecision:
    """Choose the minimum aggregate-cost site for a first-time job.

    Candidates are the local site (the engine's SiteRuntime) plus every
    peer snapshot; both expose what `compute_cost` reads.  Ties break by
    (lower total, fewer queued jobs, lexical site id).  Raises
    UnschedulableError when no candidate owns enough nodes even when idle.
    """
    weights = classify(job, weight_overrides)
    candidates = [local] + list(peers)
    feasible = [c for c in candidates if job.processors_required <= c.node_count]
    if not feasible:
        raise UnschedulableError(
            f"job {job.job_id} needs {job.processors_required} processors; "
            f"no site is large enough")
    scored = []
    for cand in feasible:
        try:
            link = topology.link_between(job.data_site, cand.site_id)
            total = total_cost(job, cand, link, weights, b_ref)
        except UnreachableSiteError:
            continue
        scored.append((total, cand.backlog, cand.site_id))
    if not scored:
        raise UnreachableSiteError(
            f"job {job.job_id}: data at {job.data_site} cannot reach any site")
    scored.sort()  # site ids are unique, so no comparison goes further
    return SchedulingDecision(
        chosen_site=scored[0][2],
        alternatives=[(site_id, total) for total, _, site_id in scored])


def batch_cost(batch: Sequence[JobSpec], site, topology: Topology,
               b_ref: float = REFERENCE_BANDWIDTH) -> float:
    """Unweighted total cost of running the whole batch at one site."""
    acc = 0.0
    for job in batch:
        link = topology.link_between(job.data_site, site.site_id)
        acc += total_cost(job, site, link, UNIT_WEIGHTS, b_ref)
    return acc


def migrate_batch(batch: Sequence[JobSpec], local,
                  local_jobs_ahead: int, peers: Sequence[PeerSnapshot],
                  topology: Topology,
                  b_ref: float = REFERENCE_BANDWIDTH) -> Optional[str]:
    """Pick the single peer a congested site should export the batch to.

    Peers are ranked lexicographically by (jobs ahead + queue length, total
    batch cost).  The batch stays local unless the best peer is strictly
    better than the local site on both criteria; unreachable or too-small
    peers never win.  Returns the target site id, or None for stay-local.
    """
    if not batch:
        raise ValueError("batch must be nonempty")
    need = max(j.processors_required for j in batch)
    local_key = local_jobs_ahead + local.backlog
    local_cost = batch_cost(batch, local, topology, b_ref)
    best = None
    for peer in sorted(peers, key=lambda p: p.site_id):
        if need > peer.node_count:
            continue
        try:
            cost = batch_cost(batch, peer, topology, b_ref)
        except UnreachableSiteError:
            continue
        key = (peer.jobs_ahead + peer.queue_length, cost, peer.site_id)
        if best is None or key < best[0]:
            best = (key, peer)
    if best is None:
        return None
    (jobs_key, cost, _), peer = best
    if jobs_key < local_key and cost < local_cost:
        return peer.site_id
    return None
