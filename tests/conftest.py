"""Shared fixtures and small builders for the test suite."""

import heapq
from dataclasses import dataclass

from dianasched.core import Job, JobKind, UnreachableSiteError, UserProfile
from dianasched.costs import (EPSILON, PRESET_WEIGHTS, REFERENCE_BANDWIDTH,
                              UNIT_WEIGHTS, transfer_cost)
from dianasched.engine import RunResult
from dianasched.scheduler import PeerSnapshot, UnschedulableError


def mk_job(job_id="j1", user="u1", demand=10.0, procs=1, data=0.0,
           data_site="s1", submit=0.0, kind=JobKind.MIXED) -> Job:
    return Job(job_id=job_id, user_id=user, compute_demand=demand,
               processors_required=procs, data_size=data,
               data_site=data_site, submit_time=submit, kind=kind)


@dataclass
class SiteView(PeerSnapshot):
    """A snapshot that also reads as a site with a `backlog`.

    The backlog is the queue plus what was sent since the poll, as the
    copies the reference aging below returns; the engine's local site
    (SiteRuntime) has the same attribute.
    """

    @property
    def backlog(self):
        return self.queue_length + self.sent_since


def mk_site(site_id="s1", nodes=5, power=1.0, backlog=0,
            service=0.0) -> SiteView:
    """A site as the cost model reads it, with `backlog` jobs queued."""
    return SiteView(site_id=site_id, node_count=nodes, node_power=power,
                    queue_length=backlog, service_rate=service,
                    snapshot_time=0.0)


def mk_users(**quotas):
    return {name: UserProfile(name, q) for name, q in quotas.items()}


def sjf_order(jobs):
    """Reference SJF order: processors required, then submit time, then id."""
    return sorted(jobs, key=lambda j: (j.processors_required, j.submit_time,
                                       j.job_id))


def priorities(queue):
    """Every queued job's priority by job id (priority discipline only)."""
    return {job.job_id: queue.priority_of(job) for job in queue.jobs.values()}


def assert_busy_node_seconds_conserved(sim, result):
    """Each site's busy node-seconds equal duration x processors summed
    over its allocations whose job completed.

    The sum runs in the order of the completed events, as the engine
    adds it up, so the floats must be equal, not merely close.
    """
    allocated = {}  # job id -> (site id, duration)
    expect = dict.fromkeys(sim.sites, 0.0)
    for event in result.trace:
        if event["kind"] == "allocate":
            allocated[event["job"]] = event["site"], event["duration"]
        elif event["kind"] == "completed":
            site_id, duration = allocated[event["job"]]
            assert event["site"] == site_id
            procs = result.jobs[event["job"]].processors_required
            expect[site_id] += duration * procs
    assert {sid: site.busy_node_seconds
            for sid, site in sim.sites.items()} == expect


# -- reference placement -------------------------------------------------
# The cost and placement formulas written plainly: one function per cost
# term, and every peer aged into a copy, in site-id order.  The scheduler
# computes the same floats with fewer calls and no copies, and must agree
# with these exactly (`==`), since placements compare the floats.

def compute_cost(job, site):
    """Service time on `site` plus the estimated wait behind its backlog."""
    effective = site.node_power * min(job.processors_required, site.node_count)
    service = job.compute_demand / effective if job.compute_demand else 0.0
    delay = site.backlog / max(site.service_rate, EPSILON)
    return service + delay


def data_cost(job, link):
    """Staging time of the job's data over `link`; 0 for intra-site."""
    if link is None:
        return 0.0
    return transfer_cost(job, link)


def network_cost(link, b_ref=REFERENCE_BANDWIDTH):
    """Reference bandwidth over available bandwidth; 0 for intra-site."""
    if link is None:
        return 0.0
    return b_ref / (link.bandwidth * (1.0 - link.background_load))


def reference_total_cost(job, site, link, weights, b_ref=REFERENCE_BANDWIDTH):
    c = compute_cost(job, site)
    d = data_cost(job, link)
    n = network_cost(link, b_ref)
    return weights.w_c * c + weights.w_d * d + weights.w_n * n


def aged_copy(snap, now):
    """A copy of `snap` with its queue aged by the service rate to `now`."""
    served = snap.service_rate * max(0.0, now - snap.snapshot_time)
    projected = max(0.0, snap.queue_length - served)
    return SiteView(site_id=snap.site_id, node_count=snap.node_count,
                    node_power=snap.node_power, queue_length=projected,
                    service_rate=snap.service_rate,
                    snapshot_time=snap.snapshot_time,
                    jobs_ahead=snap.jobs_ahead, sent_since=snap.sent_since)


def reference_schedule(job, local, peers, now, topology,
                       b_ref=REFERENCE_BANDWIDTH, weight_overrides=None):
    """(chosen site, alternatives) over peers aged into sorted copies."""
    weights = (weight_overrides or {}).get(job.kind, PRESET_WEIGHTS[job.kind])
    aged = [aged_copy(p, now) for p in sorted(peers, key=lambda p: p.site_id)]
    feasible = [c for c in [local] + aged
                if job.processors_required <= c.node_count]
    if not feasible:
        raise UnschedulableError(job.job_id)
    scored = []
    for cand in feasible:
        try:
            link = topology.link_between(job.data_site, cand.site_id)
            total = reference_total_cost(job, cand, link, weights, b_ref)
        except UnreachableSiteError:
            continue
        scored.append((total, cand.backlog, cand.site_id))
    if not scored:
        raise UnreachableSiteError(job.job_id)
    scored.sort()
    return scored[0][2], [(site_id, total) for total, _, site_id in scored]


def reference_batch_cost(batch, site, topology, b_ref=REFERENCE_BANDWIDTH):
    acc = 0.0
    for job in batch:
        link = topology.link_between(job.data_site, site.site_id)
        acc += reference_total_cost(job, site, link, UNIT_WEIGHTS, b_ref)
    return acc


def reference_migrate_batch(batch, local, local_jobs_ahead, peers, now,
                            topology, b_ref=REFERENCE_BANDWIDTH):
    """The export target (or None) over peers aged into sorted copies."""
    need = max(j.processors_required for j in batch)
    local_key = local_jobs_ahead + local.backlog
    local_cost = reference_batch_cost(batch, local, topology, b_ref)
    best = None
    for peer in sorted((aged_copy(p, now) for p in peers),
                       key=lambda p: p.site_id):
        if need > peer.node_count:
            continue
        try:
            cost = reference_batch_cost(batch, peer, topology, b_ref)
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


# -- reference event loop ------------------------------------------------
# `Simulation.run` streams submissions past its event heap.  This is the
# loop written plainly: every submission is pushed through `_at` before
# the first event, so each has a lower sequence number than any other
# event, and the heap alone orders them.

def reference_run(sim):
    """Run `sim` with every submission on the heap; its RunResult."""
    sim._ran = True
    for job in sim.jobs.values():
        sim._at(job.submit_time, sim._on_submit, job)
    for fault in sim.scenario.faults:
        sim._at(fault.time, sim._on_fault, fault)
    if sim.jobs:
        sim._at(sim.scenario.rate_interval, sim._on_rate_tick)
        sim._at(sim.scenario.echo_interval, sim._on_echo_tick)
    cap = sim.scenario.duration_cap
    while sim._heap:
        time, _, fn, args = heapq.heappop(sim._heap)
        if cap > 0 and time > cap:
            break
        sim.now = max(sim.now, time)
        fn(*args)
    util = {}
    for sid, site in sim.sites.items():
        cap_seconds = site.node_count * sim.now
        util[sid] = site.busy_node_seconds / cap_seconds if cap_seconds else 0.0
    return RunResult(scenario=sim.scenario, seed=sim.seed, jobs=sim.jobs,
                     log=sim.log, messages=sim.messages, utilization=util,
                     workload_hash=sim.workload_digest)
