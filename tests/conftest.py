"""Shared fixtures and small builders for the test suite."""

from dianasched.core import JobSpec, JobKind, UserProfile
from dianasched.scheduler import PeerSnapshot


def mk_job(job_id="j1", user="u1", demand=10.0, procs=1, data=0.0,
           data_site="s1", submit=0.0, kind=JobKind.MIXED) -> JobSpec:
    return JobSpec(job_id=job_id, user_id=user, compute_demand=demand,
                   processors_required=procs, data_size=data,
                   data_site=data_site, submit_time=submit, kind=kind)


def mk_site(site_id="s1", nodes=5, power=1.0, backlog=0,
            service=0.0) -> PeerSnapshot:
    """A site as the cost model reads it, with `backlog` jobs queued."""
    return PeerSnapshot(site_id=site_id, node_count=nodes, node_power=power,
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
    return {job_id: queue.priority_of(job_id) for job_id in queue.jobs}
