"""Shared fixtures and small builders for the test suite."""

from dianasched.core import JobSpec, JobKind, SiteState, UserProfile


def mk_job(job_id="j1", user="u1", demand=10.0, procs=1, data=0.0,
           data_site="s1", submit=0.0, kind=JobKind.MIXED) -> JobSpec:
    return JobSpec(job_id=job_id, user_id=user, compute_demand=demand,
                   processors_required=procs, data_size=data,
                   data_site=data_site, submit_time=submit, kind=kind)


def mk_site(site_id="s1", nodes=5, power=1.0, local=None, diana=None,
            arrival=0.0, service=0.0) -> SiteState:
    return SiteState(site_id=site_id, node_count=nodes, node_power=power,
                     running=len(local or []), diana_queue=diana,
                     arrival_rate=arrival, service_rate=service)


def mk_users(**quotas):
    return {name: UserProfile(name, q) for name, q in quotas.items()}
