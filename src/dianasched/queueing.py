"""The site queue: quota-weighted priorities, SJF or FCFS.

`MultilevelQueue` is the one queue every site uses, under the scenario's
`queue` discipline.  Under `priority`, every queued job carries a
priority in [-1, 1] derived from its owner's quota and the aggregate
load already queued.  That priority depends only on the job's owner and
processor count, so it is kept once per (user, processors) class and
recomputed for every class on each arrival and departure
(reprioritization), which removes any need for aging.  Under `sjf` the
queue serves `baselines.sjf_order`, and under `fcfs` the order of
arrival at the site.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from .baselines import QueueDiscipline, sjf_order
from .core import JobSpec, UserProfile


def priority(n: int, big_n: float) -> float:
    """Two-branch priority rule; non-negative exactly when n <= N."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if big_n <= 0:
        raise ValueError("N must be > 0")
    if n <= big_n:
        return (big_n - n) / big_n
    return (big_n - n) / n


class DuplicateJobError(Exception):
    pass


class MultilevelQueue:
    """The per-site queue under any of the three disciplines.

    Under `priority`, every job of a (user, processors) class has the
    same priority, so one value per class is kept.  The per-user and
    per-class counts and T are maintained incrementally and must always
    match a from-scratch recomputation; the test suite checks that
    equivalence after random operation sequences.
    """

    def __init__(self, users: Mapping[str, UserProfile],
                 discipline: QueueDiscipline = QueueDiscipline.PRIORITY_MULTIQUEUE):
        self.users = users
        self.discipline = discipline
        self.jobs: Dict[str, JobSpec] = {}  # in arrival order
        self._user_counts: Dict[str, int] = {}
        self._class_counts: Dict[Tuple[str, int], int] = {}
        self._class_priorities: Dict[Tuple[str, int], float] = {}
        self._total_processors = 0

    def __len__(self) -> int:
        return len(self.jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.jobs

    @property
    def quota_sum(self) -> float:
        return sum(self.users[u].quota for u in self._user_counts)

    # -- transitions ---------------------------------------------------

    def enqueue(self, job: JobSpec) -> None:
        """Add a job and reprioritize."""
        if job.job_id in self.jobs:
            raise DuplicateJobError(job.job_id)
        if job.user_id not in self.users:
            raise KeyError(f"unknown user {job.user_id}")
        self.jobs[job.job_id] = job
        _bump(self._user_counts, job.user_id, 1)
        _bump(self._class_counts, (job.user_id, job.processors_required), 1)
        self._total_processors += job.processors_required
        self.reprioritize()

    def remove(self, job_id: str) -> JobSpec:
        job = self.jobs.pop(job_id)
        _bump(self._user_counts, job.user_id, -1)
        _bump(self._class_counts, (job.user_id, job.processors_required), -1)
        self._total_processors -= job.processors_required
        self.reprioritize()
        return job

    def reprioritize(self) -> None:
        """Recompute every class's priority from the current aggregates.

        Idempotent: priorities are a pure function of the queued multiset
        and the user profiles.  A no-op under `fcfs` and `sjf`.
        """
        if self.discipline is not QueueDiscipline.PRIORITY_MULTIQUEUE:
            return
        big_q = self.quota_sum
        big_t = self._total_processors
        self._class_priorities = {
            (user, t): priority(self._user_counts[user],
                                (self.users[user].quota * big_t) / (big_q * t))
            for user, t in self._class_counts}

    # -- views ---------------------------------------------------------

    def priority_of(self, job_id: str) -> float:
        """A queued job's priority (priority discipline only)."""
        job = self.jobs[job_id]
        return self._class_priorities[job.user_id, job.processors_required]

    @property
    def priorities(self) -> Dict[str, float]:
        """Every queued job's priority, by job id (priority discipline only)."""
        return {job_id: self.priority_of(job_id) for job_id in self.jobs}

    def _sort_key(self, job: JobSpec):
        return (-self._class_priorities[job.user_id, job.processors_required],
                job.submit_time, job.job_id)

    def ordered(self) -> List[JobSpec]:
        """All queued jobs in service order, deterministic.

        priority: descending priority, then submit time, then job id;
        sjf: `sjf_order`; fcfs: order of arrival at this site.
        """
        if self.discipline is QueueDiscipline.PRIORITY_MULTIQUEUE:
            return sorted(self.jobs.values(), key=self._sort_key)
        if self.discipline is QueueDiscipline.SJF:
            return sjf_order(self.jobs.values())
        return list(self.jobs.values())

    def jobs_ahead(self, probe_priority: float) -> int:
        """Queued jobs strictly ahead of a job with the probed priority."""
        return sum(count for cls, count in self._class_counts.items()
                   if self._class_priorities[cls] > probe_priority)

    def migration_candidates(self, batch_size: int, cutoff: float) -> List[str]:
        """Lowest-priority job ids below the migration cutoff, worst first."""
        worst_first = sorted(self.jobs.values(), key=self._sort_key,
                             reverse=True)
        tail = [j.job_id for j in worst_first
                if self.priority_of(j.job_id) < cutoff]
        return tail[:batch_size]


def _bump(counts: dict, key, by: int) -> None:
    """Add `by` to a count, dropping the key when it reaches zero."""
    counts[key] = counts.get(key, 0) + by
    if counts[key] == 0:
        del counts[key]


def congestion_ratio(arrival_rate: float, service_rate: float) -> float:
    """(arrival - service) / arrival; 0 for an idle site (no arrivals)."""
    if arrival_rate == 0:
        return 0.0
    return (arrival_rate - service_rate) / arrival_rate


def is_congested(ratio: float, thrs: float) -> bool:
    return ratio > thrs
