"""The site queue: quota-weighted priorities, SJF or FCFS.

`MultilevelQueue` is the one queue every site uses, under the scenario's
`queue` discipline.  Under `priority`, every queued job carries a
priority in [-1, 1] derived from its owner's quota and the aggregate
load already queued.  That priority depends only on the job's owner and
processor count, so it is kept once per (user, processors) class and
recomputed for every class on each arrival and departure
(reprioritization), which removes any need for aging.  Under `sjf` the
queue serves ascending processor counts, then submit time, then job id,
and under `fcfs` the order of arrival at the site.  Job ids compare as
text, so the generated `j100000` sorts before `j99999`.

Each class keeps its jobs in one list sorted by (submit time, job id).
All jobs of a class share one rank: minus the class priority under
`priority`, the processor count under `sjf`.  Service order is the merge
of the class lists by (rank, submit time, job id), so no operation sorts
the queue.  With C classes and n queued jobs:

- `enqueue`, `remove`: a binary search and a list shift in one class,
  plus the O(C) reprioritization;
- `ordered(1)`, the head: O(C), one `min` over the class heads, with
  no merge built; `ordered()` and other limits: O(n log C), a merge;
- `migration_candidates`: O(C + batch), from the class tails;
- `jobs_ahead`: O(C), a sum of class sizes.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, insort
from itertools import islice, repeat
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

from .baselines import QueueDiscipline
from .core import Job, UserProfile


def priority(n: int, big_n: float) -> float:
    """Two-branch priority rule; non-negative exactly when n <= N.

    Needs n >= 1 and N > 0, which the queue meets: it asks only for a
    queued class, whose user's quota is > 0 and whose T >= t >= 1."""
    if n <= big_n:
        return (big_n - n) / big_n
    return (big_n - n) / n


class DuplicateJobError(Exception):
    pass


class MultilevelQueue:
    """The per-site queue under any of the three disciplines.

    Under `priority`, every job of a (user, processors) class has the
    same priority, so one value per class is kept.  The class lists are
    maintained incrementally; the per-user counts, T and Q are derived
    from them on each reprioritization.  The test suite checks the
    priorities against a from-scratch recomputation, and the service
    order against a full sort, after random operation sequences.
    """

    def __init__(self, users: Mapping[str, UserProfile],
                 discipline: QueueDiscipline = QueueDiscipline.PRIORITY_MULTIQUEUE):
        self.users = users
        self.discipline = discipline
        self.jobs: Dict[str, Job] = {}  # in arrival order
        # (user, processors) -> its jobs by (submit_time, job_id)
        self._classes: Dict[Tuple[str, int], List[Job]] = {}
        self._class_priorities: Dict[Tuple[str, int], float] = {}

    def __len__(self) -> int:
        return len(self.jobs)

    # -- transitions ---------------------------------------------------

    def enqueue(self, job: Job) -> None:
        """Add a job and reprioritize."""
        if job.job_id in self.jobs:
            raise DuplicateJobError(job.job_id)
        self.jobs[job.job_id] = job
        # Inserted in place: transfers and migrations deliver jobs out of
        # submit order.
        insort(self._classes.setdefault(_class_of(job), []), job,
               key=_submit_order)
        self.reprioritize()

    def remove(self, job: Job) -> None:
        """Take a queued job out and reprioritize."""
        del self.jobs[job.job_id]
        cls = _class_of(job)
        members = self._classes[cls]
        del members[bisect_left(members, _submit_order(job),
                                key=_submit_order)]
        if not members:
            del self._classes[cls]
        self.reprioritize()

    def reprioritize(self) -> None:
        """Recompute every class's priority from the queued classes.

        Idempotent: priorities are a pure function of the queued multiset
        and the user profiles.  Q is summed exactly (`math.fsum`), so it
        does not depend on the order the users' jobs arrived in.  A no-op
        under `fcfs` and `sjf`.
        """
        if self.discipline is not QueueDiscipline.PRIORITY_MULTIQUEUE:
            return
        counts: Dict[str, int] = {}  # queued jobs per user
        big_t = 0  # processors requested by all queued jobs
        for (user, t), members in self._classes.items():
            counts[user] = counts.get(user, 0) + len(members)
            big_t += t * len(members)
        big_q = math.fsum(self.users[user].quota for user in counts)
        self._class_priorities = {
            (user, t): priority(counts[user],
                                (self.users[user].quota * big_t) / (big_q * t))
            for user, t in self._classes}

    # -- views ---------------------------------------------------------

    def priority_of(self, job: Job) -> float:
        """A queued job's priority: its class's (priority discipline only)."""
        return self._class_priorities[_class_of(job)]

    def ordered(self, limit: Optional[int] = None) -> List[Job]:
        """The first `limit` queued jobs in service order (all by default).

        priority: descending priority, then submit time, then job id;
        sjf: ascending processors, then submit time, then job id; fcfs:
        order of arrival at this site.
        """
        if self.discipline is QueueDiscipline.FCFS:
            return list(islice(self.jobs.values(), limit))
        # A class's rank: its processor count under sjf, minus its
        # priority under priority.
        sjf = self.discipline is QueueDiscipline.SJF
        prios = self._class_priorities
        if limit == 1:
            # The head is the least of the class heads.  Job ids are
            # unique, so two keys never tie and the job is never compared.
            heads = [(cls[1] if sjf else -prios[cls], members[0].submit_time,
                      members[0].job_id, members[0])
                     for cls, members in self._classes.items()]
            return [min(heads)[3]] if heads else []
        # More than the head: no run takes this path, since the engine
        # asks only for ordered(1); it serves callers that want a longer
        # prefix, such as the tests' service-order oracle.
        runs = [zip(repeat(cls[1] if sjf else -prios[cls]), members)
                for cls, members in self._classes.items()]
        merged = heapq.merge(*runs, key=_service_order)
        return [job for _, job in islice(merged, limit)]

    def jobs_ahead(self, probe_priority: float) -> int:
        """Queued jobs strictly ahead of a job with the probed priority."""
        return sum(len(self._classes[cls])
                   for cls, pr in self._class_priorities.items()
                   if pr > probe_priority)

    def migration_candidates(self, batch_size: int, cutoff: float) -> List[Job]:
        """Up to `batch_size` queued jobs whose priority is below the
        migration cutoff, lowest priority first; they stay queued."""
        tails = [zip(repeat(-pr), reversed(self._classes[cls]))
                 for cls, pr in self._class_priorities.items() if pr < cutoff]
        worst_first = heapq.merge(*tails, key=_service_order, reverse=True)
        return [job for _, job in islice(worst_first, batch_size)]


def _class_of(job: Job) -> Tuple[str, int]:
    return job.user_id, job.processors_required


_submit_order = attrgetter("submit_time", "job_id")


def _service_order(ranked: Tuple[float, Job]) -> tuple:
    """Sort key of a (class rank, job) pair: rank, submit time, job id."""
    rank, job = ranked
    return rank, job.submit_time, job.job_id


def congestion_ratio(arrival_rate: float, service_rate: float) -> float:
    """(arrival - service) / arrival; 0 for an idle site (no arrivals)."""
    if arrival_rate == 0:
        return 0.0
    return (arrival_rate - service_rate) / arrival_rate


def is_congested(ratio: float, thrs: float) -> bool:
    """Strictly above the threshold.  The ratio never exceeds 1, so a
    `thrs` of 1 turns export off."""
    return ratio > thrs
