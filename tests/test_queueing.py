"""Priority formula, multilevel queue and congestion detection.

Queue behavior is checked against a from-scratch oracle that recomputes
every priority directly from the queued job multiset.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dianasched.baselines import QueueDiscipline
from dianasched.core import UserProfile
from dianasched.queueing import (DuplicateJobError, MultilevelQueue,
                                 congestion_ratio, is_congested, priority)
from conftest import mk_job, mk_users, priorities, sjf_order


def scratch_priorities(users, jobs):
    """Independent recomputation of all priorities from first principles."""
    if not jobs:
        return {}
    counts = {}
    for j in jobs:
        counts[j.user_id] = counts.get(j.user_id, 0) + 1
    big_t = sum(j.processors_required for j in jobs)
    big_q = sum(users[u].quota for u in counts)
    out = {}
    for j in jobs:
        n = counts[j.user_id]
        big_n = (users[j.user_id].quota * big_t) / (big_q * j.processors_required)
        pr = (big_n - n) / big_n if n <= big_n else (big_n - n) / n
        out[j.job_id] = pr
    return out


class TestPriorityFormula:
    def test_boundary_is_zero(self):
        assert priority(1, 1.0) == 0.0

    def test_under_threshold(self):
        assert priority(3, 5.0) == pytest.approx(0.4)

    def test_over_threshold(self):
        assert priority(8, 5.0) == pytest.approx(-0.375)

    @given(n=st.integers(1, 10**6),
           big_n=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    def test_bounded(self, n, big_n):
        pr = priority(n, big_n)
        assert -1.0 <= pr <= 1.0

    @given(n=st.integers(1, 10**4),
           big_n=st.floats(1e-6, 1e4, allow_nan=False, allow_infinity=False))
    def test_sign_matches_threshold(self, n, big_n):
        pr = priority(n, big_n)
        assert (pr >= 0) == (n <= big_n)

    @given(n=st.integers(1, 1000),
           big_n=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_monotone_in_n(self, n, big_n):
        assert priority(n, big_n) >= priority(n + 1, big_n)

    @given(n=st.integers(1, 1000),
           big_n=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
           bump=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    def test_monotone_in_threshold(self, n, big_n, bump):
        assert priority(n, big_n + bump) >= priority(n, big_n)

    @given(n=st.integers(1, 10**6))
    def test_branches_agree_at_threshold(self, n):
        big_n = float(n)
        assert priority(n, big_n) == 0.0
        assert (big_n - n) / big_n == (big_n - n) / n


class TestMultilevelQueue:
    def test_empty_queue(self):
        q = MultilevelQueue(mk_users(u1=1.0))
        assert q.ordered() == []
        assert len(q) == 0

    def test_single_user_identical_jobs_all_zero(self):
        q = MultilevelQueue(mk_users(u1=1.0))
        for i in range(3):
            q.enqueue(mk_job(job_id=f"j{i}", user="u1", procs=1))
        # N = q*T/(Q*t) = 3, n = 3 for every job.
        assert all(p == 0.0 for p in priorities(q).values())

    def test_two_users_quota_ordering(self):
        q = MultilevelQueue(mk_users(a=3.0, b=1.0))
        q.enqueue(mk_job(job_id="ja", user="a", procs=1))
        q.enqueue(mk_job(job_id="jb", user="b", procs=1))
        assert priorities(q)["ja"] == pytest.approx(1 / 3)
        assert priorities(q)["jb"] == pytest.approx(-0.5)
        assert [j.job_id for j in q.ordered()] == ["ja", "jb"]

    def test_second_user_shifts_aggregates(self):
        users = mk_users(u1=1.0, u2=1.0)
        q = MultilevelQueue(users)
        for i in range(4):
            q.enqueue(mk_job(job_id=f"j{i}", user="u1", procs=1))
        assert all(p == 0.0 for p in priorities(q).values())
        q.enqueue(mk_job(job_id="big", user="u2", procs=8))
        jobs = list(q.jobs.values())
        assert priorities(q) == pytest.approx(scratch_priorities(users, jobs))

    def test_duplicate_enqueue_rejected(self):
        q = MultilevelQueue(mk_users(u1=1.0))
        q.enqueue(mk_job(job_id="j1"))
        with pytest.raises(DuplicateJobError):
            q.enqueue(mk_job(job_id="j1"))

    def test_unknown_user_rejected(self):
        q = MultilevelQueue(mk_users(u1=1.0))
        with pytest.raises(KeyError):
            q.enqueue(mk_job(user="ghost"))

    def test_remove_takes_the_job_and_reprioritizes(self):
        users = mk_users(a=2.0, b=1.0)
        q = MultilevelQueue(users)
        jobs = [mk_job(job_id="j1", user="a"), mk_job(job_id="j2", user="a"),
                mk_job(job_id="j3", user="b")]
        for job in jobs:
            q.enqueue(job)
        q.remove(jobs[1])
        assert list(q.jobs) == ["j1", "j3"]
        assert priorities(q) == pytest.approx(
            scratch_priorities(users, list(q.jobs.values())))


def _one_job_per_user(**quotas):
    """Queue holding one single-processor job per user, in argument order.

    With k such jobs, a user's threshold is N = k * q / Q, so a quota
    above, at or below Q / k gives a positive, zero or negative priority.
    """
    q = MultilevelQueue(mk_users(**quotas))
    for i, user in enumerate(quotas):
        q.enqueue(mk_job(job_id=f"j{i}", user=user, submit=float(i)))
    return q


class TestQueueViews:
    def test_jobs_ahead_counts_strictly_higher(self):
        q = _one_job_per_user(a=3.0, b=2.0, c=1.0)
        assert list(priorities(q).values()) == pytest.approx([1 / 3, 0.0, -0.5])
        assert q.jobs_ahead(0.1) == 1

    def test_jobs_ahead_probe_below_all(self):
        q = _one_job_per_user(a=3.0, b=2.0, c=1.0)
        assert q.jobs_ahead(-1.0) == 3

    def test_jobs_ahead_empty(self):
        assert _one_job_per_user().jobs_ahead(0.0) == 0

    def test_migration_candidates_lowest_first(self):
        q = _one_job_per_user(a=9.0, b=4.0, c=2.0, d=1.0)
        assert list(priorities(q).values()) == pytest.approx(
            [5 / 9, 0.0, -0.5, -0.75])
        assert [j.job_id for j in q.migration_candidates(
            batch_size=1, cutoff=0.0)] == ["j3"]
        assert [j.job_id for j in q.migration_candidates(
            batch_size=10, cutoff=0.0)] == ["j3", "j2"]

    def test_no_candidates_when_all_nonnegative(self):
        q = _one_job_per_user(a=1.0, b=1.0, c=1.0)
        assert list(priorities(q).values()) == [0.0, 0.0, 0.0]
        assert q.migration_candidates(batch_size=5, cutoff=0.0) == []

    def test_empty_queue_no_candidates(self):
        assert _one_job_per_user().migration_candidates(10, 0.0) == []

    def test_candidate_cutoff_is_strict(self):
        q = _one_job_per_user(a=1.0)
        assert priorities(q) == {"j0": 0.0}
        assert q.migration_candidates(batch_size=10, cutoff=0.0) == []
        assert [j.job_id for j in q.migration_candidates(
            batch_size=10, cutoff=0.1)] == ["j0"]


class TestDisciplines:
    def _jobs(self):
        return [mk_job(job_id="late", procs=3, submit=9.0),
                mk_job(job_id="wide", procs=5, submit=1.0),
                mk_job(job_id="early", procs=1, submit=0.0)]

    def test_fcfs_serves_arrival_order(self):
        q = MultilevelQueue(mk_users(u1=1.0), discipline=QueueDiscipline.FCFS)
        for job in self._jobs():
            q.enqueue(job)
        q.remove(q.jobs["wide"])
        assert [j.job_id for j in q.ordered()] == ["late", "early"]

    @pytest.mark.parametrize("discipline", [QueueDiscipline.SJF,
                                            QueueDiscipline.PRIORITY_MULTIQUEUE])
    def test_same_time_jobs_of_a_class_break_ties_on_the_id_as_text(
            self, discipline):
        # Generated ids are j plus the declaration index, padded to five
        # digits, so past 99,999 jobs the text order is not declaration
        # order: j100000 is served before j99999.
        q = MultilevelQueue(mk_users(u1=1.0), discipline=discipline)
        q.enqueue(mk_job(job_id="j99999"))
        q.enqueue(mk_job(job_id="j100000"))
        assert [j.job_id for j in q.ordered()] == ["j100000", "j99999"]
        assert q.ordered(1)[0].job_id == "j100000"

    def test_sjf_serves_sjf_order(self):
        q = MultilevelQueue(mk_users(u1=1.0), discipline=QueueDiscipline.SJF)
        jobs = self._jobs()
        for job in jobs:
            q.enqueue(job)
        assert q.ordered() == sjf_order(jobs)
        assert [j.job_id for j in q.ordered()] == ["early", "late", "wide"]


class TestQueueOracle:
    """Random operation sequences against the from-scratch oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_incremental_matches_scratch(self, data):
        users = mk_users(**{f"u{i}": float(i + 1) for i in range(5)})
        q = MultilevelQueue(users)
        live = []
        n_ops = data.draw(st.integers(1, 40))
        for i in range(n_ops):
            if live and data.draw(st.booleans()) and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(live))
                live.remove(victim)
                q.remove(q.jobs[victim])
            else:
                job = mk_job(job_id=f"j{i}",
                             user=data.draw(st.sampled_from(sorted(users))),
                             procs=data.draw(st.integers(1, 8)),
                             submit=float(i))
                q.enqueue(job)
                live.append(job.job_id)
            expect = scratch_priorities(users, list(q.jobs.values()))
            assert priorities(q) == pytest.approx(expect)

    # Quotas 0.1, 0.2 and 0.3 add up to different floats in different
    # orders, so a Q summed in arrival order would show here.
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           quotas=st.sampled_from([(1.0, 2.0, 5.0), (0.1, 0.2, 0.3)]))
    @example(seed=4, quotas=(0.1, 0.2, 0.3))
    def test_order_invariant_under_arrival_permutation(self, seed, quotas):
        rng = random.Random(seed)
        users = mk_users(**dict(zip("abc", quotas)))
        jobs = [mk_job(job_id=f"j{i}", user=rng.choice("abc"),
                       procs=rng.randint(1, 6), submit=float(rng.randint(0, 9)))
                for i in range(rng.randint(1, 20))]
        q1 = MultilevelQueue(users)
        for j in jobs:
            q1.enqueue(j)
        shuffled = jobs[:]
        rng.shuffle(shuffled)
        q2 = MultilevelQueue(users)
        for j in shuffled:
            q2.enqueue(j)
        assert [j.job_id for j in q1.ordered()] == [j.job_id for j in q2.ordered()]
        assert priorities(q1) == priorities(q2)


class TestServiceOrderOracle:
    """The class-merged views against a from-scratch full sort.

    Users a and b have equal quotas, so their classes tie on priority and
    must interleave by (submit time, job id).  Submit times are drawn out
    of arrival order, and removed jobs may arrive again, as transfers and
    migrations deliver them.
    """

    @staticmethod
    def full_sort(q, arrivals):
        if q.discipline is QueueDiscipline.PRIORITY_MULTIQUEUE:
            return sorted(q.jobs.values(), key=lambda j: (
                -q.priority_of(j), j.submit_time, j.job_id))
        if q.discipline is QueueDiscipline.SJF:
            return sjf_order(q.jobs.values())
        return [q.jobs[job_id] for job_id in arrivals]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), discipline=st.sampled_from(list(QueueDiscipline)))
    def test_views_match_full_sort(self, data, discipline):
        users = mk_users(a=1.0, b=1.0, c=2.0)
        q = MultilevelQueue(users, discipline)
        arrivals, gone = [], []
        for i in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(["add", "add", "remove", "again"]))
            if op == "remove" and arrivals:
                victim = data.draw(st.sampled_from(arrivals))
                arrivals.remove(victim)
                job = q.jobs[victim]
                q.remove(job)
                gone.append(job)
            elif op == "again" and gone:
                job = gone.pop(data.draw(st.integers(0, len(gone) - 1)))
                q.enqueue(job)
                arrivals.append(job.job_id)
            else:
                # Later arrivals get smaller ids, so id order is not
                # arrival order.
                job = mk_job(job_id=f"j{99 - i:02d}",
                             user=data.draw(st.sampled_from("abc")),
                             procs=data.draw(st.integers(1, 3)),
                             submit=float(data.draw(st.integers(0, 6))))
                q.enqueue(job)
                arrivals.append(job.job_id)
            expect = self.full_sort(q, arrivals)
            assert q.ordered() == expect
            # ordered(1) reads the class heads; other limits merge.
            for k in (0, 1, 2, len(q), len(q) + 3):
                assert q.ordered(k) == expect[:k]
            if discipline is not QueueDiscipline.PRIORITY_MULTIQUEUE:
                continue
            assert priorities(q) == pytest.approx(
                scratch_priorities(users, list(q.jobs.values())))
            batch = data.draw(st.integers(1, 5))
            cutoff = data.draw(st.sampled_from([-0.5, 0.0, 0.25, 1.5]))
            worst_first = [j for j in reversed(expect)
                           if q.priority_of(j) < cutoff]
            assert q.migration_candidates(batch, cutoff) == worst_first[:batch]
            assert q.jobs_ahead(cutoff) == sum(
                1 for j in expect if q.priority_of(j) > cutoff)


class TestCongestion:
    def test_balanced_rates_never_congested(self):
        assert congestion_ratio(4.0, 4.0) == 0.0
        assert not is_congested(0.0, 0.0)

    def test_ratio_value(self):
        assert congestion_ratio(10.0, 4.0) == pytest.approx(0.6)

    def test_overcapacity_is_negative(self):
        assert congestion_ratio(2.0, 3.0) < 0.0
        assert not is_congested(congestion_ratio(2.0, 3.0), 0.0)

    def test_idle_site_not_congested(self):
        assert congestion_ratio(0.0, 5.0) == 0.0

    def test_threshold_comparison_is_strict(self):
        assert is_congested(0.6, 0.5)
        assert not is_congested(0.5, 0.5)
        assert not is_congested(-0.2, 0.0)

