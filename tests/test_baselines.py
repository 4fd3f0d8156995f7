"""Round Robin, FLOP-greedy and the plain queue disciplines."""

from dataclasses import dataclass
from itertools import permutations

import pytest

from dianasched.baselines import QueueDiscipline, flop_schedule, rr_schedule
from dianasched.queueing import MultilevelQueue
from conftest import mk_job, mk_users


@dataclass
class IdleView:
    site_id: str
    node_power: float
    idle_nodes: int


class TestRoundRobin:
    def test_five_sites_five_jobs_pigeonhole(self):
        sites = [f"s{i}" for i in range(1, 6)]
        cursor = 0
        picked = []
        for _ in range(5):
            site, cursor = rr_schedule(sites, cursor)
            picked.append(site)
        assert sorted(picked) == sites

    def test_seven_jobs_wrap_around(self):
        sites = [f"s{i}" for i in range(1, 6)]
        cursor = 0
        counts = {s: 0 for s in sites}
        for _ in range(7):
            site, cursor = rr_schedule(sites, cursor)
            counts[site] += 1
        assert counts == {"s1": 2, "s2": 2, "s3": 1, "s4": 1, "s5": 1}

    def test_single_site(self):
        for cursor in range(4):
            site, _ = rr_schedule(["only"], cursor)
            assert site == "only"


class TestFlopGreedy:
    def test_picks_most_idle_capacity(self):
        sites = [IdleView("s1", 10.0, 1), IdleView("s2", 50.0, 1),
                 IdleView("s3", 20.0, 1)]
        assert flop_schedule(sites) == "s2"

    def test_capacity_is_power_times_idle_nodes(self):
        sites = [IdleView("s1", 10.0, 6), IdleView("s2", 50.0, 1)]
        assert flop_schedule(sites) == "s1"

    def test_tie_breaks_lexically(self):
        sites = [IdleView("b", 10.0, 2), IdleView("a", 10.0, 2),
                 IdleView("c", 10.0, 2)]
        assert flop_schedule(sites) == "a"

    def test_empty_site_list_rejected(self):
        with pytest.raises(ValueError):
            flop_schedule([])


def sjf_served(jobs):
    """The jobs in the order a site queue under `sjf` serves them."""
    queue = MultilevelQueue(mk_users(u1=1.0), QueueDiscipline.SJF)
    for job in jobs:
        queue.enqueue(job)
    return queue.ordered()


class TestQueueOrders:
    def test_sjf_sorts_by_processor_need(self):
        jobs = [mk_job(job_id="a", procs=8), mk_job(job_id="b", procs=2),
                mk_job(job_id="c", procs=5)]
        assert [j.job_id for j in sjf_served(jobs)] == ["b", "c", "a"]

    def test_sjf_equal_need_preserves_submit_order(self):
        jobs = [mk_job(job_id="a", procs=3, submit=2.0),
                mk_job(job_id="b", procs=3, submit=1.0),
                mk_job(job_id="c", procs=3, submit=1.0)]
        assert [j.job_id for j in sjf_served(jobs)] == ["b", "c", "a"]

    def test_sjf_single_job(self):
        jobs = [mk_job(job_id="solo", procs=4)]
        assert sjf_served(jobs) == jobs

    def test_sjf_minimizes_mean_wait_exhaustively(self):
        # On a single sequential machine whose service time grows with the
        # processor requirement, no permutation beats shortest-first.
        def mean_wait(order):
            clock = 0.0
            waits = []
            for j in order:
                waits.append(clock)
                clock += j.processors_required
            return sum(waits) / len(waits)

        cases = [
            [3, 1, 4, 1, 5],
            [8, 2, 2, 7, 5, 6],
            [1, 1, 1],
            [9, 3, 6, 2, 8, 4, 7],
        ]
        for needs in cases:
            jobs = [mk_job(job_id=f"j{i}", procs=p)
                    for i, p in enumerate(needs)]
            best = min(mean_wait(p) for p in permutations(jobs))
            assert mean_wait(sjf_served(jobs)) == pytest.approx(best)
