"""Site selection and bulk-migration decision logic."""

import pytest

from dianasched.core import (JobKind, NetworkLink, Topology,
                             UnreachableSiteError)
from dianasched.costs import CostWeights, PRESET_WEIGHTS, UNIT_WEIGHTS, total_cost
from dianasched.scheduler import (PeerSnapshot, UnschedulableError, batch_cost,
                                  classify, migrate_batch, schedule)
from conftest import mk_job, mk_site

GB = 10**9


def snap(site_id, nodes=5, power=1.0, queue=0, service=0.0, time=0.0,
         ahead=0):
    return PeerSnapshot(site_id=site_id, node_count=nodes, node_power=power,
                        queue_length=queue, service_rate=service,
                        snapshot_time=time, jobs_ahead=ahead)


class TestClassify:
    def test_kind_selects_preset(self):
        for kind in JobKind:
            assert classify(mk_job(kind=kind)) == PRESET_WEIGHTS[kind]

    def test_tag_overrides_actual_data_size(self):
        # A data-intensive job with no data still uses the data preset.
        job = mk_job(kind=JobKind.DATA_INTENSIVE, data=0.0)
        assert classify(job) == PRESET_WEIGHTS[JobKind.DATA_INTENSIVE]

    def test_explicit_overrides_win(self):
        override = {JobKind.MIXED: CostWeights(2, 0, 0)}
        assert classify(mk_job(kind=JobKind.MIXED), override) == CostWeights(2, 0, 0)


class TestSchedule:
    def _topology(self, bw=1000.0):
        return Topology(default_link=NetworkLink("*", "*", bw))

    def test_no_peers_stays_local(self):
        topo = self._topology()
        decision = schedule(mk_job(data_site="home"), mk_site("home"), [], topo)
        assert decision.chosen_site == "home"

    def test_picks_global_cost_minimum(self):
        # Local costs 83 s, peer A 40 s, peer B 90 s.
        topo = self._topology()
        job = mk_job(demand=80.0, data_site="home", kind=JobKind.MIXED)
        local = mk_site("home", nodes=1, power=1.0)  # 80 + no network
        peer_a = snap("a", nodes=1, power=80 / 39)   # 39 + network 1 = 40
        peer_b = snap("b", nodes=1, power=80 / 89)   # 89 + network 1 = 90
        decision = schedule(job, local, [peer_a, peer_b], topo)
        assert decision.chosen_site == "a"
        assert decision.alternatives[0][0] == "a"
        assert decision.alternatives[0][1] == pytest.approx(40.0)
        # Agreement with a brute-force scan over the same candidates.
        weights = classify(job)
        totals = {}
        for cand in (local, peer_a, peer_b):
            link = topo.link_between(job.data_site, cand.site_id)
            totals[cand.site_id] = total_cost(job, cand, link, weights)
        assert decision.chosen_site == min(sorted(totals), key=totals.get)

    def test_data_gravity_pulls_data_intensive_jobs(self):
        topo = self._topology(bw=100.0)
        job = mk_job(demand=10.0, data=5 * GB, data_site="x",
                     kind=JobKind.DATA_INTENSIVE)
        local = mk_site("y")
        peers = [snap("x"), snap("z")]
        assert schedule(job, local, peers, topo).chosen_site == "x"

    def test_unschedulable_when_no_site_fits(self):
        topo = self._topology()
        job = mk_job(procs=16, data_site="home")
        with pytest.raises(UnschedulableError):
            schedule(job, mk_site("home", nodes=4), [snap("a", nodes=8)], topo)

    def test_too_small_sites_are_skipped_not_fatal(self):
        topo = self._topology()
        job = mk_job(procs=8, data_site="home")
        decision = schedule(job, mk_site("home", nodes=4),
                            [snap("a", nodes=8)], topo)
        assert decision.chosen_site == "a"

    def test_cost_tie_breaks_by_backlog_then_id(self):
        topo = self._topology()
        job = mk_job(demand=0.0, data_site="home", kind=JobKind.COMPUTE_INTENSIVE)
        local = mk_site("home", backlog=10, service=1.0)
        # 2 jobs at rate 2 and 1 job at rate 1 wait equally long, so the
        # totals tie exactly and peer b wins on the shorter backlog.
        peer_a = snap("a", queue=2, service=2.0)
        peer_b = snap("b", queue=1, service=1.0)
        decision = schedule(job, local, [peer_a, peer_b], topo)
        totals = dict(decision.alternatives)
        assert totals["a"] == totals["b"] < totals["home"]
        assert decision.chosen_site == "b"
        # Equal totals and backlogs fall through to the lexical site id.
        twin_a = snap("a", queue=1, service=1.0)
        decision = schedule(job, local, [peer_b, twin_a], topo)
        assert dict(decision.alternatives)["a"] == totals["b"]
        assert decision.chosen_site == "a"

    def test_unreachable_data_site_raises(self):
        topo = Topology(links=[])
        job = mk_job(data=GB, data_site="far")
        with pytest.raises(UnreachableSiteError):
            schedule(job, mk_site("home"), [], topo)


class TestSnapshotAging:
    def test_queue_decays_with_service_rate(self):
        s = snap("a", queue=10, service=0.5, time=0.0)
        aged = s.as_of(10.0)
        assert aged.queue_length == pytest.approx(5.0)

    def test_queue_never_negative(self):
        s = snap("a", queue=3, service=2.0, time=0.0)
        assert s.as_of(100.0).queue_length == 0.0

    def test_zero_elapsed_is_identity(self):
        s = snap("a", queue=6, service=1.0, time=5.0)
        assert s.as_of(5.0).queue_length == pytest.approx(6.0)

    def test_sent_since_survives_aging(self):
        s = snap("a", queue=10, service=1.0, time=0.0)
        s.sent_since = 3
        assert s.as_of(4.0).backlog == pytest.approx(6.0 + 3)


class TestMigrateBatch:
    def _topology(self):
        return Topology(default_link=NetworkLink("*", "*", 1000.0))

    def test_exports_to_best_peer(self):
        # Local: 10 jobs ahead, expensive; peers a and b both shorter,
        # a cheaper than b.
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", backlog=10, service=0.1)
        peer_a = snap("a", power=2.0, queue=2, service=1.0)
        peer_b = snap("b", power=1.0, queue=2, service=1.0)
        assert migrate_batch(batch, local, 0, [peer_a, peer_b], topo) == "a"

    def test_stays_local_when_no_peer_strictly_better(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", service=1.0)
        worse = snap("a", power=0.5, queue=8, service=1.0)
        assert migrate_batch(batch, local, 0, [worse], topo) is None

    def test_better_queue_but_worse_cost_stays_local(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", backlog=2, service=1.0)
        slow = snap("a", power=0.01, queue=0, service=1.0)
        assert migrate_batch(batch, local, 2, [slow], topo) is None

    def test_exact_tie_goes_to_lexically_smaller_peer(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", backlog=10, service=0.1)
        twin_a = snap("a", power=2.0, queue=1, service=1.0)
        twin_b = snap("b", power=2.0, queue=1, service=1.0)
        assert migrate_batch(batch, local, 0, [twin_b, twin_a], topo) == "a"

    def test_undersized_peers_never_win(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, procs=4, data_site="home")]
        local = mk_site("home", nodes=4, backlog=10, service=0.1)
        tiny = snap("a", nodes=2, power=100.0, queue=0, service=10.0)
        assert migrate_batch(batch, local, 0, [tiny], topo) is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            migrate_batch([], mk_site("home"), 0, [], self._topology())

    def test_batch_cost_sums_unit_weight_totals(self):
        topo = self._topology()
        jobs = [mk_job(job_id=f"m{i}", demand=10.0, data_site="home")
                for i in range(3)]
        site = mk_site("a", power=2.0, service=1.0)
        expect = sum(
            total_cost(j, site, topo.link_between("home", "a"), UNIT_WEIGHTS)
            for j in jobs)
        assert batch_cost(jobs, site, topo) == pytest.approx(expect)
