"""Site selection and bulk-migration decision logic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dianasched.core import (JobKind, NetworkLink, Topology,
                             UnreachableSiteError)
from dianasched.costs import CostWeights, PRESET_WEIGHTS, UNIT_WEIGHTS, total_cost
from dianasched.scheduler import (PeerSnapshot, SchedulingDecision,
                                  UnschedulableError, batch_cost,
                                  migrate_batch, schedule)
from conftest import (aged_copy, mk_job, mk_site, reference_migrate_batch,
                      reference_schedule, reference_total_cost)

GB = 10**9


def snap(site_id, nodes=5, power=1.0, queue=0, service=0.0, time=0.0,
         ahead=0):
    return PeerSnapshot(site_id=site_id, node_count=nodes, node_power=power,
                        queue_length=queue, service_rate=service,
                        snapshot_time=time, jobs_ahead=ahead)


class TestClassify:
    """`schedule` scores a job with its declared kind's weights."""

    def _assert_scored_with(self, job, expected, weights=PRESET_WEIGHTS):
        topo = Topology(default_link=NetworkLink("*", "*", 100.0, 1.0))
        local, peer = mk_site("home"), snap("far")
        decision = schedule(job, local, [peer], 0.0, topo, weights=weights)
        assert dict(decision.alternatives) == {
            cand.site_id: reference_total_cost(
                job, aged_copy(cand, 0.0),
                topo.link_between(job.data_site, cand.site_id), expected)
            for cand in (local, peer)}

    def test_kind_selects_preset(self):
        for kind in JobKind:
            job = mk_job(kind=kind, data=GB, data_site="home")
            self._assert_scored_with(job, PRESET_WEIGHTS[kind])

    def test_tag_overrides_actual_data_size(self):
        # A data-intensive job with no data still uses the data preset.
        job = mk_job(kind=JobKind.DATA_INTENSIVE, data=0.0, data_site="home")
        self._assert_scored_with(job, PRESET_WEIGHTS[JobKind.DATA_INTENSIVE])

    def test_explicit_overrides_win(self):
        override = CostWeights(2, 0, 0)
        weights = {**PRESET_WEIGHTS, JobKind.MIXED: override}
        job = mk_job(kind=JobKind.MIXED, data=GB, data_site="home")
        self._assert_scored_with(job, override, weights)


class TestSchedule:
    def _topology(self, bw=1000.0):
        return Topology(default_link=NetworkLink("*", "*", bw))

    def test_no_peers_stays_local(self):
        topo = self._topology()
        decision = schedule(mk_job(data_site="home"), mk_site("home"), [], 0.0,
                            topo)
        assert decision.chosen_site == "home"

    def test_picks_global_cost_minimum(self):
        # Local costs 83 s, peer A 40 s, peer B 90 s.
        topo = self._topology()
        job = mk_job(demand=80.0, data_site="home", kind=JobKind.MIXED)
        local = mk_site("home", nodes=1, power=1.0)  # 80 + no network
        peer_a = snap("a", nodes=1, power=80 / 39)   # 39 + network 1 = 40
        peer_b = snap("b", nodes=1, power=80 / 89)   # 89 + network 1 = 90
        decision = schedule(job, local, [peer_a, peer_b], 0.0, topo)
        assert decision.chosen_site == "a"
        assert decision.alternatives[0][0] == "a"
        assert decision.alternatives[0][1] == pytest.approx(40.0)
        # Agreement with a brute-force scan over the same candidates,
        # scored by the reference formulas in conftest.
        weights = PRESET_WEIGHTS[job.kind]
        totals = {}
        for cand in (local, peer_a, peer_b):
            link = topo.link_between(job.data_site, cand.site_id)
            totals[cand.site_id] = reference_total_cost(
                job, aged_copy(cand, 0.0), link, weights)
        assert decision.chosen_site == min(sorted(totals), key=totals.get)

    def test_data_gravity_pulls_data_intensive_jobs(self):
        topo = self._topology(bw=100.0)
        job = mk_job(demand=10.0, data=5 * GB, data_site="x",
                     kind=JobKind.DATA_INTENSIVE)
        local = mk_site("y")
        peers = [snap("x"), snap("z")]
        assert schedule(job, local, peers, 0.0, topo).chosen_site == "x"

    def test_unschedulable_when_no_site_fits(self):
        topo = self._topology()
        job = mk_job(procs=16, data_site="home")
        with pytest.raises(UnschedulableError):
            schedule(job, mk_site("home", nodes=4), [snap("a", nodes=8)],
                     0.0, topo)

    def test_too_small_sites_are_skipped_not_fatal(self):
        topo = self._topology()
        job = mk_job(procs=8, data_site="home")
        decision = schedule(job, mk_site("home", nodes=4),
                            [snap("a", nodes=8)], 0.0, topo)
        assert decision.chosen_site == "a"

    def test_cost_tie_breaks_by_backlog_then_id(self):
        topo = self._topology()
        job = mk_job(demand=0.0, data_site="home", kind=JobKind.COMPUTE_INTENSIVE)
        local = mk_site("home", backlog=10, service=1.0)
        # 2 jobs at rate 2 and 1 job at rate 1 wait equally long, so the
        # totals tie exactly and peer b wins on the shorter backlog.
        peer_a = snap("a", queue=2, service=2.0)
        peer_b = snap("b", queue=1, service=1.0)
        decision = schedule(job, local, [peer_a, peer_b], 0.0, topo)
        totals = dict(decision.alternatives)
        assert totals["a"] == totals["b"] < totals["home"]
        assert decision.chosen_site == "b"
        # Equal totals and backlogs fall through to the lexical site id.
        twin_a = snap("a", queue=1, service=1.0)
        decision = schedule(job, local, [peer_b, twin_a], 0.0, topo)
        assert dict(decision.alternatives)["a"] == totals["b"]
        assert decision.chosen_site == "a"

    def test_unreachable_data_site_raises(self):
        topo = Topology(links=[])
        job = mk_job(data=GB, data_site="far")
        with pytest.raises(UnreachableSiteError):
            schedule(job, mk_site("home"), [], 0.0, topo)


class TestSnapshotAging:
    def test_queue_decays_with_service_rate(self):
        s = snap("a", queue=10, service=0.5, time=0.0)
        assert s.as_of(10.0) == pytest.approx(5.0)

    def test_queue_never_negative(self):
        s = snap("a", queue=3, service=2.0, time=0.0)
        assert s.as_of(100.0) == 0.0

    def test_zero_elapsed_is_identity(self):
        s = snap("a", queue=6, service=1.0, time=5.0)
        assert s.as_of(5.0) == pytest.approx(6.0)

    def test_sent_since_survives_aging(self):
        s = snap("a", queue=10, service=1.0, time=0.0)
        s.sent_since = 3
        # An empty co-located job costs exactly its wait: the backlog
        # (aged queue plus jobs sent since) over the service rate.
        job = mk_job(demand=0.0, data_site="a",
                     kind=JobKind.COMPUTE_INTENSIVE)
        topo = Topology(default_link=NetworkLink("*", "*", 1000.0))
        decision = schedule(job, mk_site("home", nodes=1, power=1.0), [s],
                            4.0, topo)
        assert dict(decision.alternatives)["a"] == pytest.approx(6.0 + 3)
        # Aging reads the snapshot without changing it.
        assert (s.queue_length, s.sent_since) == (10, 3)


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
        assert migrate_batch(batch, local, 0, [peer_a, peer_b], 0.0, topo) == "a"

    def test_stays_local_when_no_peer_strictly_better(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", service=1.0)
        worse = snap("a", power=0.5, queue=8, service=1.0)
        assert migrate_batch(batch, local, 0, [worse], 0.0, topo) is None

    def test_better_queue_but_worse_cost_stays_local(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", backlog=2, service=1.0)
        slow = snap("a", power=0.01, queue=0, service=1.0)
        assert migrate_batch(batch, local, 2, [slow], 0.0, topo) is None

    def test_exact_tie_goes_to_lexically_smaller_peer(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, data_site="home")]
        local = mk_site("home", backlog=10, service=0.1)
        twin_a = snap("a", power=2.0, queue=1, service=1.0)
        twin_b = snap("b", power=2.0, queue=1, service=1.0)
        assert migrate_batch(batch, local, 0, [twin_b, twin_a], 0.0, topo) == "a"

    def test_undersized_peers_never_win(self):
        topo = self._topology()
        batch = [mk_job(job_id="m1", demand=10.0, procs=4, data_site="home")]
        local = mk_site("home", nodes=4, backlog=10, service=0.1)
        tiny = snap("a", nodes=2, power=100.0, queue=0, service=10.0)
        assert migrate_batch(batch, local, 0, [tiny], 0.0, topo) is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            migrate_batch([], mk_site("home"), 0, [], 0.0, self._topology())

    def test_batch_cost_sums_unit_weight_totals(self):
        topo = self._topology()
        jobs = [mk_job(job_id=f"m{i}", demand=10.0, data_site="home")
                for i in range(3)]
        site = mk_site("a", power=2.0, service=1.0)
        expect = sum(
            total_cost(j, site, site.backlog, topo.link_between("home", "a"),
                       UNIT_WEIGHTS)
            for j in jobs)
        assert batch_cost(jobs, site, site.backlog, topo) == pytest.approx(expect)


# -- agreement with the reference formulas ------------------------------

PEER_IDS = ["a", "b", "c", "d", "e"]
RATES = st.sampled_from([0.0, 0.1, 0.7, 1.0, 3.0]) | st.floats(0, 5)
TIMES = st.floats(0, 100)


def _positive(lo, hi):
    return st.floats(lo, hi, allow_subnormal=False)


@st.composite
def placement_case(draw):
    """Random peers, links, weights and jobs around a local site `home`."""
    ids = draw(st.lists(st.sampled_from(PEER_IDS), unique=True, max_size=5))
    peers = [PeerSnapshot(site_id=i, node_count=draw(st.integers(1, 8)),
                          node_power=draw(_positive(0.1, 10)),
                          queue_length=draw(st.integers(0, 30)),
                          service_rate=draw(RATES),
                          snapshot_time=draw(TIMES),
                          jobs_ahead=draw(st.integers(0, 10)),
                          sent_since=draw(st.integers(0, 5)))
             for i in ids]
    local = mk_site("home", nodes=draw(st.integers(1, 8)),
                    power=draw(_positive(0.1, 10)),
                    backlog=draw(st.integers(0, 30)), service=draw(RATES))

    def link(a, b):
        return NetworkLink(a, b, draw(_positive(1, 2000)),
                           latency=draw(st.floats(0, 2)),
                           background_load=draw(st.floats(0, 0.9)))

    # "far" holds data but runs nothing; without a default link some
    # candidates are unreachable.
    names = ["home", "far"] + ids
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    default = link("*", "*") if draw(st.integers(0, 3)) else None
    topology = Topology([link(a, b) for a, b in chosen], default)

    def job(job_id):
        return mk_job(job_id=job_id, user="u1",
                      demand=draw(st.just(0.0) | _positive(0.1, 100)),
                      procs=draw(st.integers(1, 6)),
                      data=draw(st.just(0.0) | st.floats(1, 1e10)),
                      # Home weighted double: a batch queues there.
                      data_site=draw(st.sampled_from(["home"] + names)),
                      kind=draw(st.sampled_from(list(JobKind))))

    w = [draw(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0, 2))
         for _ in range(3)]
    if sum(w) <= 0:
        w[0] = 1.0
    overrides = draw(st.none() | st.just({kind: CostWeights(*w)
                                          for kind in JobKind}))
    return dict(local=local, peers=peers, topology=topology,
                shuffled=draw(st.permutations(peers)),
                now=draw(TIMES), b_ref=draw(_positive(1, 2000)),
                overrides=overrides, job=job("j0"),
                batch=[job(f"m{i}") for i in range(draw(st.integers(1, 4)))],
                local_ahead=draw(st.integers(0, 20)))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (UnschedulableError, UnreachableSiteError) as exc:
        return type(exc)


class TestAgainstReference:
    """schedule and migrate_batch agree exactly with conftest's reference:
    one function per cost term, peers aged into copies sorted by id."""

    @settings(max_examples=200, deadline=None)
    @given(placement_case())
    def test_schedule_matches_reference(self, case):
        got = _outcome(schedule, case["job"], case["local"], case["shuffled"],
                       case["now"], case["topology"], b_ref=case["b_ref"],
                       weights={**PRESET_WEIGHTS, **(case["overrides"] or {})})
        want = _outcome(reference_schedule, case["job"], case["local"],
                        case["peers"], case["now"], case["topology"],
                        b_ref=case["b_ref"],
                        weight_overrides=case["overrides"])
        if isinstance(got, SchedulingDecision):
            got = (got.chosen_site, got.alternatives)
        assert got == want

    @settings(max_examples=200, deadline=None)
    @given(placement_case())
    def test_migrate_batch_matches_reference(self, case):
        args = (case["batch"], case["local"], case["local_ahead"])
        rest = (case["now"], case["topology"], case["b_ref"])
        got = _outcome(migrate_batch, *args, case["shuffled"], *rest)
        want = _outcome(reference_migrate_batch, *args, case["peers"], *rest)
        assert got == want
