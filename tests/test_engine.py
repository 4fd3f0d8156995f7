"""End-to-end simulator behavior on small hand-traceable scenarios."""

import dataclasses
import heapq
import json
import re
from array import array
from pathlib import Path

import pytest

from dianasched.baselines import QueueDiscipline, SchedulerKind
from dianasched.engine import (EVENT_FIELDS, NO_SITE, EventKind, JobStatus,
                               Simulation, SimulationError, generate_workload,
                               run_scenario, workload_hash)
from dianasched.queueing import MultilevelQueue
from dianasched.scenario import (BurstDef, FaultDef, Scenario, SiteDef,
                                 parse_scenario)
from dianasched.core import JobKind, NetworkLink, UserProfile
from test_acceptance import _congestion_scenario

GB = 10**9


def burst(time=0.0, user="u1", site="s1", count=1, demand=3.0, procs=1,
          data=0.0, data_site="s1", kind=JobKind.COMPUTE_INTENSIVE,
          per_site=False):
    return BurstDef(time=time, user=user, site=site, count=count,
                    demand=demand, procs=procs, data=data,
                    data_site=data_site, kind=kind, per_site=per_site)


def one_site_scenario(bursts, nodes=1, queue=QueueDiscipline.FCFS, **kw):
    return Scenario(scheduler=SchedulerKind.DIANA, queue=queue,
                    sites=[SiteDef("s1", nodes, 1.0)],
                    default_link=NetworkLink("*", "*", 1000.0),
                    users=[UserProfile("u1", 1.0)], bursts=bursts, **kw)


class TestBasics:
    def test_empty_workload(self):
        result = run_scenario(one_site_scenario([]), seed=1)
        assert result.jobs == {}
        assert result.messages == 0
        summary = result.summary()
        assert summary["makespan"] == 0.0
        assert summary["mean_utilization"] == 0.0

    def test_single_job_completes_at_service_time(self):
        result = run_scenario(one_site_scenario([burst(demand=3.0)]), seed=1)
        rec = result.records()[0]
        assert rec.status is JobStatus.COMPLETED
        assert rec.started == 0.0
        assert rec.completed == pytest.approx(3.0)
        assert rec.exec_time == pytest.approx(3.0)
        assert rec.queue_time == pytest.approx(0.0)

    def test_two_jobs_serialize_on_one_node(self):
        result = run_scenario(one_site_scenario([burst(count=2, demand=3.0)]),
                              seed=1)
        done = sorted(r.completed for r in result.records())
        assert done == pytest.approx([3.0, 6.0])

    def test_head_of_line_blocking_no_backfill(self):
        bursts = [burst(time=0.0, demand=10.0, procs=1),
                  burst(time=1.0, demand=25.0, procs=5),
                  burst(time=2.0, demand=1.0, procs=1)]
        result = run_scenario(one_site_scenario(bursts, nodes=5), seed=1)
        a, b, c = result.records()
        assert a.started == 0.0
        assert b.started == pytest.approx(10.0)  # waits for the full site
        assert c.started == pytest.approx(15.0)  # blocked behind the wide job

    def test_oversized_job_rejected(self):
        result = run_scenario(one_site_scenario([burst(procs=99)]), seed=1)
        rec = result.records()[0]
        assert rec.status is JobStatus.REJECTED_UNSCHEDULABLE


class TestTransfers:
    def _two_site(self, bandwidth):
        # The storage site owns the data but is too small to run the job,
        # so staging over the link is unavoidable.
        return Scenario(
            sites=[SiteDef("store", 1, 0.001), SiteDef("c1", 4, 1.0)],
            default_link=NetworkLink("*", "*", bandwidth),
            users=[UserProfile("u1", 1.0)],
            bursts=[burst(site="c1", demand=5.0, procs=2, data=10 * GB,
                          data_site="store", kind=JobKind.DATA_INTENSIVE)])

    def test_gigabit_staging_delays_start_by_80s(self):
        rec = run_scenario(self._two_site(1000.0), seed=1).records()[0]
        assert rec.exec_site == "c1"
        assert rec.transfer_total == pytest.approx(80.0)
        assert rec.started == pytest.approx(80.0)
        assert rec.queue_time == pytest.approx(0.0)

    def test_slow_link_staging_takes_8000s(self):
        rec = run_scenario(self._two_site(10.0), seed=1).records()[0]
        assert rec.transfer_total == pytest.approx(8000.0)

    def test_fcfs_is_arrival_order_at_the_site(self):
        # Job a is submitted before job b, but its input lands 80 s later,
        # after b has queued behind the long job that holds the site.
        bursts = [burst(site="c1", demand=2000.0, procs=2, data_site="c1"),
                  burst(site="c1", demand=2.0, procs=2, data=10 * GB,
                        data_site="store", kind=JobKind.DATA_INTENSIVE),
                  burst(time=1.0, site="c1", demand=2.0, procs=2,
                        data_site="c1")]
        s = Scenario(queue=QueueDiscipline.FCFS,
                     sites=[SiteDef("store", 1, 1.0), SiteDef("c1", 2, 1.0)],
                     default_link=NetworkLink("*", "*", 1000.0),
                     users=[UserProfile("u1", 1.0)], bursts=bursts)
        hold, a, b = run_scenario(s, seed=1).records()
        assert hold.completed == pytest.approx(1000.0)
        assert a.submit_time < b.submit_time
        assert b.started == pytest.approx(1000.0)
        assert a.started == pytest.approx(1001.0)

    def test_colocated_data_starts_immediately(self):
        result = run_scenario(one_site_scenario(
            [burst(demand=2.0, data=10 * GB, data_site="s1")]), seed=1)
        rec = result.records()[0]
        assert rec.transfer_total == 0.0
        assert rec.started == 0.0


class TestWorkloadGeneration:
    def test_job_ids_sequential(self):
        s = one_site_scenario([burst(count=3), burst(time=5.0, count=2)])
        ids = [j.job_id for j in generate_workload(s, 0).values()]
        assert ids == ["j00001", "j00002", "j00003", "j00004", "j00005"]

    def test_point_demand_is_exact(self):
        s = one_site_scenario([burst(count=2, demand=7.5)])
        assert all(j.compute_demand == 7.5
                   for j in generate_workload(s, 3).values())

    def test_range_demand_seeded(self):
        s = one_site_scenario([BurstDef(
            time=0.0, user="u1", site="s1", count=5, demand=(5.0, 30.0),
            procs=1, data=0.0, data_site="s1", kind=JobKind.MIXED)])
        a = [j.compute_demand for j in generate_workload(s, 1).values()]
        b = [j.compute_demand for j in generate_workload(s, 1).values()]
        c = [j.compute_demand for j in generate_workload(s, 2).values()]
        assert a == b
        assert a != c
        assert all(5.0 <= d <= 30.0 for d in a)

    def test_per_site_burst_scales_with_site_count(self):
        s = Scenario(sites=[SiteDef(f"s{i}", 1, 1.0) for i in range(1, 4)],
                     default_link=NetworkLink("*", "*", 1000.0),
                     users=[UserProfile("u1", 1.0)],
                     bursts=[burst(count=2, per_site=True)])
        assert len(generate_workload(s, 0)) == 6

    def test_workload_hash_tracks_content(self):
        s = one_site_scenario([BurstDef(
            time=0.0, user="u1", site="s1", count=5, demand=(5.0, 30.0),
            procs=1, data=0.0, data_site="s1", kind=JobKind.MIXED)])
        assert workload_hash(generate_workload(s, 1).values()) == \
            workload_hash(generate_workload(s, 1).values())
        assert workload_hash(generate_workload(s, 1).values()) != \
            workload_hash(generate_workload(s, 2).values())


class TestDeterminism:
    def _scenario(self):
        bursts = [BurstDef(time=5.0 * i, user="u1", site="s1", count=3,
                           demand=(2.0, 12.0), procs=1, data=0.0,
                           data_site="s1", kind=JobKind.COMPUTE_INTENSIVE)
                  for i in range(10)]
        return Scenario(sites=[SiteDef("s1", 2, 1.0), SiteDef("s2", 2, 1.0)],
                        default_link=NetworkLink("*", "*", 1000.0),
                        users=[UserProfile("u1", 1.0)], bursts=bursts)

    def test_same_seed_identical_outcome(self):
        r1 = run_scenario(self._scenario(), seed=7)
        r2 = run_scenario(self._scenario(), seed=7)
        assert r1.summary() == r2.summary()
        assert [(r.job_id, r.started, r.completed, r.exec_site)
                for r in r1.records()] == \
               [(r.job_id, r.started, r.completed, r.exec_site)
                for r in r2.records()]

    def test_trace_is_reproducible(self):
        assert run_scenario(self._scenario(), seed=7).trace == \
            run_scenario(self._scenario(), seed=7).trace


class TestSchedulers:
    def _multi_site(self, scheduler, queue=QueueDiscipline.FCFS):
        bursts = [burst(count=10, demand=4.0)]
        return Scenario(scheduler=scheduler, queue=queue,
                        sites=[SiteDef(f"s{i}", 2, 1.0) for i in range(1, 4)],
                        default_link=NetworkLink("*", "*", 1000.0),
                        users=[UserProfile("u1", 1.0)], bursts=bursts)

    def test_round_robin_spreads_evenly(self):
        result = run_scenario(self._multi_site(SchedulerKind.ROUND_ROBIN),
                              seed=0)
        per_site = {}
        for rec in result.records():
            per_site[rec.exec_site] = per_site.get(rec.exec_site, 0) + 1
        assert per_site == {"s1": 4, "s2": 3, "s3": 3}

    def test_flop_greedy_message_count(self):
        result = run_scenario(self._multi_site(SchedulerKind.FLOP_GREEDY),
                              seed=0)
        # Two messages per site per placement decision, plus echo traffic.
        assert result.messages >= 2 * 3 * 10

    @pytest.mark.parametrize("weights, where", [
        ("", "s2"), ("weights compute_intensive 0 1 1\n", "s1")])
    def test_weights_line_changes_placement(self, weights, where):
        # The presets send a compute-intensive job from slow s1, its data
        # site, to ten-times-faster s2; weights that ignore compute keep
        # it beside its data.
        text = ("site s1 nodes=1 power=1\nsite s2 nodes=1 power=10\n"
                "link s1 s2 bandwidth=100\nuser u quota=1\nthrs 1\n"
                + weights + "burst time=0 user=u site=s1 count=1 demand=100 "
                "procs=1 data=1e6 data_site=s1 kind=compute_intensive\n")
        [job] = run_scenario(parse_scenario(text), seed=0).records()
        assert job.exec_site == where

    def test_diana_poll_is_rate_limited(self):
        result = run_scenario(self._multi_site(
            SchedulerKind.DIANA, QueueDiscipline.PRIORITY_MULTIQUEUE), seed=0)
        polls = [e for e in result.trace if e["kind"] == "poll"]
        # One poll covers the whole burst; 10 jobs never trigger 10 polls.
        assert 1 <= len(polls) < 10


class TestFaults:
    def _crash_scenario(self, revive_at=None):
        faults = [FaultDef("crash", "s1", 1.0)]
        if revive_at is not None:
            faults.append(FaultDef("register", "s1", revive_at))
        return Scenario(
            sites=[SiteDef("s1", 1, 1.0), SiteDef("s2", 1, 1.0)],
            default_link=NetworkLink("*", "*", 1000.0),
            users=[UserProfile("u1", 1.0)],
            bursts=[burst(time=2.0, demand=3.0)],
            faults=faults)

    def test_job_parked_while_site_crashed(self):
        result = run_scenario(self._crash_scenario(), seed=0)
        rec = result.records()[0]
        assert rec.status is JobStatus.PENDING
        assert rec.started is None

    def test_revival_releases_parked_jobs(self):
        result = run_scenario(self._crash_scenario(revive_at=50.0), seed=0)
        rec = result.records()[0]
        assert rec.status is JobStatus.COMPLETED
        assert rec.started >= 50.0

    def test_crash_traced(self):
        trace = run_scenario(self._crash_scenario(revive_at=50.0), seed=0).trace
        kinds = [e["kind"] for e in trace]
        assert "crash" in kinds
        assert "peer_registered" in kinds


class TestTrace:
    """The dict view of the stored events, on kinds the goldens never emit."""

    TRACE_DOC = (Path(__file__).resolve().parent.parent / "docs"
                 / "trace-format.md")

    def _unlinked(self, scheduler):
        # No link at all: a job whose data sits at s1 can run only at s1,
        # which has one node.
        return Scenario(scheduler=scheduler, queue=QueueDiscipline.FCFS,
                        sites=[SiteDef("s1", 1, 1.0), SiteDef("s2", 2, 1.0)],
                        users=[UserProfile("u1", 1.0)],
                        bursts=[burst(procs=2), burst(time=1.0, procs=9)])

    @pytest.mark.parametrize("scheduler,failed", [
        # Placement scores no candidate the data can reach: no dest.
        (SchedulerKind.DIANA, {"t": 0.0, "kind": "failed_unreachable",
                               "job": "j00001"}),
        # Round robin picks s2, then staging the data there fails.
        (SchedulerKind.ROUND_ROBIN, {"t": 0.0, "kind": "failed_unreachable",
                                     "job": "j00001", "dest": "s2"})])
    def test_terminal_events(self, scheduler, failed):
        trace = run_scenario(self._unlinked(scheduler), seed=0).trace
        terminal = [e for e in trace if e["kind"] in (
            "completed", "failed_unreachable", "rejected_unschedulable")]
        assert terminal == [failed, {"t": 1.0, "kind": "rejected_unschedulable",
                                     "job": "j00002"}]
        assert list(terminal[0]) == list(failed)  # key order too
        assert all(type(e["kind"]) is str for e in trace)

    @pytest.mark.parametrize("scheduler,kinds,times,refs", [
        # No reachable candidate: NO_SITE holds the dest's place in
        # `refs`, and the view leaves it out.  The poll stores s1's index
        # and its one peer.
        (SchedulerKind.DIANA,
         [EventKind.SUBMIT, EventKind.POLL, EventKind.FAILED_UNREACHABLE,
          EventKind.SUBMIT, EventKind.REJECTED_UNSCHEDULABLE],
         [0.0, 0.0, 0.0, 1.0, 1.0], [0, 0, 1, NO_SITE, 0]),
        (SchedulerKind.ROUND_ROBIN,
         [EventKind.SUBMIT, EventKind.FAILED_UNREACHABLE, EventKind.SUBMIT,
          EventKind.REJECTED_UNSCHEDULABLE],
         [0.0, 0.0, 1.0, 1.0], [0, 1, 0])], ids=["diana", "round_robin"])
    def test_events_decode_the_stored_columns(self, scheduler, kinds, times,
                                              refs):
        result = run_scenario(self._unlinked(scheduler), seed=0)
        log = result.log
        assert log.sites == ["s1", "s2"]
        assert log.times == array("d", times)
        assert log.kinds == bytearray(list(EventKind).index(k) for k in kinds)
        assert log.jobs == ["j00001", "j00001", "j00002", "j00002"]
        assert log.refs == array("I", refs)
        assert log.nums == array("d")
        assert [(e["t"], e["kind"]) for e in result.trace] == \
            [(t, k.value) for t, k in zip(times, kinds)]

    # The goldens' traces record ten of the 14 kinds.  Each case below is
    # a small run whose whole trace records one of the other four,
    # written out: `json.dumps` pins key order and each value's type.
    def _stay_local(self):
        # s2 is too small for the jobs, so congested s1 keeps its batch.
        return Scenario(sites=[SiteDef("s1", 2, 1.0), SiteDef("s2", 1, 1.0)],
                        default_link=NetworkLink("*", "*", 1000.0),
                        users=[UserProfile("u1", 1.0)], migration_cutoff=1.0,
                        bursts=[burst(count=3, demand=20.0, procs=2)])

    def _deregistered(self):
        # The poll after the fault no longer finds s2.
        return Scenario(sites=[SiteDef("s1", 1, 1.0), SiteDef("s2", 1, 1.0)],
                        default_link=NetworkLink("*", "*", 1000.0),
                        users=[UserProfile("u1", 1.0)],
                        faults=[FaultDef("deregister", "s2", 1.0)],
                        bursts=[burst(), burst(time=31.0)])

    def _unlinked_diana(self):
        return self._unlinked(SchedulerKind.DIANA)

    def _unlinked_round_robin(self):
        return self._unlinked(SchedulerKind.ROUND_ROBIN)

    def _oversized(self):
        return one_site_scenario([burst(procs=2)])

    @pytest.mark.parametrize("kind,case,expected", [
        ("migration_stay_local", "_stay_local", [
            {"t": 0.0, "kind": "submit", "job": "j00001", "site": "s1"},
            {"t": 0.0, "kind": "poll", "site": "s1", "peers": 1},
            {"t": 0.0, "kind": "place", "job": "j00001", "dest": "s1",
             "transfer": 0.0},
            {"t": 0.0, "kind": "submit", "job": "j00002", "site": "s1"},
            {"t": 0.0, "kind": "place", "job": "j00002", "dest": "s1",
             "transfer": 0.0},
            {"t": 0.0, "kind": "submit", "job": "j00003", "site": "s1"},
            {"t": 0.0, "kind": "place", "job": "j00003", "dest": "s1",
             "transfer": 0.0},
            {"t": 0.0, "kind": "allocate", "job": "j00001", "site": "s1",
             "duration": 10.0},
            {"t": 10.0, "kind": "poll", "site": "s1", "peers": 1},
            {"t": 10.0, "kind": "migration_stay_local", "site": "s1",
             "batch": 2, "ratio": 1.0},
            {"t": 10.0, "kind": "completed", "job": "j00001", "site": "s1"},
            {"t": 10.0, "kind": "allocate", "job": "j00002", "site": "s1",
             "duration": 10.0},
            {"t": 20.0, "kind": "poll", "site": "s1", "peers": 1},
            {"t": 20.0, "kind": "migration_stay_local", "site": "s1",
             "batch": 1, "ratio": 0.5833333333333333},
            {"t": 20.0, "kind": "completed", "job": "j00002", "site": "s1"},
            {"t": 20.0, "kind": "allocate", "job": "j00003", "site": "s1",
             "duration": 10.0},
            {"t": 30.0, "kind": "completed", "job": "j00003", "site": "s1"}]),
        ("peer_deregistered", "_deregistered", [
            {"t": 0.0, "kind": "submit", "job": "j00001", "site": "s1"},
            {"t": 0.0, "kind": "poll", "site": "s1", "peers": 1},
            {"t": 0.0, "kind": "place", "job": "j00001", "dest": "s1",
             "transfer": 0.0},
            {"t": 0.0, "kind": "allocate", "job": "j00001", "site": "s1",
             "duration": 3.0},
            {"t": 1.0, "kind": "peer_deregistered", "site": "s2"},
            {"t": 3.0, "kind": "completed", "job": "j00001", "site": "s1"},
            {"t": 31.0, "kind": "submit", "job": "j00002", "site": "s1"},
            {"t": 31.0, "kind": "poll", "site": "s1", "peers": 0},
            {"t": 31.0, "kind": "place", "job": "j00002", "dest": "s1",
             "transfer": 0.0},
            {"t": 31.0, "kind": "allocate", "job": "j00002", "site": "s1",
             "duration": 3.0},
            {"t": 34.0, "kind": "completed", "job": "j00002", "site": "s1"}]),
        # No candidate the data can reach: no dest.
        ("failed_unreachable", "_unlinked_diana", [
            {"t": 0.0, "kind": "submit", "job": "j00001", "site": "s1"},
            {"t": 0.0, "kind": "poll", "site": "s1", "peers": 1},
            {"t": 0.0, "kind": "failed_unreachable", "job": "j00001"},
            {"t": 1.0, "kind": "submit", "job": "j00002", "site": "s1"},
            {"t": 1.0, "kind": "rejected_unschedulable", "job": "j00002"}]),
        # Round robin picks s2, then staging the data there fails.
        ("failed_unreachable", "_unlinked_round_robin", [
            {"t": 0.0, "kind": "submit", "job": "j00001", "site": "s1"},
            {"t": 0.0, "kind": "failed_unreachable", "job": "j00001",
             "dest": "s2"},
            {"t": 1.0, "kind": "submit", "job": "j00002", "site": "s1"},
            {"t": 1.0, "kind": "rejected_unschedulable", "job": "j00002"}]),
        ("rejected_unschedulable", "_oversized", [
            {"t": 0.0, "kind": "submit", "job": "j00001", "site": "s1"},
            {"t": 0.0, "kind": "rejected_unschedulable", "job": "j00001"}])])
    def test_whole_trace_of_a_kind_no_golden_records(self, kind, case,
                                                     expected):
        trace = run_scenario(getattr(self, case)(), seed=0).trace
        assert kind in {e["kind"] for e in trace}
        assert trace == expected
        assert json.dumps(trace) == json.dumps(expected)

    def test_t_is_a_float_even_for_int_times(self):
        trace = run_scenario(one_site_scenario(
            [burst(time=1, demand=2)], faults=[FaultDef("crash", "s1", 5)]),
            seed=0).trace
        assert [e["t"] for e in trace] == [1.0, 1.0, 1.0, 1.0, 3.0, 5.0, 60.0]
        assert all(type(e["t"]) is float for e in trace)

    def test_view_is_rebuilt_from_the_stored_events(self):
        result = run_scenario(self._unlinked(SchedulerKind.DIANA), seed=0)
        first = result.trace
        first[0]["kind"] = "edited"
        assert result.trace[0]["kind"] == "submit"
        assert result.trace[1:] == first[1:]

    def test_docs_list_every_kind_with_its_fields(self):
        rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", self.TRACE_DOC.read_text(),
                          re.MULTILINE)
        documented = {kind: tuple(re.findall(r"`(\w+)`", fields))
                      for kind, fields in rows}
        assert documented == {k.value: f for k, f in EVENT_FIELDS.items()}
        assert set(EVENT_FIELDS) == set(EventKind)


class TestSubmissionStream:
    """Submissions stream past the event heap in submit-time order; at
    equal times each runs before every other event."""

    def test_submission_beside_a_crash_is_placed_not_parked(self):
        s = one_site_scenario([burst(time=1.0)],
                              faults=[FaultDef("crash", "s1", 1.0)])
        sim = Simulation(s, seed=0)
        result = sim.run()
        kinds = [e["kind"] for e in result.trace if e["kind"] != "poll"]
        assert kinds[:3] == ["submit", "place", "crash"]
        site = sim.sites["s1"]
        assert site.parked == []
        assert list(site.queue.jobs) == ["j00001"]  # arrived after the crash

    def test_submission_runs_before_a_completion_at_its_time(self):
        s = one_site_scenario([burst(demand=3.0), burst(time=3.0)])
        result = run_scenario(s, seed=0)
        at_three = [(e["kind"], e["job"]) for e in result.trace
                    if e["t"] == 3.0 and e["kind"] in ("submit", "completed")]
        assert at_three == [("submit", "j00002"), ("completed", "j00001")]

    def test_cap_between_bursts_leaves_later_jobs_pending(self):
        s = one_site_scenario([burst(count=2), burst(time=50.0, count=2)],
                              duration_cap=20.0)
        result = run_scenario(s, seed=0)
        assert [r.status for r in result.records()] == [
            JobStatus.COMPLETED, JobStatus.COMPLETED,
            JobStatus.PENDING, JobStatus.PENDING]
        assert [e["job"] for e in result.trace
                if e["kind"] == "submit"] == ["j00001", "j00002"]


class TestRateEstimators:
    @pytest.mark.parametrize("scheduler,updated", [
        (SchedulerKind.ROUND_ROBIN, False), (SchedulerKind.FLOP_GREEDY, False),
        (SchedulerKind.DIANA, True)])
    def test_only_diana_updates_the_estimators(self, scheduler, updated):
        # Only DIANA's polls, costs and congestion check read the rates,
        # so the rate tick updates them under DIANA alone.  The tick
        # still runs under every scheduler: its idle count ends the run,
        # and with it sets mean_utilization, which the goldens pin.
        s = dataclasses.replace(parse_scenario("preset P1\n"),
                                scheduler=scheduler, queue=QueueDiscipline.FCFS)
        sim = Simulation(s, seed=42)
        assert sim.run().count(JobStatus.COMPLETED) == 1000
        rates = [value for site in sim.sites.values()
                 for value in (site.arrival_rate, site.service_rate)]
        assert any(rates) is updated

    # Two one-node sites that never export (thrs 1); s2 is down from 25
    # to 45, across the ticks at 30 and 40.  j00006 completes on s2 at 27
    # and j00008 is submitted there at 32.5, both while it is down.  No
    # submit or completion falls on a tick, and j00011 is still running
    # at every cap, so a tick runs every 10 s up to the cap.
    RATES_TEXT = """\
site s1 nodes=1 power=1
site s2 nodes=1 power=1
default_link bandwidth=1000
user a quota=1
thrs 1
alpha 0.25
rate_interval 10
fault crash s2 25
fault register s2 45
burst time=1.5 user=a site=s1 count=3 demand=2.5 procs=1 data_site=s1
burst time=3.5 user=a site=s2 count=2 demand=4.25 procs=1 data_site=s2
burst time=21.5 user=a site=s2 count=2 demand=5.5 procs=1 data_site=s2
burst time=32.5 user=a site=s2 count=1 demand=1.25 procs=1 data_site=s2
burst time=41.5 user=a site=s1 count=2 demand=2.75 procs=1 data_site=s1
burst time=51.5 user=a site=s1 count=1 demand=100 procs=1 data_site=s1
"""

    def test_rates_are_the_ewma_of_each_window(self):
        # Each tick, per site, rate <- alpha*(count/window) + (1-alpha)*rate,
        # counting the window's submits at the submit site for the arrival
        # rate and its completions at the executing site for the service
        # rate.  A site that is down at a tick keeps its rates and drops
        # the window's counts.
        alpha, window = 0.25, 10.0
        down_rates = set()
        for cap in (15, 25, 35, 45, 55, 65):
            sim = Simulation(parse_scenario(self.RATES_TEXT
                                            + f"duration_cap {cap}\n"), seed=1)
            trace = sim.run().trace
            ticks = [window * k for k in range(1, cap // 10 + 1)]
            assert not [e for e in trace if e["t"] in ticks
                        and e["kind"] in ("submit", "completed")]
            for sid, site in sim.sites.items():
                arrival = service = 0.0
                for tick in ticks:
                    faults = [e["kind"] for e in trace if e.get("site") == sid
                              and e["kind"] in ("crash", "peer_registered")
                              and e["t"] < tick]
                    if faults and faults[-1] == "crash":
                        continue

                    def count(kind):
                        return sum(1 for e in trace if e["kind"] == kind
                                   and e["site"] == sid
                                   and tick - window < e["t"] < tick)

                    arrival = (alpha * (count("submit") / window)
                               + (1 - alpha) * arrival)
                    service = (alpha * (count("completed") / window)
                               + (1 - alpha) * service)
                assert (site.arrival_rate, site.service_rate) == (
                    arrival, service), (cap, sid)
            if cap in (25, 35, 45):
                down_rates.add((sim.sites["s2"].arrival_rate,
                                sim.sites["s2"].service_rate))
        # s2's rates, nonzero, hold from its last tick before the crash
        # until it is back, though it had a completion and a submit then.
        assert len(down_rates) == 1 and all(down_rates.pop())
        assert {(e["t"], e["kind"]) for e in trace if e.get("site") == "s2"
                and 25 < e["t"] < 45} == {(27.0, "completed"), (32.5, "submit")}


class TestAllocationIsFinal:
    def test_no_migration_after_allocation(self):
        # Congested first site with a second site joining later; whatever
        # migrates must do so before being handed to the local manager.
        bursts = [BurstDef(time=float(t), user="a", site="s1", count=3,
                          demand=10.0, procs=1, data=0.0, data_site="s1",
                          kind=JobKind.COMPUTE_INTENSIVE)
                  for t in range(0, 100, 5)]
        s = Scenario(
            sites=[SiteDef("s1", 1, 1.0), SiteDef("s2", 5, 2.0)],
            default_link=NetworkLink("*", "*", 1000.0),
            users=[UserProfile("a", 1.0), UserProfile("b", 3.0)],
            bursts=bursts + [burst(time=0.0, user="b", demand=10.0)],
            thrs=0.1)
        result = run_scenario(s, seed=0)
        allocated_at = {}
        for e in result.trace:
            if e["kind"] == "allocate":
                allocated_at[e["job"]] = e["t"]
            if e["kind"] == "migrate":
                assert e["job"] not in allocated_at
        assert any(e["kind"] == "migrate" for e in result.trace)


class TestMigrationGate:
    def test_only_the_priority_queue_exports(self):
        # The congested scenario of AC3 exports under the priority queue
        # but never under FCFS, even though the diana scheduler runs both.
        exported = run_scenario(_congestion_scenario(), seed=7)
        assert any(e["kind"] == "migration_pick" for e in exported.trace)
        fcfs = dataclasses.replace(_congestion_scenario(),
                                   queue=QueueDiscipline.FCFS)
        result = run_scenario(fcfs, seed=7)
        assert not any(e["kind"].startswith("migrat") for e in result.trace)
        assert all(r.migrations == 0 for r in result.records())

    def test_thrs_one_turns_export_off(self):
        # The ratio (a - s) / a never exceeds 1 and the test is strict, so
        # the congested site of AC3 keeps every job under thrs 1.
        result = run_scenario(_congestion_scenario(thrs=1.0), seed=7)
        assert not any(e["kind"].startswith("migrat") for e in result.trace)
        assert all(r.migrations == 0 for r in result.records())


class TestSummary:
    def test_conservation_of_jobs(self):
        result = run_scenario(one_site_scenario(
            [burst(count=4), burst(time=1.0, procs=99)]), seed=0)
        s = result.summary()
        assert s["submitted"] == (s["completed"] + s["failed_unreachable"]
                                  + s["rejected_unschedulable"] + s["pending"])
        assert s["pending"] == 0

    def test_mean_metrics(self):
        result = run_scenario(one_site_scenario([burst(count=2, demand=4.0)]),
                              seed=0)
        s = result.summary()
        assert s["mean_exec_time"] == pytest.approx(6.0)  # (4 + 8) / 2
        assert s["mean_queue_time"] == pytest.approx(2.0)
        assert s["makespan"] == pytest.approx(8.0)


class TestInvariants:
    @pytest.mark.parametrize("time", [4.0, float("nan")])
    def test_event_in_the_past_is_a_typed_error(self, time):
        sim = Simulation(one_site_scenario([]), seed=1)
        sim.now = 5.0
        with pytest.raises(SimulationError, match="in the past"):
            sim._at(time, lambda: None)

    def test_infinite_event_time_is_a_typed_error(self):
        sim = Simulation(one_site_scenario([]), seed=1)
        with pytest.raises(SimulationError, match="event time inf is not finite"):
            sim._at(float("inf"), lambda: None)

    def test_allocation_reads_only_the_queue_head(self, monkeypatch):
        # Every engine call of `ordered` asks for the head alone, so queue
        # work per allocation does not grow with queue length.
        sizes = []
        ordered = MultilevelQueue.ordered

        def counting(self, *args, **kwargs):
            out = ordered(self, *args, **kwargs)
            sizes.append(len(out))
            return out

        monkeypatch.setattr(MultilevelQueue, "ordered", counting)
        result = run_scenario(parse_scenario("preset P1\n"), seed=42)
        assert result.count(JobStatus.COMPLETED) == len(result.jobs)
        assert sizes and max(sizes) == 1

    def test_queue_head_builds_no_merge(self, monkeypatch):
        # The head is the least class head; only full views and export
        # picks merge the class lists.  P2 queues 100 jobs of four
        # classes on one site, and flop_greedy with sjf never exports.
        merges, depths = [], []
        merge = heapq.merge
        ordered = MultilevelQueue.ordered

        def counting_merge(*args, **kwargs):
            merges.append(1)
            return merge(*args, **kwargs)

        def counting_ordered(self, *args, **kwargs):
            depths.append(len(self._classes))
            return ordered(self, *args, **kwargs)

        monkeypatch.setattr(heapq, "merge", counting_merge)
        monkeypatch.setattr(MultilevelQueue, "ordered", counting_ordered)
        s = dataclasses.replace(parse_scenario("preset P2\n"),
                                scheduler=SchedulerKind.FLOP_GREEDY,
                                queue=QueueDiscipline.SJF)
        result = run_scenario(s, seed=42)
        assert result.count(JobStatus.COMPLETED) == len(result.jobs) == 100
        assert len(depths) >= 100 and max(depths) == 4
        assert merges == []


class TestSiteRecord:
    def test_backlog_is_running_plus_queued(self):
        # The cost model reads SiteRuntime.backlog for the local site, and
        # polls report it for peers; check it after every event of a run
        # that queues, allocates and exports.
        sim = Simulation(_congestion_scenario(), seed=7)
        backlogs = []

        def checked(fn):
            def step(*args):
                fn(*args)
                for sid, site in sim.sites.items():
                    running = sum(1 for r in sim.jobs.values()
                                  if r.status is JobStatus.RUNNING
                                  and r.exec_site == sid)
                    assert site.running == running
                    assert site.backlog == running + len(site.queue.jobs)
                    backlogs.append(site.backlog)
            return step

        schedule_event = sim._at
        sim._at = lambda time, fn, *args: schedule_event(time, checked(fn), *args)
        sim._on_submit = checked(sim._on_submit)  # submissions skip _at
        result = sim.run()
        assert any(r.migrations for r in result.records())
        assert max(backlogs) > 10
