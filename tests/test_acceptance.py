"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.  The final conservation check re-examines every
simulation run performed by the earlier criteria.
"""

import dataclasses
import random
import statistics
import time

import pytest

from dianasched.baselines import QueueDiscipline, SchedulerKind
from dianasched.cli import main
from dianasched.core import JobKind, NetworkLink, UserProfile
from dianasched.engine import run_scenario
from dianasched.queueing import MultilevelQueue, priority
from dianasched.report import apply_axis, run_sweep
from dianasched.scenario import (BurstDef, FaultDef, Scenario, SiteDef,
                                 parse_scenario)
from conftest import mk_job, mk_users, priorities, sjf_order
from test_queueing import scratch_priorities

SEED = 42

# Every simulation run performed below lands here for the final
# conservation criterion.
_RUNS = []


def _track(result):
    _RUNS.append(result)
    return result


def _report(criterion, ok, detail):
    print(f"\nAC{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"AC{criterion}: {detail}"


def test_ac1_priority_formula_randomized():
    rng = random.Random(SEED)
    started = time.monotonic()
    checked = 0
    for _ in range(10**5):
        q = rng.uniform(0.1, 10.0)
        big_q = q + rng.uniform(0.0, 20.0)
        t = rng.randint(1, 40)
        big_t = t + rng.randint(0, 200)
        n = rng.randint(1, 50)
        big_n = (q * big_t) / (big_q * t)
        pr = priority(n, big_n)
        assert -1.0 <= pr <= 1.0
        assert (pr >= 0) == (n <= big_n)
        assert priority(n + 1, big_n) <= pr
        assert priority(n, big_n * 1.5) >= pr
        checked += 1
    # Branch agreement where n lands exactly on the threshold.
    for n in range(1, 1001):
        assert abs(priority(n, float(n))) <= 1e-12
    elapsed = time.monotonic() - started
    _report(1, elapsed < 5.0, f"{checked} tuples in {elapsed:.2f}s")


def test_ac2_reprioritization_oracle():
    rng = random.Random(SEED)
    started = time.monotonic()
    for case in range(1000):
        n_users = rng.randint(1, 5)
        users = mk_users(**{f"u{i}": rng.uniform(0.5, 8.0)
                            for i in range(n_users)})
        queue = MultilevelQueue(users)
        live = []
        for op in range(rng.randint(1, 50)):
            if live and rng.random() < 0.3:
                victim = live.pop(rng.randrange(len(live)))
                queue.remove(victim)
            else:
                job = mk_job(job_id=f"c{case}-{op}",
                             user=f"u{rng.randrange(n_users)}",
                             procs=rng.randint(1, 8), submit=float(op))
                queue.enqueue(job)
                live.append(job)
        expect = scratch_priorities(users, list(queue.jobs.values()))
        assert priorities(queue) == pytest.approx(expect)
        # Same multiset in a shuffled arrival order: identical final order.
        shuffled = live[:]
        rng.shuffle(shuffled)
        other = MultilevelQueue(users)
        for job in shuffled:
            other.enqueue(job)
        assert [j.job_id for j in other.ordered()] == \
            [j.job_id for j in queue.ordered()]
    elapsed = time.monotonic() - started
    _report(2, elapsed < 30.0, f"1000 sequences in {elapsed:.1f}s")


def _congestion_scenario(thrs=0.3):
    # Site 1: one node serving 10 s jobs (0.2 jobs/s arriving vs 0.1
    # served, ratio 0.5 > thrs 0.3); site 2 idle.  The heavy user owns
    # three quarters of the jobs on a quarter of the quota.  A ratio
    # never exceeds 1, so thrs 1 turns export off.
    bursts = []
    for i in range(30):
        t = 5.0 * i
        bursts.append(BurstDef(time=t, user="alice", site="s1", count=3,
                               demand=10.0, procs=1, data=2e9, data_site="s1",
                               kind=JobKind.DATA_INTENSIVE))
        bursts.append(BurstDef(time=t, user="bob", site="s1", count=1,
                               demand=10.0, procs=1, data=2e9, data_site="s1",
                               kind=JobKind.DATA_INTENSIVE))
    return Scenario(sites=[SiteDef("s1", 1, 1.0), SiteDef("s2", 5, 1.0)],
                    default_link=NetworkLink("*", "*", 100.0),
                    users=[UserProfile("alice", 1.0), UserProfile("bob", 3.0)],
                    bursts=bursts, thrs=thrs)


def test_ac3_congestion_migration_efficacy():
    started = time.monotonic()
    with_migration = _track(run_scenario(_congestion_scenario(), seed=7))
    without = _track(run_scenario(_congestion_scenario(thrs=1.0), seed=7))
    ratio = (with_migration.summary()["mean_queue_time"]
             / without.summary()["mean_queue_time"])
    picks = [e for e in with_migration.trace if e["kind"] == "migration_pick"]
    cutoff_ok = bool(picks) and all(e["priority"] < 0.0 for e in picks)
    elapsed = time.monotonic() - started
    _report(3, ratio <= 0.7 and cutoff_ok and elapsed < 10.0,
            f"queue-time ratio {ratio:.3f}, {len(picks)} migrations all "
            f"below cutoff, {elapsed:.1f}s")


def test_ac4_diana_beats_round_robin_on_p1():
    started = time.monotonic()
    p1 = parse_scenario("preset P1\n")
    diana = _track(run_scenario(apply_axis(p1, "scheduler", "diana"), SEED))
    rr = _track(run_scenario(apply_axis(p1, "scheduler", "round_robin"), SEED))
    ds, rs = diana.summary(), rr.summary()
    assert diana.workload_hash == rr.workload_hash
    exec_ratio = ds["mean_exec_time"] / rs["mean_exec_time"]
    queue_ratio = ds["mean_queue_time"] / rs["mean_queue_time"]
    elapsed = time.monotonic() - started
    _report(4, exec_ratio <= 0.9 and queue_ratio <= 0.9 and elapsed < 60.0,
            f"exec ratio {exec_ratio:.3f}, queue ratio {queue_ratio:.3f}, "
            f"{elapsed:.1f}s at {ds['submitted']} jobs")


def test_ac5_queue_discipline_ordering_on_p2():
    totals = {}
    for label, sched, q in [
            ("priority", SchedulerKind.DIANA, QueueDiscipline.PRIORITY_MULTIQUEUE),
            ("sjf", SchedulerKind.ROUND_ROBIN, QueueDiscipline.SJF),
            ("fcfs", SchedulerKind.ROUND_ROBIN, QueueDiscipline.FCFS)]:
        scenario = dataclasses.replace(parse_scenario("preset P2\n"),
                                       scheduler=sched, queue=q)
        result = _track(run_scenario(scenario, seed=1))
        totals[label] = result.summary()["total_exec_time"]
    ordering_ok = (totals["priority"] <= totals["sjf"] * 1.01
                   and totals["sjf"] <= totals["fcfs"] * 1.01)

    # Shortest-first is exactly optimal for mean wait on any sequential
    # subinstance of up to 8 jobs.
    from itertools import permutations
    rng = random.Random(SEED)
    optimal_ok = True
    for _ in range(20):
        jobs = [mk_job(job_id=f"o{i}", procs=rng.randint(1, 9))
                for i in range(rng.randint(2, 8))]

        def mean_wait(order):
            clock, acc = 0.0, 0.0
            for j in order:
                acc += clock
                clock += j.processors_required
            return acc / len(order)

        best = min(mean_wait(p) for p in permutations(jobs))
        if mean_wait(sjf_order(jobs)) != best:
            optimal_ok = False
    _report(5, ordering_ok and optimal_ok,
            f"totals priority={totals['priority']:.0f} <= sjf="
            f"{totals['sjf']:.0f} <= fcfs={totals['fcfs']:.0f}; "
            f"sjf exhaustive-optimal {optimal_ok}")


def test_ac6_bandwidth_sweep_on_p3():
    started = time.monotonic()
    bandwidths = ["10", "50", "100", "500", "1000"]
    results = run_sweep(parse_scenario("preset P3\n"), "bandwidth", bandwidths, seed=1)
    for r in results:
        _track(r)
    execs = [r.summary()["mean_exec_time"] for r in results]
    decreasing = all(a > b for a, b in zip(execs, execs[1:]))
    slow = results[0].summary()["mean_transfer_time"]
    fast = results[-1].summary()["mean_transfer_time"]
    transfer_ok = (abs(slow - 8000.0) / 8000.0 <= 1e-6
                   and abs(fast - 80.0) / 80.0 <= 1e-6)
    # Transfer time is recoverable from the per-job records too.
    for rec in results[-1].records():
        assert rec.started - rec.submit_time - rec.queue_time == \
            pytest.approx(rec.transfer_total)
    elapsed = time.monotonic() - started
    _report(6, decreasing and transfer_ok and elapsed < 30.0,
            f"mean exec {['%.0f' % e for e in execs]}, transfers "
            f"{slow:.6f}/{fast:.6f}s, {elapsed:.1f}s")


def test_ac7_message_scalability_on_p4():
    started = time.monotonic()
    site_counts = [5, 10, 20, 40]
    per_job = {}
    for sched in ("flop_greedy", "diana"):
        base = apply_axis(parse_scenario("preset P4\n"), "scheduler", sched)
        vals = []
        for n in site_counts:
            result = _track(run_scenario(apply_axis(base, "sites", str(n)),
                                         seed=1))
            vals.append(result.summary()["messages_per_job"])
        per_job[sched] = vals
    x, y = [float(n) for n in site_counts], per_job["flop_greedy"]
    slope, intercept = statistics.linear_regression(x, y)
    mean = statistics.fmean(y)
    ss_res = sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = sum((yi - mean) ** 2 for yi in y)
    r_squared = 1.0 - ss_res / ss_tot
    diana_factor = max(per_job["diana"]) / per_job["diana"][0]
    elapsed = time.monotonic() - started
    _report(7, r_squared >= 0.99 and diana_factor <= 2.0 and elapsed < 120.0,
            f"flop-greedy fit R^2={r_squared:.5f}, diana factor "
            f"{diana_factor:.2f} over {per_job['diana']}, {elapsed:.1f}s")


def test_ac8_discovery_crash_and_revival():
    crash_at, revive_at = 10.0, 200.0
    bursts = [BurstDef(time=5.0 * i, user="u1", site="s1", count=3,
                       demand=8.0, procs=1, data=0.0, data_site="s1",
                       kind=JobKind.COMPUTE_INTENSIVE) for i in range(60)]
    scenario = Scenario(
        sites=[SiteDef("s1", 2, 1.0), SiteDef("s2", 2, 1.0),
               SiteDef("s3", 2, 1.0)],
        default_link=NetworkLink("*", "*", 1000.0),
        users=[UserProfile("u1", 1.0)], bursts=bursts, poll_interval=5.0,
        faults=[FaultDef("crash", "s2", crash_at),
                FaultDef("register", "s2", revive_at)])
    result = _track(run_scenario(scenario, seed=3))
    removed = [e for e in result.trace if e["kind"] == "peer_removed"]
    registered = [e for e in result.trace if e["kind"] == "peer_registered"]
    assert [e["site"] for e in removed] == ["s2"]
    assert [e["site"] for e in registered] == ["s2"]
    removal_time = removed[0]["t"]
    detection_ok = removal_time <= crash_at + scenario.echo_interval
    exports = [e for e in result.trace if e["kind"] in ("place", "migrate")]
    to_removed = [e for e in exports if e["dest"] == "s2"
                  and removal_time <= e["t"] < revive_at]
    after_revival = [e for e in exports
                     if e["dest"] == "s2" and e["t"] >= revive_at]
    _report(8, detection_ok and not to_removed and after_revival,
            f"removed at t={removal_time:.0f}, {len(to_removed)} exports "
            f"while dead, {len(after_revival)} after re-registration")


def test_ac9_cli_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(
        "site s1 nodes=2 power=1.0\n"
        "site s2 nodes=3 power=1.0\n"
        "default_link bandwidth=500\n"
        "user u quota=2\n"
        "burst time=0 user=u site=s1 count=8 demand=2:11 procs=1"
        " data=1e9 data_site=s1 kind=mixed\n"
        "burst time=10 user=u site=s1 count=4 demand=5 procs=2"
        " data_site=s1\n")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["run", "--scenario", str(scenario_path),
                     "--seed", str(SEED), "--out", str(out)])
        assert code == 0
        outputs.append(out)
    jobs_same = ((outputs[0] / "jobs.csv").read_bytes()
                 == (outputs[1] / "jobs.csv").read_bytes())
    summary_same = ((outputs[0] / "summary.csv").read_bytes()
                    == (outputs[1] / "summary.csv").read_bytes())
    _report(9, jobs_same and summary_same,
            "jobs.csv and summary.csv byte-identical across reruns")


def test_ac10_conservation_across_suite():
    assert _RUNS, "earlier criteria must run first"
    balanced = 0
    for result in _RUNS:
        s = result.summary()
        assert s["submitted"] == (s["completed"] + s["failed_unreachable"]
                                  + s["rejected_unschedulable"] + s["pending"])
        assert s["pending"] == 0
        allocated_at = {}
        for e in result.trace:
            if e["kind"] == "allocate":
                allocated_at[e["job"]] = e["t"]
            elif e["kind"] == "migrate":
                assert e["job"] not in allocated_at, \
                    f"job {e['job']} migrated after allocation"
        balanced += 1
    _report(10, True,
            f"{balanced} runs balanced, zero post-allocation migrations")
