"""Deterministic discrete-event simulator.

Single-threaded event loop over (time, seq)-ordered events.  Job
submissions, known before the run, stream past the event heap in
(submit time, workload) order, and at equal times each one runs before
any other event; only faults, ticks, arrivals and completions go on the
heap.  All randomness comes from one seeded generator used only during
workload expansion, so identical (scenario, seed) pairs produce
bit-identical results.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from array import array
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from .baselines import QueueDiscipline, SchedulerKind, flop_schedule, rr_schedule
from .core import (Job, JobKind, JobStatus, Topology, UnreachableSiteError,
                   UserProfile)
from .costs import PRESET_WEIGHTS, transfer_cost
from .discovery import PeerRegistry
from .queueing import MultilevelQueue, congestion_ratio, is_congested
from .scenario import Scenario, SiteDef
from .scheduler import PeerSnapshot, UnschedulableError, migrate_batch, schedule

# Stop tick rescheduling after this many consecutive ticks without any job
# progress; prevents a crashed-and-never-revived site from spinning the
# clock forever.
MAX_IDLE_TICKS = 2000


class SimulationError(RuntimeError):
    """An engine invariant does not hold; the run cannot continue."""


class EventKind(str, Enum):
    """The kinds of event a run records: a job's lifecycle, then the
    sites' polls, exports and faults.

    `EVENT_FIELDS` names each kind's fields; docs/trace-format.md gives
    their meaning and units.
    """

    SUBMIT = "submit"
    PLACE = "place"
    MIGRATE = "migrate"
    ALLOCATE = "allocate"
    COMPLETED = "completed"
    FAILED_UNREACHABLE = "failed_unreachable"
    REJECTED_UNSCHEDULABLE = "rejected_unschedulable"
    POLL = "poll"
    MIGRATION_PICK = "migration_pick"
    MIGRATION_STAY_LOCAL = "migration_stay_local"
    PEER_REMOVED = "peer_removed"
    CRASH = "crash"
    PEER_DEREGISTERED = "peer_deregistered"
    PEER_REGISTERED = "peer_registered"


# The field names of each kind, in the order the trace gives them and
# `EventLog` stores them.  A failed_unreachable event carries `dest` only when the
# job's data could not be staged to its chosen site; when no site was
# reachable at all the log holds NO_SITE there, which `RunResult.trace`
# drops.
EVENT_FIELDS: Dict[EventKind, Tuple[str, ...]] = {
    EventKind.SUBMIT: ("job", "site"),
    EventKind.PLACE: ("job", "dest", "transfer"),
    EventKind.MIGRATE: ("job", "dest", "transfer"),
    EventKind.ALLOCATE: ("job", "site", "duration"),
    EventKind.COMPLETED: ("job", "site"),
    EventKind.FAILED_UNREACHABLE: ("job", "dest"),
    EventKind.REJECTED_UNSCHEDULABLE: ("job",),
    EventKind.POLL: ("site", "peers"),
    EventKind.MIGRATION_PICK: ("job", "source", "dest", "priority", "ratio"),
    EventKind.MIGRATION_STAY_LOCAL: ("site", "batch", "ratio"),
    EventKind.PEER_REMOVED: ("site",),
    EventKind.CRASH: ("site",),
    EventKind.PEER_DEREGISTERED: ("site",),
    EventKind.PEER_REGISTERED: ("site",),
}

# The `EventLog` column that holds each field's values.  `site`, `dest`
# and `source` are site indices, `peers` and `batch` counts.
_COLUMN = {"job": "jobs", "site": "refs", "dest": "refs", "source": "refs",
           "peers": "refs", "batch": "refs", "transfer": "nums",
           "duration": "nums", "priority": "nums", "ratio": "nums"}
_SITE_FIELDS = frozenset({"site", "dest", "source"})
_KIND_CODE = {kind: code for code, kind in enumerate(EventKind)}

# The `refs` entry of a failed_unreachable's missing `dest`.
NO_SITE = 0xFFFFFFFF


class EventLog:
    """A run's events, stored by column, with no object per event.

    Event i happened at `times[i]` and is of kind
    `list(EventKind)[kinds[i]]`.  Its values, in `EVENT_FIELDS` order,
    each take the next entry of their field's column (`_COLUMN`): `jobs`
    holds the job ids the jobs already hold, `refs` the site indices
    into `sites` and the counts, and `nums` the other numbers.
    """

    __slots__ = ("sites", "times", "kinds", "jobs", "refs", "nums")

    def __init__(self, sites: List[str]):
        self.sites = sites  # site ids by index
        self.times = array("d")
        self.kinds = bytearray()
        self.jobs: List[str] = []
        self.refs = array("I")
        self.nums = array("d")

    def record(self, t: float, kind: EventKind, job: Optional[str],
               ref: Optional[int] = None, num: Optional[float] = None,
               ref2: Optional[int] = None,
               num2: Optional[float] = None) -> None:
        """Append one event, its values already split by column: its
        `refs` values are `ref` and then `ref2`, its `nums` values `num`
        and then `num2`, each in `EVENT_FIELDS` order.  The values a
        kind lacks stay None.  Single values, not tuples, keep this
        cheap: it runs several times per job."""
        self.times.append(t)
        self.kinds.append(_KIND_CODE[kind])
        if job is not None:
            self.jobs.append(job)
        if ref is not None:
            self.refs.append(ref)
            if ref2 is not None:
                self.refs.append(ref2)
        if num is not None:
            self.nums.append(num)
            if num2 is not None:
                self.nums.append(num2)

    def decode(self) -> List[dict]:
        """The events as the dicts `RunResult.trace` returns."""
        columns = {"jobs": iter(self.jobs), "refs": iter(self.refs),
                   "nums": iter(self.nums)}
        plans = [(kind.value, [(name, columns[_COLUMN[name]],
                                name in _SITE_FIELDS)
                               for name in EVENT_FIELDS[kind]])
                 for kind in EventKind]
        sites = self.sites
        out = []
        for t, code in zip(self.times, self.kinds):
            kind, plan = plans[code]
            entry = {"t": t, "kind": kind}
            for name, column, is_site in plan:
                value = next(column)
                if is_site:
                    if value == NO_SITE:
                        continue
                    value = sites[value]
                entry[name] = value
            out.append(entry)
        return out


# The event each terminal status records, under the status's own name.
_TERMINAL_EVENT = {status: EventKind(status.value) for status in (
    JobStatus.COMPLETED, JobStatus.FAILED_UNREACHABLE,
    JobStatus.REJECTED_UNSCHEDULABLE)}


class SiteRuntime:
    """The one mutable record of a site during a run.

    The cost model reads it directly as the local candidate: it has the
    site_id, node_count, node_power, service_rate and backlog that a
    PeerSnapshot reports for a peer.  Under DIANA, the only reader, each
    rate tick folds the window counts into arrival_rate and service_rate,
    then clears them.  Under the baselines the windows count every job
    and nothing reads them: clearing them there slows a run.
    """

    def __init__(self, sdef: SiteDef, index: int, scenario: Scenario,
                 users: Dict[str, UserProfile]):
        self.site_id = sdef.site_id
        self.index = index  # in Simulation.site_order, the log's site table
        self.node_count = sdef.nodes
        self.node_power = sdef.power  # MFLOPS per node
        self.queue = MultilevelQueue(users, scenario.queue)
        self.running = 0  # jobs handed to the local resource manager
        self.idle_nodes = sdef.nodes
        self.crashed = False
        self.parked: List[Job] = []  # submitted while crashed
        self.snapshots: Dict[str, PeerSnapshot] = {}
        self.last_poll: Optional[float] = None
        self.arrivals_window = 0  # submits since the last rate tick
        self.completions_window = 0
        self.arrival_rate = 0.0  # jobs/s, smoothed over the rate ticks
        self.service_rate = 0.0
        self.busy_node_seconds = 0.0

    @property
    def backlog(self) -> int:
        """Jobs at this site: running plus queued."""
        return self.running + len(self.queue)


def generate_workload(scenario: Scenario, seed: int) -> Dict[str, Job]:
    """Expand the scenario's bursts into their jobs, by id in declaration
    order.

    Deterministic under the seed.  Job ids are `j` plus the job's
    declaration index, zero-padded to five digits.  Queues break ties
    between same-time jobs of one class on the id as text, so up to
    99,999 jobs that is declaration order; past it, `j100000` sorts
    before `j99999`.
    """
    rng = random.Random(seed)
    site_count = scenario.resolved_site_count()
    jobs: Dict[str, Job] = {}
    counter = 0
    for burst in scenario.bursts:
        count = burst.count * (site_count if burst.per_site else 1)
        demand = burst.demand
        lo, hi = demand if isinstance(demand, tuple) else (demand, demand)
        for _ in range(count):
            counter += 1
            job_id = f"j{counter:05d}"
            jobs[job_id] = Job(job_id, burst.user,
                               lo if lo == hi else rng.uniform(lo, hi),
                               burst.procs, burst.data, burst.data_site,
                               burst.time, burst.kind, burst.site)
    return jobs


def workload_hash(jobs: Iterable[Job]) -> str:
    """The first 16 hex digits of a SHA-256 over one line per job: its
    spec fields and submit site."""
    h = hashlib.sha256()
    # A lookup per job instead of a call to Enum's `value` descriptor.
    kind_text = {kind: kind.value for kind in JobKind}
    for job in jobs:
        h.update(f"{job.job_id}|{job.user_id}|{job.compute_demand!r}|"
                 f"{job.processors_required}|{job.data_size!r}|{job.data_site}|"
                 f"{job.submit_time!r}|{kind_text[job.kind]}|{job.submit_site}\n".encode())
    return h.hexdigest()[:16]


@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    jobs: Dict[str, Job]  # in workload order
    log: EventLog
    messages: int
    utilization: Dict[str, float]
    workload_hash: str

    @property
    def trace(self) -> List[dict]:
        """The events as dicts: `t`, `kind` (a plain str), then the
        kind's fields.  Decoded from the log's columns anew on each read;
        see docs/trace-format.md.
        """
        return self.log.decode()

    def records(self) -> List[Job]:
        return list(self.jobs.values())

    def count(self, status: JobStatus) -> int:
        return sum(1 for r in self.jobs.values() if r.status is status)

    def summary(self) -> Dict[str, object]:
        done = [r for r in self.jobs.values() if r.status is JobStatus.COMPLETED]
        n = len(done)
        total_exec = sum(r.exec_time for r in done)
        total_queue = sum(r.queue_time for r in done)
        total_transfer = sum(r.transfer_total for r in done)
        submitted = len(self.jobs)
        mean_util = sum(self.utilization.values()) / len(self.utilization)
        out = {
            "scheduler": self.scenario.scheduler.value,
            "queue": self.scenario.queue.value,
            "seed": self.seed,
            "submitted": submitted,
            "completed": n,
            "failed_unreachable": self.count(JobStatus.FAILED_UNREACHABLE),
            "rejected_unschedulable": self.count(JobStatus.REJECTED_UNSCHEDULABLE),
            "pending": sum(1 for r in self.jobs.values()
                           if r.status in (JobStatus.PENDING, JobStatus.RUNNING)),
            "mean_exec_time": total_exec / n if n else 0.0,
            "total_exec_time": total_exec,
            "mean_queue_time": total_queue / n if n else 0.0,
            "total_queue_time": total_queue,
            "mean_transfer_time": total_transfer / n if n else 0.0,
            "message_count": self.messages,
            "messages_per_job": self.messages / submitted if submitted else 0.0,
            "makespan": max((r.completed for r in done), default=0.0),
            "mean_utilization": mean_util,
            "workload_hash": self.workload_hash,
        }
        # Event times are finite (`Simulation._at`), but sums and products
        # of them can still overflow.
        for key, value in out.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SimulationError(f"run's {key} is not finite: {value!r}")
        return out


class Simulation:
    """One deterministic run of a scenario under a seed."""

    def __init__(self, scenario: Scenario, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.now = 0.0
        self._seq = 0
        self._heap: List[tuple] = []
        self.messages = 0
        self.users = {u.user_id: u for u in scenario.users}
        # Each job kind's cost weights: the presets, then the overrides.
        self.weights = {**PRESET_WEIGHTS, **scenario.weights}
        sdefs = scenario.resolved_sites()
        # For rate ticks, Round Robin and the log's site indices.
        self.site_order = sorted(sdef.site_id for sdef in sdefs)
        index = {sid: i for i, sid in enumerate(self.site_order)}
        self.sites: Dict[str, SiteRuntime] = {
            sdef.site_id: SiteRuntime(sdef, index[sdef.site_id], scenario,
                                      self.users)
            for sdef in sdefs}
        self.log = EventLog(self.site_order)
        self.max_nodes = max(s.node_count for s in self.sites.values())
        self.topology = Topology(scenario.links, scenario.default_link)
        self.registry = PeerRegistry(scenario.echo_retries)
        for sid in self.sites:
            self.registry.register(sid)
        self.jobs = generate_workload(scenario, seed)
        self.workload_digest = workload_hash(self.jobs.values())
        self.pending = len(self.jobs)
        self.rr_cursor = 0
        self._idle_ticks = 0
        self._ran = False

    # -- event machinery ----------------------------------------------

    def _at(self, time: float, fn, *args) -> None:
        if not self.now - 1e-12 <= time < math.inf:  # also rejects NaN
            if time == math.inf:
                raise SimulationError(
                    f"event time {time!r} is not finite (now {self.now!r})")
            raise SimulationError(
                f"event scheduled in the past: {time!r} < now {self.now!r}")
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def run(self) -> RunResult:
        if self._ran:
            raise RuntimeError("Simulation instances are single-use")
        self._ran = True
        for fault in self.scenario.faults:
            self._at(fault.time, self._on_fault, fault)
        if self.jobs:
            self._at(self.scenario.rate_interval, self._on_rate_tick)
            self._at(self.scenario.echo_interval, self._on_echo_tick)
        # Submissions stream past the heap in (submit time, workload)
        # order; BurstDef has checked that their times are finite and
        # >= 0.  One is taken whenever its time is not after the heap
        # top's, so at equal times it runs before every other event, as
        # if it had been scheduled before them.
        submits = sorted(self.jobs.values(), key=attrgetter("submit_time"))
        on_submit = self._on_submit
        heap = self._heap
        pop = heapq.heappop
        cap = self.scenario.duration_cap
        i, end = 0, len(submits)
        while True:
            if i < end and (
                    not heap or submits[i].submit_time <= heap[0][0]):
                job = submits[i]
                i += 1
                time, fn, args = job.submit_time, on_submit, (job,)
            elif heap:
                time, _, fn, args = pop(heap)
            else:
                break
            if cap > 0 and time > cap:
                break
            if not time >= self.now - 1e-12:
                raise SimulationError(
                    f"event at {time!r} popped after now {self.now!r}")
            if time > self.now:
                self.now = time
            fn(*args)
        util = {}
        horizon = self.now
        for sid, site in self.sites.items():
            cap_seconds = site.node_count * horizon
            util[sid] = site.busy_node_seconds / cap_seconds if cap_seconds else 0.0
        return RunResult(scenario=self.scenario, seed=self.seed,
                         jobs=self.jobs, log=self.log,
                         messages=self.messages, utilization=util,
                         workload_hash=self.workload_digest)

    # -- job lifecycle -------------------------------------------------

    def _terminal(self, job: Job, status: JobStatus,
                  ref: Optional[int] = None) -> None:
        job.status = status
        self.pending -= 1
        self._idle_ticks = 0
        self.log.record(self.now, _TERMINAL_EVENT[status], job.job_id, ref)

    def _on_submit(self, job: Job) -> None:
        self._idle_ticks = 0
        site = self.sites[job.submit_site]
        site.arrivals_window += 1
        self.log.record(self.now, EventKind.SUBMIT, job.job_id, site.index)
        if site.crashed:
            site.parked.append(job)
            return
        self._place(job)

    def _place(self, job: Job) -> None:
        site = self.sites[job.submit_site]
        kind = self.scenario.scheduler
        if job.processors_required > self.max_nodes:
            self._terminal(job, JobStatus.REJECTED_UNSCHEDULABLE)
            return
        if kind is SchedulerKind.ROUND_ROBIN:
            chosen = None
            for _ in range(len(self.site_order)):
                cand, self.rr_cursor = rr_schedule(self.site_order,
                                                   self.rr_cursor)
                if job.processors_required <= self.sites[cand].node_count:
                    chosen = cand
                    break
            if chosen is None:
                raise SimulationError(
                    f"round robin found no site for job {job.job_id}")
        elif kind is SchedulerKind.FLOP_GREEDY:
            # Polls every site for its current idle capacity, every job.
            self.messages += 2 * len(self.sites)
            fits = [s for s in self.sites.values()
                    if job.processors_required <= s.node_count]
            chosen = flop_schedule(fits)
        else:
            peers = self._poll(site)
            try:
                decision = schedule(job, site, peers, self.now, self.topology,
                                    b_ref=self.scenario.b_ref,
                                    weights=self.weights)
            except UnschedulableError:
                self._terminal(job, JobStatus.REJECTED_UNSCHEDULABLE)
                return
            except UnreachableSiteError:
                self._terminal(job, JobStatus.FAILED_UNREACHABLE, NO_SITE)
                return
            chosen = decision.chosen_site
            if chosen != site.site_id:
                site.snapshots[chosen].sent_since += 1
        job.scheduled = self.now
        self._send(job, chosen, migration=False)

    def _send(self, job: Job, dest: str, migration: bool) -> None:
        """Move a job (and stage its data) to `dest`, then enqueue it there."""
        delay = 0.0
        ref = self.sites[dest].index
        if job.data_site != dest:
            try:
                link = self.topology.link_between(job.data_site, dest)
            except UnreachableSiteError:
                self._terminal(job, JobStatus.FAILED_UNREACHABLE, ref)
                return
            delay = transfer_cost(job, link)
            job.transfer_total += delay
        self.log.record(self.now,
                        EventKind.MIGRATE if migration else EventKind.PLACE,
                        job.job_id, ref, delay)
        self._at(self.now + delay, self._on_arrival, job, dest)

    def _on_arrival(self, job: Job, dest: str) -> None:
        self._idle_ticks = 0
        site = self.sites[dest]
        site.queue.enqueue(job)
        self._try_allocate(site)

    def _try_allocate(self, site: SiteRuntime) -> None:
        if site.crashed:
            return
        while len(site.queue):
            job = site.queue.ordered(1)[0]
            if job.processors_required > site.idle_nodes:
                break  # head-of-line blocking, no backfilling
            site.queue.remove(job)
            job.started = self.now
            job.exec_site = site.site_id
            job.status = JobStatus.RUNNING
            site.idle_nodes -= job.processors_required
            site.running += 1
            duration = (job.compute_demand /
                        (site.node_power * job.processors_required)
                        if job.compute_demand else 0.0)
            self.log.record(self.now, EventKind.ALLOCATE, job.job_id,
                            site.index, duration)
            self._at(self.now + duration, self._on_complete, job, duration)

    def _on_complete(self, job: Job, duration: float) -> None:
        site = self.sites[job.exec_site]
        job.completed = self.now
        site.idle_nodes += job.processors_required
        site.running -= 1
        site.completions_window += 1
        site.busy_node_seconds += duration * job.processors_required
        self._terminal(job, JobStatus.COMPLETED, site.index)
        self._try_allocate(site)

    # -- peer communication --------------------------------------------

    def _poll(self, site: SiteRuntime,
              reference_priority: Optional[float] = None) -> List[PeerSnapshot]:
        """Poll discovery and every alive peer when due, then return the
        fresh snapshots of the peers the registry still considers alive.

        Polling is demand-driven: it only happens from placement and
        export, never per job.  A placement poll goes out at most once
        per `poll_interval`; an export probe, which carries the batch's
        reference priority for the peers' `jobs_ahead`, always goes out.
        The view leaves out snapshots older than twice the interval.  It
        comes in poll order; `schedule` and `migrate_batch` rank
        candidates by keys that end in the site id, so order never
        decides.
        """
        now = self.now
        interval = self.scenario.poll_interval
        if (reference_priority is not None or site.last_poll is None
                or now - site.last_poll >= interval):
            site.last_poll = now
            self.messages += 2  # discovery request/reply
            alive = self.registry.list_peers(site.site_id)
            for sid in list(site.snapshots):
                if sid not in alive:
                    del site.snapshots[sid]
            for sid in alive:
                peer = self.sites[sid]
                if peer.crashed:
                    self.messages += 1  # request sent, no reply
                    continue
                self.messages += 2
                ahead = 0
                if reference_priority is not None:
                    ahead = peer.queue.jobs_ahead(reference_priority)
                site.snapshots[sid] = PeerSnapshot(
                    site_id=sid, node_count=peer.node_count,
                    node_power=peer.node_power,
                    queue_length=peer.backlog,
                    service_rate=peer.service_rate,
                    snapshot_time=now, jobs_ahead=ahead)
            self.log.record(now, EventKind.POLL, None, site.index,
                            ref2=len(site.snapshots))
        horizon = 2 * interval
        is_alive = self.registry.is_alive
        return [snap for sid, snap in site.snapshots.items()
                if now - snap.snapshot_time <= horizon and is_alive(sid)]

    # -- periodic ticks ------------------------------------------------

    def _on_rate_tick(self) -> None:
        window = self.scenario.rate_interval
        alpha = self.scenario.alpha
        # Only DIANA reads the rates and windows: its polls, costs and
        # congestion check.  The tick itself still runs under every
        # scheduler, since its idle count ends the run.
        if self.scenario.scheduler is SchedulerKind.DIANA:
            for sid in self.site_order:
                site = self.sites[sid]
                if site.crashed:
                    site.arrivals_window = 0
                    site.completions_window = 0
                    continue
                site.arrival_rate = (alpha * (site.arrivals_window / window)
                                     + (1 - alpha) * site.arrival_rate)
                site.service_rate = (alpha * (site.completions_window / window)
                                     + (1 - alpha) * site.service_rate)
                site.arrivals_window = 0
                site.completions_window = 0
                self._check_congestion(site)
        self._idle_ticks += 1
        if self.pending > 0 and self._idle_ticks < MAX_IDLE_TICKS:
            self._at(self.now + window, self._on_rate_tick)

    def _check_congestion(self, site: SiteRuntime) -> None:
        # Only the priority discipline exports; it implies the diana
        # scheduler, which Scenario checks when it is constructed.
        if self.scenario.queue is not QueueDiscipline.PRIORITY_MULTIQUEUE:
            return
        ratio = congestion_ratio(site.arrival_rate, site.service_rate)
        if not is_congested(ratio, self.scenario.thrs) or not len(site.queue):
            return
        picks = site.queue.migration_candidates(self.scenario.batch_size,
                                                self.scenario.migration_cutoff)
        if not picks:
            return
        # Selection-time priorities: nothing changes the queue before the
        # removals below, which reprioritize the rest.
        picked_pr = [site.queue.priority_of(job) for job in picks]
        ref_pr = max(picked_pr)
        peers = self._poll(site, reference_priority=ref_pr)
        if not peers:
            return
        local_ahead = site.queue.jobs_ahead(ref_pr)
        target = migrate_batch(picks, site, local_ahead, peers, self.now,
                               self.topology, self.scenario.b_ref)
        if target is None:
            self.log.record(self.now, EventKind.MIGRATION_STAY_LOCAL, None,
                            site.index, ratio, ref2=len(picks))
            return
        self._idle_ticks = 0
        target_index = self.sites[target].index
        site.snapshots[target].sent_since += len(picks)
        for job, pr in zip(picks, picked_pr):
            site.queue.remove(job)
            job.migrations += 1
            self.log.record(self.now, EventKind.MIGRATION_PICK, job.job_id,
                            site.index, pr, ref2=target_index, num2=ratio)
            self._send(job, target, migration=True)

    def _on_echo_tick(self) -> None:
        def responder(sid: str) -> bool:
            answers = not self.sites[sid].crashed
            self.messages += 2 if answers else 1  # the echo, and any reply
            return answers

        removed = self.registry.echo_sweep(responder)
        # Discovery pushes each removal to the surviving sites so none
        # keeps exporting to a dead peer on a stale snapshot.
        survivors = self.registry.list_peers() if removed else []
        for sid in removed:
            self.messages += len(survivors)
            for other in survivors:
                self.sites[other].snapshots.pop(sid, None)
            self.log.record(self.now, EventKind.PEER_REMOVED, None,
                            self.sites[sid].index)
        if self.pending > 0 and self._idle_ticks < MAX_IDLE_TICKS:
            self._at(self.now + self.scenario.echo_interval, self._on_echo_tick)

    # -- faults --------------------------------------------------------

    def _on_fault(self, fault) -> None:
        site = self.sites[fault.site]
        if fault.action == "crash":
            site.crashed = True
            self.log.record(self.now, EventKind.CRASH, None, site.index)
        elif fault.action == "deregister":
            self.registry.deregister(fault.site)
            for other in self.registry.list_peers():
                self.sites[other].snapshots.pop(fault.site, None)
            self.log.record(self.now, EventKind.PEER_DEREGISTERED, None,
                            site.index)
        elif fault.action == "register":
            site.crashed = False
            self.registry.register(fault.site)
            self.log.record(self.now, EventKind.PEER_REGISTERED, None,
                            site.index)
            self._idle_ticks = 0
            parked, site.parked = site.parked, []
            for job in parked:
                self._place(job)
            self._try_allocate(site)


def run_scenario(scenario: Scenario, seed: int) -> RunResult:
    return Simulation(scenario, seed).run()
