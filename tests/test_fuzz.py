"""Fuzzed scenario text: every input is rejected or runs consistently.

A generated scenario must either raise ScenarioError (exit 2 with a
one-line diagnostic through the CLI that names a line of the text) or
run with its job counts adding up and no crashed site polling its
peers, link no site to itself, serialize and parse back to an equal
scenario (also for values drawn with long mantissas and large
magnitudes), and give the same CSV bytes when run twice under one seed.
Those bytes hold only finite numbers; a run that would reach an
infinite time or total raises SimulationError instead (exit 2).  A run
also gives the same jobs, summary and event log as the reference loop
that puts every submission on the event heap.  A scenario drawn
without a fault is never rejected, and one drawn with a bad record is
never accepted.
Likewise a sweep value must be rejected naming its axis, or give a
scenario that passes the checks again when it is rebuilt.
"""

import csv
import dataclasses
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dianasched.engine import Simulation, SimulationError
from dianasched.report import SWEEP_AXES, apply_axis, jobs_rows, write_run
from dianasched.scenario import (_SETTINGS, ScenarioError, parse_scenario,
                                 serialize_scenario)
from conftest import assert_busy_node_seconds_conserved, reference_run

SITE_IDS = ["s1", "s2", "s3"]
USER_IDS = ["u1", "u2"]
BAD_NUMBERS = ["nan", "inf", "-inf", "-3"]

# Good and bad values of each scalar setting; the float settings also
# take BAD_NUMBERS as bad values.
SETTINGS = {
    "scheduler": (["diana", "round_robin", "flop_greedy"], ["greedy"]),
    "queue": (["priority", "fcfs", "sjf"], []),
    "thrs": (["0", "0.3", "1"], ["1.5"]),
    "batch_size": (["1", "3"], ["0"]),
    "migration_cutoff": (["0", "0.5", "-1"], []),
    "poll_interval": (["1", "5", "30"], ["0"]),
    "echo_interval": (["10", "60"], ["0"]),
    "echo_retries": (["1", "2"], ["0"]),
    "rate_interval": (["5", "10"], ["0"]),
    "alpha": (["0.2", "1"], ["0"]),
    "b_ref": (["100", "1000"], ["0"]),
    "duration_cap": (["0", "40"], []),
}
KINDS = ["mixed", "compute_intensive", "data_intensive"]

# Good and bad values of record fields.
NODES = (["1", "2", "4"], ["0", "-1"])
POWER = (["0.5", "1", "2"], BAD_NUMBERS + ["0"])
BANDWIDTH = (["10", "1000"], BAD_NUMBERS + ["0"])
LATENCY = (["0", "0.5"], BAD_NUMBERS)
LOAD = (["0", "0.5"], BAD_NUMBERS + ["1"])
QUOTA = (["0.5", "1", "3"], BAD_NUMBERS + ["0"])
WEIGHT = (["0", "0.5", "1"], BAD_NUMBERS)
POSITIVE_WEIGHT = (["0.5", "1"], BAD_NUMBERS)  # one per weights line

# The range a good value of each record field is drawn from when it is
# drawn as a float rather than picked from the lists above: any
# mantissa, up to large magnitudes, so the round trip must be exact.
LONG = {"power": (0.5, 1e15), "bandwidth": (10.0, 1e300),
        "latency": (0.0, 10.0), "quota": (1e-3, 1e300),
        "weight": (0.0, 1e6), "positive weight": (1e-6, 1e6),
        "data": (0.0, 1e18)}

# Values the parser accepts but a run cannot use: a subnormal power or a
# demand near the float maximum makes a job's duration, or a summary
# total, infinite, and the run must stop with SimulationError.
UNUSABLE = {"power": "5e-324", "demand": "1e308"}

# Records the parser must reject as a whole.
RECORD_FAULTS = ("twin link", "self link", "stray site_count", "late preset",
                 "twin statement")

# The statements a file gives at most once, besides the settings.
ONCE = ("site_template", "site_count", "default_link", "weights")


@st.composite
def scenario_text(draw):
    """(text, the fault planted in it, or None).

    Half the examples draw only good values in valid combinations, so
    they all parse.  The other half hold exactly one fault: a bad value
    in one drawn field, an unusable value in one drawn field, or one bad
    record.  An unusable value thus reaches a run instead of hiding
    behind a second fault that the parser rejects.
    """
    fault = None
    if draw(st.booleans()):
        fault = draw(st.sampled_from(["value", "unusable", "record"]))
        if fault == "record":
            fault = draw(st.sampled_from(RECORD_FAULTS))
    slots = []  # (good value, values to put in instead) of each field drawn

    def pick(good, bad=(), field=None):
        if field in LONG and draw(st.integers(0, 3)) == 0:
            value = repr(draw(st.floats(*LONG[field])))
        else:
            value = draw(st.sampled_from(good))
        if fault == "value" and bad:
            slots.append((value, tuple(bad)))
        elif fault == "unusable" and field in UNUSABLE:
            slots.append((value, (UNUSABLE[field],)))
        else:
            return value
        # A marker; one slot gets a faulty value when the text is complete.
        return f"\x00{len(slots) - 1}\x00"

    def link_fields():
        return (f"bandwidth={pick(*BANDWIDTH, 'bandwidth')}"
                f" latency={pick(*LATENCY, 'latency')} load={pick(*LOAD)}")

    sites = SITE_IDS[:draw(st.integers(2, 3))]
    users = USER_IDS[:draw(st.integers(1, 2))]
    lines = [f"site {s} nodes={pick(*NODES)} power={pick(*POWER, 'power')}"
             for s in sites]
    template = fault != "stray site_count" and draw(st.booleans())
    if template:
        lines.append(f"site_template prefix=t nodes={pick(*NODES)}"
                     f" power={pick(*POWER, 'power')}")
        lines.append(f"site_count {pick(['0', '1', '2'], ['-1'])}")
    if fault == "stray site_count":
        # A count of template sites without a template is rejected.
        lines.append(f"site_count {draw(st.sampled_from(['1', '2']))}")
    if draw(st.integers(0, 4)):  # without a default link, most pairs are unreachable
        lines.append(f"default_link {link_fields()}")
    if fault == "twin link" or draw(st.booleans()):
        lines.append(f"link s1 s2 {link_fields()}")
    if fault == "twin link":
        # A second link for the pair, in either order, is rejected.
        a, b = draw(st.permutations(["s1", "s2"]))
        lines.append(f"link {a} {b} {link_fields()}")
    if fault == "self link":
        # A site links to itself only by a typo; it is rejected.
        site = draw(st.sampled_from(sites))
        lines.append(f"link {site} {site} {link_fields()}")
    lines += [f"user {u} quota={pick(*QUOTA, 'quota')}" for u in users]
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=2, unique=True)):
        # All three weights 0 would be rejected: one of them is positive.
        positive = draw(st.integers(0, 2))
        weights = " ".join(pick(*POSITIVE_WEIGHT, "positive weight") if i == positive
                           else pick(*WEIGHT, "weight") for i in range(3))
        lines.append(f"weights {kind} {weights}")
    for _ in range(draw(st.integers(1, 4))):
        lines.append(
            f"burst time={pick(['0', '2.5', '7'], BAD_NUMBERS)}"
            f" user={pick(users)} site={pick(sites)}"
            f" count={pick(['1', '2', '4'], ['0', '100000000'])}"
            f" demand={pick(['0', '2', '1:6'], ['nan', '-1', '1:inf'], 'demand')}"
            f" procs={draw(st.integers(1, 3))}"
            f" data={pick(['0', '1e6', '2e9'], ['-1', 'nan'], 'data')}"
            f" data_site={pick(sites)} kind={pick(KINDS)}"
            f" per_site={pick(['false', 'true'], ['flase'])}")
    for _ in range(draw(st.integers(0, 2))):
        # A fault at 7 shares its time with a burst's submissions.
        lines.append(f"fault {pick(['crash', 'register', 'deregister'], ['explode'])}"
                     f" {pick(sites)} {pick(['1', '5', '7', '20'], BAD_NUMBERS)}")
    # Each scheduler line names one scheduler and each queue line one
    # queue, and a scheduler other than diana comes with a queue line:
    # the priority queue, the default, needs the diana scheduler.
    scheduler = draw(st.sampled_from(SETTINGS["scheduler"][0]))
    queues = SETTINGS["queue"][0] if scheduler == "diana" else ["fcfs", "sjf"]
    chosen = {"scheduler": [scheduler], "queue": [draw(st.sampled_from(queues))]}
    keys = draw(st.lists(st.sampled_from(sorted(SETTINGS)), max_size=4,
                         unique=True))
    if "scheduler" in keys and scheduler != "diana" and "queue" not in keys:
        keys.append("queue")
    for key in keys:
        good, bad = SETTINGS[key]
        if _SETTINGS[key] is float:
            bad = bad + BAD_NUMBERS
        lines.append(f"{key} {pick(chosen.get(key, good), bad)}")
    if fault == "twin statement":
        # A second line for a statement given once is rejected, even when
        # it repeats the first.
        once = [line for line in lines
                if line.split()[0] in SETTINGS or line.split()[0] in ONCE]
        lines += [draw(st.sampled_from(once))] if once else ["thrs 0.5"] * 2
    lines = draw(st.permutations(lines))
    if fault == "late preset":
        # A preset anywhere but first would discard the lines above it.
        lines.insert(draw(st.integers(1, len(lines))),
                     f"preset {pick(['P1', 'P2', 'P3', 'P4'])}")
    text = "\n".join(lines) + "\n"
    if slots:
        # Each list of faulty values is drawn from as often as any other,
        # however many fields take it.
        kind = draw(st.sampled_from(sorted({bad for _, bad in slots})))
        at = draw(st.sampled_from([i for i, (_, bad) in enumerate(slots)
                                   if bad == kind]))
        values = [good for good, _ in slots]
        values[at] = draw(st.sampled_from(kind))
        text = re.sub(r"\x00(\d+)\x00", lambda m: values[int(m[1])], text)
    return text, fault


def _run(text):
    """Run once under a fixed seed; return the CSV bytes, or None when
    the run stops on a non-finite time or total (exit 2 through the CLI).
    Any other SimulationError fails the test."""
    sim = Simulation(parse_scenario(text), seed=3)
    try:
        result = sim.run()
        with tempfile.TemporaryDirectory() as out:
            paths = write_run(result, out)
            csvs = [Path(paths[k]).read_bytes() for k in ("jobs", "summary")]
    except SimulationError as exc:
        assert "is not finite" in str(exc)
        return None
    s = result.summary()
    assert s["submitted"] == (s["completed"] + s["failed_unreachable"]
                              + s["rejected_unschedulable"] + s["pending"])
    for site in sim.sites.values():
        assert 0 <= site.idle_nodes <= site.node_count
    assert_busy_node_seconds_conserved(sim, result)
    # A crashed site neither places nor exports, so it never polls until
    # it registers again.
    crashed = set()
    for event in result.trace:
        if event["kind"] == "crash":
            crashed.add(event["site"])
        elif event["kind"] == "peer_registered":
            crashed.discard(event["site"])
        elif event["kind"] == "poll":
            assert event["site"] not in crashed, event
    for data in csvs:
        cells = {c for row in csv.reader(data.decode().splitlines()) for c in row}
        assert not cells & {"inf", "-inf", "nan"}
    return csvs


@settings(max_examples=50, deadline=None)
@given(case=scenario_text())
@example(case=("site s1 nodes=2 power=5e-324\nuser u1 quota=1\n"
               "burst time=0 user=u1 site=s1 count=1 demand=1e308 procs=1 "
               "data_site=s1\n", "unusable"))
@example(case=("site s1 nodes=1 power=1\nthrs 0.5\nthrs 0.5\n",
               "twin statement"))
# Jobs submitted at a crashed site wait there, parked, until it
# registers; they must not make it poll.
@example(case=("site s1 nodes=1 power=1\nsite s2 nodes=1 power=1\n"
               "default_link bandwidth=10\nuser u1 quota=1\n"
               "burst time=5 user=u1 site=s1 count=2 demand=2 procs=1 "
               "data_site=s1\nfault crash s1 1\nfault register s1 20\n",
               None))
# Each record fault lands in few drawn examples, so each has one here.
@example(case=("site s1 nodes=1 power=1\nsite s2 nodes=1 power=1\n"
               "link s1 s2 bandwidth=10\nlink s2 s1 bandwidth=10\n",
               "twin link"))
@example(case=("site s1 nodes=1 power=1\nlink s1 s1 bandwidth=10\n",
               "self link"))
@example(case=("site s1 nodes=1 power=1\nsite_count 1\n",
               "stray site_count"))
@example(case=("site s1 nodes=1 power=1\npreset P2\n", "late preset"))
def test_scenario_text_is_rejected_or_runs_consistently(case):
    text, fault = case
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        # Good values, or values only a run can find unusable, parse.
        assert fault not in (None, "unusable"), f"{fault}: {exc}"
        # One line, naming a line of the text, which declares sites.
        line = re.fullmatch(r"line (\d+): [^\n]+", str(exc))
        assert line and 1 <= int(line[1]) <= len(text.splitlines()), str(exc)
        return
    assert fault not in RECORD_FAULTS, f"{fault} accepted"
    assert all(l.from_site != l.to_site for l in scenario.links)
    assert parse_scenario(serialize_scenario(scenario)) == scenario
    assert _run(text) == _run(text)



def _outcome(run):
    """The jobs.csv rows, summary and events of a run, or the text of
    the SimulationError that stopped it."""
    try:
        result = run()
        return list(jobs_rows(result)), result.summary(), result.trace
    except SimulationError as exc:
        return str(exc)


@settings(max_examples=50, deadline=None)
@given(case=scenario_text())
def test_streamed_submissions_match_the_heap_loop(case):
    text, _ = case
    # run() streams submissions past its heap; the reference pushes them
    # all onto it first.  Both must give the same run.
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        return
    assert _outcome(Simulation(scenario, seed=3).run) == \
        _outcome(lambda: reference_run(Simulation(scenario, seed=3)))


SWEEP_BASE = """
site s1 nodes=2 power=1.0
site_template prefix=t nodes=1 power=1.0
site_count 2
default_link bandwidth=1000
link s1 t001 bandwidth=10
user u quota=1
burst time=0 user=u site=s1 count=2 demand=3 procs=1 data_site=s1
"""

# Integer-looking values above this would expand the site template into
# a scenario of up to scenario.MAX_SITES sites, slowing the test down.
MAX_SITES = 50


def _too_many_sites(axis, value):
    try:
        return axis == "sites" and int(value) > MAX_SITES
    except ValueError:
        return False


@settings(max_examples=200, deadline=None)
@given(axis=st.sampled_from(SWEEP_AXES),
       value=st.one_of(
           st.sampled_from(["diana", "round_robin", "flop_greedy", "greedy",
                            "0", "1", "-1", "50", "1e3", "0.5", "fast", "",
                            " 7 ", "nan", "inf", "-inf", "0x10"]),
           st.integers(-5, MAX_SITES).map(str),
           st.floats(allow_nan=True, allow_infinity=True).map(repr),
           st.text(max_size=6)))
def test_sweep_value_is_rejected_naming_axis_or_validates(axis, value):
    if _too_many_sites(axis, value):
        return
    base = parse_scenario(SWEEP_BASE)
    try:
        out = apply_axis(base, axis, value)
    except ScenarioError as exc:
        assert str(exc).startswith(f"sweep {axis} value {value!r}: ")
        return
    assert dataclasses.replace(out) == out  # rebuilding runs the checks again
    assert base == parse_scenario(SWEEP_BASE)  # the base is left as it was
