"""Scenario parsing, validation and canonical serialization."""

import dataclasses
import math
import re
import tracemalloc
from enum import Enum
from pathlib import Path

import pytest

from dianasched.baselines import QueueDiscipline, SchedulerKind
from dianasched.core import JobKind, UserProfile
from dianasched.costs import CostWeights
from dianasched.engine import Simulation
from dianasched.presets import PRESETS
from dianasched.report import run_sweep
from dianasched.scenario import (_SETTINGS, MAX_JOBS, MAX_SITES, BurstDef,
                                 FaultDef, Scenario, ScenarioError, SiteDef,
                                 parse_scenario, serialize_scenario)

FORMAT_DOC = Path(__file__).resolve().parent.parent / "docs" / "scenario-format.md"
PRESET_NAMES = ("P1", "P2", "P3", "P4")
DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)}

MINIMAL = """
site s1 nodes=2 power=1.0
user alice quota=1
burst time=0 user=alice site=s1 count=1 demand=5 procs=1 data_site=s1
"""

FLOAT_KEYS = [k for k, parse in _SETTINGS.items() if parse is float]
OUT_OF_RANGE = ["thrs 1.5", "thrs -0.1", "batch_size 0", "echo_interval 0",
                "echo_retries 0", "b_ref -1", "b_ref 0", "alpha 0",
                "alpha 1.5", "duration_cap -3", "site_count -4",
                "rate_interval 0", "rate_interval -1", "poll_interval 0",
                "poll_interval -5"]
OUT_OF_RANGE += [f"{key} {value}" for key in FLOAT_KEYS
                 for value in ("nan", "inf", "-inf")
                 if f"{key} {value}" not in OUT_OF_RANGE]


class TestParsing:
    def test_minimal_scenario(self):
        s = parse_scenario(MINIMAL)
        assert s.sites[0].site_id == "s1"
        assert s.users[0].quota == 1.0
        assert s.bursts[0].demand == 5.0

    def test_comments_and_blanks_ignored(self):
        s = parse_scenario("# header\n\n" + MINIMAL + "\nthrs 0.4  # inline\n")
        assert s.thrs == 0.4

    def test_demand_range(self):
        s = parse_scenario(MINIMAL.replace("demand=5", "demand=5:30"))
        assert s.bursts[0].demand == (5.0, 30.0)

    def test_inverted_demand_range_rejected(self):
        with pytest.raises(ScenarioError, match=(
                r"^line 4: invalid burst entry: burst demand range 30\.0:5\.0 "
                r"is inverted$")):
            parse_scenario(MINIMAL.replace("demand=5", "demand=30:5"))

    def test_unknown_key_names_line(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("frobnicate 3\n" + MINIMAL)

    def test_unknown_burst_field_rejected(self):
        with pytest.raises(ScenarioError, match="color"):
            parse_scenario(MINIMAL.replace("procs=1", "procs=1 color=red"))

    def test_missing_burst_field_named(self):
        with pytest.raises(ScenarioError, match="procs"):
            parse_scenario(MINIMAL.replace(" procs=1", ""))

    def test_scheduler_and_queue_keys(self):
        s = parse_scenario("scheduler round_robin\nqueue sjf\n" + MINIMAL)
        assert s.scheduler is SchedulerKind.ROUND_ROBIN
        assert s.queue is QueueDiscipline.SJF

    def test_weights_key(self):
        s = parse_scenario("weights mixed 2 0.5 0\n" + MINIMAL)
        w = s.weights[JobKind.MIXED]
        assert (w.w_c, w.w_d, w.w_n) == (2.0, 0.5, 0.0)

    def test_site_template_expansion(self):
        s = parse_scenario(
            "site_template prefix=node nodes=5 power=2\nsite_count 3\n"
            "user u quota=1\n"
            "burst time=0 user=u site=node001 count=1 demand=1 procs=1"
            " data_site=node001\n")
        ids = [d.site_id for d in s.resolved_sites()]
        assert ids == ["node001", "node002", "node003"]
        assert all((d.nodes, d.power) == (5, 2.0) for d in s.resolved_sites())

    @pytest.mark.parametrize("sites,template,count", [
        ([], None, 0), (["a"], None, 0), (["a", "b"], "t", 3), ([], "t", 0),
        (["a"], "t", -2), (["a"], None, 4)])
    def test_resolved_site_count_matches_the_sites(self, sites, template,
                                                   count):
        # Counted without building them.  Sites that resolve to nothing,
        # or a count without a template or below zero, are refused when
        # the Scenario is constructed, so no count is ever asked of them.
        refused = {((), None, 0): "^scenario defines no sites$",
                   ((), "t", 0): "^scenario defines no sites$",
                   (("a",), "t", -2): r"^site_count must be in \[0, 2000\], got -2$",
                   (("a",), None, 4): "^site_count needs a site_template$"}
        kw = dict(sites=[SiteDef(sid, 1, 1.0) for sid in sites],
                  site_template=SiteDef(template, 1, 1.0) if template else None,
                  site_count=count)
        message = refused.get((tuple(sites), template, count))
        if message is not None:
            with pytest.raises(ScenarioError, match=message):
                Scenario(**kw)
            return
        s = Scenario(**kw)
        assert s.resolved_site_count() == len(s.resolved_sites())

    def test_fault_lines(self):
        s = parse_scenario(MINIMAL + "fault crash s1 10\nfault register s1 60\n")
        assert [(f.action, f.site, f.time) for f in s.faults] == \
            [("crash", "s1", 10.0), ("register", "s1", 60.0)]

    def test_preset_key_loads_preset(self):
        s = parse_scenario("preset P1\n")
        assert len(s.bursts) == 200
        assert s.sites[0].site_id == "site1"

    # A repeated field would keep its last value; a defaulted one too.
    @pytest.mark.parametrize("text,message", [
        ("site s1 nodes=1 nodes=4 power=1\n", "line 1: field 'nodes' given twice"),
        ("site_template prefix=a prefix=b nodes=1 power=1\n",
         "line 1: field 'prefix' given twice"),
        (MINIMAL.replace("data_site=s1", "data_site=s1 kind=mixed kind=data_intensive"),
         "line 4: field 'kind' given twice")], ids=["site", "site_template", "burst"])
    def test_field_given_twice_rejected(self, text, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario(text)

    # A statement given once per file would keep its last value.
    @pytest.mark.parametrize("text,message", [
        ("thrs 0.5\n" + MINIMAL + "thrs 0.7\n",
         r"line 6: thrs given twice \(first on line 1\)"),
        ("thrs 0.5\nthrs 0.5\n" + MINIMAL,
         r"line 2: thrs given twice \(first on line 1\)"),
        ("site_template prefix=a nodes=1 power=1\n"
         "site_template prefix=b nodes=1 power=1\n" + MINIMAL,
         r"line 2: site_template given twice \(first on line 1\)"),
        (MINIMAL + "default_link bandwidth=10\ndefault_link bandwidth=100\n",
         r"line 6: default_link given twice \(first on line 5\)"),
        (MINIMAL + "weights mixed 1 1 1\nweights mixed 2 1 1\n",
         r"line 6: weights mixed given twice \(first on line 5\)"),
        # A preset's statement may be overridden once.
        ("preset P2\nthrs 0.5\nthrs 0.7\n",
         r"line 3: thrs given twice \(first on line 2\)")],
        ids=["setting", "same value", "site_template", "default_link",
             "weights", "after preset"])
    def test_statement_given_twice_rejected(self, text, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario(text)

    def test_statements_given_once_each(self):
        s = parse_scenario(MINIMAL + "weights mixed 1 1 1\n"
                           "weights data_intensive 2 1 1\nthrs 0.5\n")
        assert set(s.weights) == {JobKind.MIXED, JobKind.DATA_INTENSIVE}

    def test_a_line_after_a_preset_overrides_it(self):
        assert parse_scenario("preset P2\n").thrs == 1.0
        s = parse_scenario("preset P2\nthrs 0.5\nscheduler diana\n")
        assert s.thrs == 0.5

    def test_preset_after_a_statement_rejected(self):
        # It would silently discard every statement before it.
        with pytest.raises(ScenarioError,
                           match="^line 3: preset must be the first statement"):
            parse_scenario("# header\nthrs 0.9\npreset P1\n")

    def test_links_and_users_are_core_types(self):
        s = parse_scenario("default_link bandwidth=100 latency=0.5 load=0.25\n"
                           "site s2 nodes=1 power=1\n"
                           "link s1 s2 bandwidth=10\n" + MINIMAL)
        assert s.default_link.background_load == 0.25
        assert s.links[0].bandwidth == 10.0
        assert s.users[0].user_id == "alice"


class TestBooleans:
    @pytest.mark.parametrize("text,value", [
        ("true", True), ("1", True), ("yes", True),
        ("false", False), ("0", False), ("no", False)])
    def test_accepted_spellings(self, text, value):
        s = parse_scenario(MINIMAL.replace("data_site=s1",
                                           f"data_site=s1 per_site={text}"))
        assert s.bursts[0].per_site is value

    def test_per_site_typo_rejected(self):
        with pytest.raises(ScenarioError, match=r"line 4: .*'ture'"):
            parse_scenario(MINIMAL.replace("data_site=s1",
                                           "data_site=s1 per_site=ture"))


class TestValidation:
    def test_thrs_out_of_bounds_names_field_and_interval(self):
        with pytest.raises(ScenarioError, match=r"thrs.*\[0, 1\]"):
            parse_scenario("thrs 1.5\n" + MINIMAL)

    # A rule that relates lines to each other names the offending line,
    # and a duplicate the line it repeats.
    def test_link_to_undefined_site(self):
        with pytest.raises(ScenarioError, match=(
                "^line 5: link references undefined site 'ghost'$")):
            parse_scenario(MINIMAL + "link s1 ghost bandwidth=100\n")

    def test_burst_with_unknown_user(self):
        with pytest.raises(ScenarioError, match=(
                "^line 4: burst references undefined user 'bob'$")):
            parse_scenario(MINIMAL.replace("user=alice", "user=bob"))

    @pytest.mark.parametrize("text,message", [
        (MINIMAL + "user alice quota=2\n",
         r"line 5: duplicate user id 'alice' \(first on line 3\)"),
        (MINIMAL.replace("site=s1 count", "site=ghost count"),
         "line 4: burst references undefined site 'ghost'"),
        (MINIMAL.replace("data_site=s1", "data_site=ghost"),
         "line 4: burst data_site 'ghost' is undefined"),
        (MINIMAL + "fault crash ghost 1\n",
         "line 5: fault references undefined site 'ghost'"),
        # A preset's records are on the preset's line.
        ("preset P1\nsite site3 nodes=1 power=1\n",
         r"line 2: duplicate site id 'site3' \(first on line 1\)"),
        # The template's sites are on the site_template line, before or
        # after the site they repeat.
        ("site_template prefix=s nodes=1 power=1\nsite_count 2\n" + MINIMAL
         + "site s002 nodes=1 power=1\n",
         r"line 7: duplicate site id 's002' \(first on line 1\)"),
        (MINIMAL + "site s001 nodes=1 power=1\n"
         "site_template prefix=s nodes=1 power=1\nsite_count 1\n",
         r"line 6: duplicate site id 's001' \(first on line 5\)")],
        ids=["twin user", "burst site", "burst data_site", "fault site",
             "preset site", "site after template", "template after site"])
    def test_cross_record_rule_names_its_lines(self, text, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            parse_scenario(text)

    def test_no_sites(self):
        # The one rejection that names no line: there is none to blame.
        with pytest.raises(ScenarioError, match="^scenario defines no sites$"):
            parse_scenario("thrs 0.3\n")

    def test_duplicate_sites(self):
        with pytest.raises(ScenarioError, match=(
                r"^line 3: duplicate site id 's1' \(first on line 1\)$")):
            parse_scenario("site s1 nodes=1 power=1\n" + MINIMAL)

    def test_duplicate_sites_built_in_code(self):
        site = SiteDef("t001", 1, 1.0)
        with pytest.raises(ScenarioError, match="^duplicate site id 't001'$") as err:
            Scenario(sites=[site], site_template=SiteDef("t", 1, 1.0), site_count=1)
        assert err.value.about == ("site_template", site)

    # A second link for a pair, in either order, would replace the first.
    @pytest.mark.parametrize("second", ["link s1 s2 bandwidth=1000",
                                        "link s2 s1 bandwidth=1000"])
    def test_duplicate_link(self, second):
        a, b = second.split()[1:3]
        text = ("site s2 nodes=1 power=1\nlink s1 s2 bandwidth=10\n"
                + second + "\n" + MINIMAL)
        with pytest.raises(ScenarioError, match=(
                f"^line 3: duplicate link between {a} and {b} "
                r"\(first on line 2\)$")):
            parse_scenario(text)

    def test_validate_checks_duplicate_links_built_in_code(self):
        scenario = parse_scenario("site s2 nodes=1 power=1\n"
                                  "link s1 s2 bandwidth=10\n" + MINIMAL)
        link = scenario.links[0]
        reverse = type(link)(link.to_site, link.from_site, 1000.0)
        with pytest.raises(ScenarioError,
                           match="^duplicate link between s2 and s1$") as err:
            dataclasses.replace(scenario, links=[*scenario.links, reverse])
        assert err.value.about == (reverse, link)

    # A site reaches itself without a link, so the line can only be a typo.
    def test_self_link(self):
        text = "site s2 nodes=1 power=1\nlink s1 s1 bandwidth=1\n" + MINIMAL
        with pytest.raises(ScenarioError,
                           match="^line 2: link from s1 to itself$"):
            parse_scenario(text)

    def test_validate_checks_self_links_built_in_code(self):
        scenario = parse_scenario("site s2 nodes=1 power=1\n"
                                  "link s1 s2 bandwidth=10\n" + MINIMAL)
        link = scenario.links[0]
        loop = type(link)(link.to_site, link.to_site, 10.0)
        with pytest.raises(ScenarioError, match="^link from s2 to itself$"):
            dataclasses.replace(scenario, links=[loop])

    def test_priority_queue_needs_diana(self):
        with pytest.raises(ScenarioError, match=(
                "^line 1: priority queue discipline requires the diana scheduler$")):
            parse_scenario("scheduler round_robin\nqueue priority\n" + MINIMAL)

    def test_unknown_fault_action(self):
        with pytest.raises(ScenarioError, match=(
                "^line 5: invalid fault entry: unknown fault action 'explode'$")):
            parse_scenario(MINIMAL + "fault explode s1 10\n")

    @pytest.mark.parametrize("line", OUT_OF_RANGE)
    def test_setting_out_of_range(self, line):
        key = line.split()[0]
        with pytest.raises(ScenarioError, match=f"^line 2: {key} must be"):
            parse_scenario("# header\n" + line + "\n" + MINIMAL)

    # Deleted settings stay rejected rather than silently ignored.
    @pytest.mark.parametrize("line", [
        "echo_timeout -1", "echo_timeout nan", "echo_timeout inf",
        "echo_timeout -inf", "echo_timeout 5", "bands 0.5 0"])
    def test_deleted_setting_is_unknown_key(self, line):
        key = line.split()[0]
        with pytest.raises(ScenarioError,
                           match=f"^line 2: unknown key '{key}'$"):
            parse_scenario("# header\n" + line + "\n" + MINIMAL)

    @pytest.mark.parametrize("text,message", [
        (MINIMAL.replace("count=1", f"count={MAX_JOBS + 1}"),
         f"line 4: burst brings the workload to {MAX_JOBS + 1} jobs, "
         f"over the ceiling of {MAX_JOBS}"),
        (MINIMAL + MINIMAL.splitlines()[3].replace("count=1", f"count={MAX_JOBS}"),
         f"line 5: burst brings the workload to {MAX_JOBS + 1} jobs, "
         f"over the ceiling of {MAX_JOBS}"),
        ("site_template prefix=t nodes=1 power=1\nsite_count 1000\n"
         + MINIMAL.replace("procs=1", "procs=1 per_site=true")
         .replace("count=1", "count=1000"),
         r"line 6: burst brings the workload to 1001000 jobs \(1000 x 1001 "
         rf"sites\), over the ceiling of {MAX_JOBS}"),
        ("site_template prefix=t nodes=1 power=1\nsite_count 100000000\n" + MINIMAL,
         rf"line 2: site_count must be in \[0, {MAX_SITES}\], got 100000000")],
        ids=["count", "sum", "per_site", "site_count"])
    def test_size_over_the_ceiling_rejected_before_expansion(self, text,
                                                             message):
        # Counted by arithmetic: no job is built, so the check allocates
        # under a megabyte where the jobs would take hundreds.
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=f"^{message}$"):
                parse_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_size_at_the_ceiling_accepted(self):
        s = Scenario(sites=[SiteDef("s1", 1, 1.0)], users=[UserProfile("u", 1.0)],
                     bursts=[BurstDef(0.0, "u", "s1", MAX_JOBS, 1.0, 1, 0.0, "s1",
                                      JobKind.MIXED)])
        with pytest.raises(ScenarioError, match="over the ceiling"):
            dataclasses.replace(s, bursts=s.bursts * 2)
        s = Scenario(sites=[SiteDef("s1", 1, 1.0)],
                     site_template=SiteDef("t", 1, 1.0), site_count=MAX_SITES - 1)
        assert s.resolved_site_count() == MAX_SITES

    def test_site_count_needs_a_template(self):
        with pytest.raises(ScenarioError,
                           match="^line 1: site_count needs a site_template$"):
            parse_scenario("site_count 3\n" + MINIMAL)

    @pytest.mark.parametrize("key,value", [("thrs", 1.5), ("alpha", 0.0),
                                           ("poll_interval", float("nan")),
                                           ("duration_cap", -3.0)])
    def test_validate_checks_settings_built_in_code(self, key, value):
        scenario = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioError, match=f"^{key} must be"):
            dataclasses.replace(scenario, **{key: value})

    @pytest.mark.parametrize("line,field", [
        ("link s1 s2 bandwidth=0", "bandwidth"),
        ("default_link bandwidth=100 load=1.5", "load"),
        ("user v quota=-1", "quota")])
    def test_link_and_user_values_checked_at_parse_time(self, line, field):
        with pytest.raises(ScenarioError, match=f"line 2: .*{field}"):
            parse_scenario("site s2 nodes=1 power=1\n" + line + "\n" + MINIMAL)


class TestFrozen:
    """A Scenario is checked once, when it is constructed, and cannot
    change afterwards, so nothing downstream checks it again."""

    def test_a_simulated_scenario_cannot_change(self):
        scenario = parse_scenario(MINIMAL)
        Simulation(scenario, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.rate_interval = 0.0
        for name in ("sites", "links", "users", "bursts", "faults"):
            assert type(getattr(scenario, name)) is tuple, name
        with pytest.raises(TypeError):
            scenario.weights[JobKind.MIXED] = CostWeights(1.0, 1.0, 1.0)
        assert not hasattr(Scenario, "validate")

    def test_checked_once_per_construction(self, monkeypatch):
        calls = []
        post_init = Scenario.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        Simulation(parse_scenario(MINIMAL), seed=1)
        assert len(calls) == 1
        calls.clear()
        values = ["diana", "round_robin", "flop_greedy"]
        run_sweep(parse_scenario(MINIMAL), "scheduler", values, seed=1)
        assert len(calls) == len(values) + 1


class TestSettingTypes:
    """A Scenario built in code is type-checked as well: each setting
    must have its default's type, as the parser's conversion gives it."""

    # A bool is no setting's type, though it is an int.
    @pytest.mark.parametrize("key,value", [
        ("batch_size", 2.5), ("site_count", 2.5), ("echo_retries", 1.5),
        ("queue", "fcfs")] + [(key, True) for key in _SETTINGS])
    def test_wrong_type_names_the_setting(self, key, value):
        p4 = parse_scenario("preset P4\n")
        with pytest.raises(ScenarioError, match=f"^{key} must be of type "):
            dataclasses.replace(p4, **{key: value})

    def test_an_int_is_a_float_setting(self):
        p4 = parse_scenario("preset P4\n")
        assert dataclasses.replace(p4, poll_interval=5).poll_interval == 5


def non_default(default):
    """A value of the default's type other than it, valid on its own."""
    if isinstance(default, Enum):
        return next(m for m in type(default) if m is not default)
    if isinstance(default, int):
        return default + 1
    return default / 3 or 1 / 3


class TestSerialization:
    def test_minimal_round_trip(self):
        s = parse_scenario(MINIMAL)
        assert parse_scenario(serialize_scenario(s)) == s

    # Found from Scenario's fields, so a new setting is covered at once.
    # The fcfs queue lets any scheduler run; the template gives
    # site_count something to expand.
    @pytest.mark.parametrize("key", list(_SETTINGS))
    def test_each_setting_round_trips(self, key):
        s = parse_scenario("queue fcfs\nsite_template prefix=t nodes=1 power=1\n"
                           + MINIMAL)
        default = DEFAULTS[key]
        s = dataclasses.replace(s, **{key: non_default(default)})
        back = parse_scenario(serialize_scenario(s))
        assert getattr(back, key) == getattr(s, key) != default
        assert back == s

    # Values longer than 12 significant digits, or of large magnitude,
    # must come back exactly.
    @pytest.mark.parametrize("line", [
        "default_link bandwidth=1000000000001",
        "default_link bandwidth=1e300 latency=0.30000000000000004",
        "user v quota=0.1234567890123456",
        "site s2 nodes=1 power=123456789012.34567"])
    def test_long_values_round_trip(self, line):
        s = parse_scenario(line + "\n" + MINIMAL)
        text = serialize_scenario(s)
        assert parse_scenario(text) == s
        assert serialize_scenario(parse_scenario(text)) == text

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_round_trip(self, name):
        s = parse_scenario(f"preset {name}\n")
        assert parse_scenario(PRESETS[name]) == s  # a preset is its text
        text = serialize_scenario(s)
        assert parse_scenario(text) == s
        # Canonical form is a fixed point.
        assert serialize_scenario(parse_scenario(text)) == text


class TestRecordValues:
    """Bursts and faults check their own values, also when built in code."""

    @pytest.mark.parametrize("field,value,match", [
        ("time", -5.0, "burst time must be finite and >= 0"),
        ("time", math.nan, "burst time must be finite and >= 0"),
        ("data", -1.0, "burst data must be finite and >= 0"),
        ("demand", math.inf, "burst demand must be finite and >= 0"),
        ("demand", (1.0, math.inf), "burst demand must be finite and >= 0"),
        ("demand", (5.0, 1.0), r"burst demand range 5\.0:1\.0 is inverted")])
    def test_burst(self, field, value, match):
        fields = dict(time=0.0, user="u", site="s1", count=1, demand=1.0,
                      procs=1, data=0.0, data_site="s1", kind=JobKind.MIXED)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{match}"):
            BurstDef(**fields)

    @pytest.mark.parametrize("time", [math.nan, -1.0, math.inf])
    def test_fault_time(self, time):
        with pytest.raises(ValueError, match="^fault time must be finite and >= 0"):
            FaultDef("crash", "s1", time)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match=(
                "^line 1: unknown preset 'P99'; known presets: P1, P2, P3, P4$")):
            parse_scenario("preset P99\n")

    def test_an_error_after_a_preset_names_its_own_line(self):
        with pytest.raises(ScenarioError, match=(
                r"^line 2: thrs must be finite and in \[0, 1\], got 2\.0$")):
            parse_scenario("preset P1\nthrs 2\n")

    def test_a_preset_text_builds_one_scenario(self, monkeypatch):
        calls = []
        post_init = Scenario.__post_init__

        def counting(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(Scenario, "__post_init__", counting)
        s = parse_scenario("preset P4\nsite_count 100\n")
        assert len(calls) == 1
        assert s.resolved_site_count() == 100

    def test_all_presets_validate(self):
        # Building a preset checks it; rebuilding it checks it again.
        for name in PRESET_NAMES:
            preset = parse_scenario(f"preset {name}\n")
            assert dataclasses.replace(preset) == preset

    def test_five_site_topology_shape(self):
        sites = parse_scenario("preset P1\n").sites
        assert [(s.site_id, s.nodes) for s in sites] == \
            [("site1", 4), ("site2", 5), ("site3", 5), ("site4", 5), ("site5", 5)]
        assert all(s.power == 1.0 for s in sites)


def documented_settings():
    """(key, default text) of each row of the scalar settings table."""
    section = FORMAT_DOC.read_text().split("## Scalar settings", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, re.MULTILINE)


class TestDocs:
    def test_scalar_settings_table_lists_every_scalar_key(self):
        documented = [key for key, _ in documented_settings()]
        assert len(documented) == len(set(documented))
        assert set(documented) == set(_SETTINGS)

    def test_documented_defaults_are_the_defaults(self):
        # Each default is read by its setting's own converter.
        for key, text in documented_settings():
            assert _SETTINGS[key](text) == DEFAULTS[key], key
