"""Scenario file parsing, validation and canonical serialization.

The format is line-oriented: one `key value` or record line per
statement, `#` comments, blank lines ignored.  See docs/scenario-format.md
for the full grammar.  Unknown keys are rejected.  Inputs are checked
once, here: each record type checks its own values when it is
constructed, and Scenario its settings and the rules that relate records
to each other, so the parser only converts text.  Behind them the engine
checks only its own invariants and float overflow.  Every error names its
line: the parser prefixes the line of the statement it is reading, or
the lines of the records and settings a Scenario error is about.  Only
a file that declares no site gets an error without a line.  A statement
that sets one value, such as a setting, is given once per file, and a
scenario's job and site counts are held under MAX_JOBS and MAX_SITES
before anything is expanded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .baselines import QueueDiscipline, SchedulerKind
from .core import JobKind, NetworkLink, UserProfile
from .costs import REFERENCE_BANDWIDTH, CostWeights
from .presets import PRESETS

DemandSpec = Union[float, Tuple[float, float]]  # point value or uniform range


class ScenarioError(ValueError):
    """`about` holds the records, or Scenario fields by name, an error is
    about: the offending one, then a duplicate's first.  The parser names their lines."""

    def __init__(self, message: str, *about):
        super().__init__(message)
        self.about = about


def _check_non_negative(name: str, value: float) -> None:
    """Raise ValueError unless `value` is finite and >= 0.

    A negative zero is refused too: it would print as `-0` in jobs.csv
    and hash unlike 0, though it compares equal to it.
    """
    if not (math.isfinite(value) and math.copysign(1.0, value) > 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class SiteDef:
    site_id: str
    nodes: int
    power: float  # MFLOPS per node

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"site {self.site_id}: nodes must be >= 1")
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"site {self.site_id}: power must be finite and > 0")


@dataclass(frozen=True, slots=True)
class BurstDef:
    time: float
    user: str
    site: str
    count: int
    demand: DemandSpec  # MFLOP
    procs: int
    data: float  # bytes
    data_site: str
    kind: JobKind
    per_site: bool = False  # multiply count by the resolved site count

    def __post_init__(self):
        _check_non_negative("burst time", self.time)
        if self.count < 1:
            raise ValueError("burst count must be >= 1")
        if isinstance(self.demand, tuple):
            lo, hi = self.demand
            _check_non_negative("burst demand", lo)
            _check_non_negative("burst demand", hi)
            if hi < lo:
                raise ValueError(f"burst demand range {lo!r}:{hi!r} is inverted")
        else:
            _check_non_negative("burst demand", self.demand)
        if self.procs < 1:
            raise ValueError("burst procs must be >= 1")
        _check_non_negative("burst data", self.data)


@dataclass(frozen=True)
class FaultDef:
    action: str  # crash | register | deregister
    site: str
    time: float

    def __post_init__(self):
        if self.action not in ("crash", "register", "deregister"):
            raise ValueError(f"unknown fault action {self.action!r}")
        _check_non_negative("fault time", self.time)


_RECORDS = ("sites", "links", "users", "bursts", "faults")  # Scenario's tuples

# Ceilings on a scenario's size, checked before anything is expanded so
# that a typo in a count ends in an error, not in exhausted memory.  A
# run's heap peaks at about 560 bytes per job (the job, its id and
# entry in the jobs dict, and its events), so MAX_JOBS keeps it near
# 0.6 GB.  Each site may hold a poll snapshot of every other site, about
# 210 bytes each, so MAX_SITES keeps that table under 0.9 GB.
MAX_JOBS = 1_000_000
MAX_SITES = 2_000


@dataclass(frozen=True)
class Scenario:
    """A whole scenario, checked once when it is built.

    Each field whose default is an enum, an int or a float is a scalar
    setting, declared here once: its value must have the default's
    type, by which the parser converts its text, and serialize_scenario
    writes it.  A setting with a range also has a
    _SETTING_RANGES entry, and every setting has a row in
    docs/scenario-format.md's table.  The instance is frozen, its
    record lists are tuples and its weights a read-only mapping, so a
    Scenario that exists is valid and stays so; vary one with
    dataclasses.replace, which checks the result again.  Its bursts
    expand to at most MAX_JOBS jobs, counted without expanding them.
    Its errors name no line; parse_scenario names the lines of what
    they are about.
    """

    scheduler: SchedulerKind = SchedulerKind.DIANA
    queue: QueueDiscipline = QueueDiscipline.PRIORITY_MULTIQUEUE
    thrs: float = 0.3  # congestion threshold, administrator-configurable
    batch_size: int = 10
    migration_cutoff: float = 0.0  # only jobs with priority < cutoff migrate
    poll_interval: float = 30.0
    echo_interval: float = 60.0
    echo_retries: int = 1
    rate_interval: float = 10.0
    alpha: float = 0.2
    b_ref: float = REFERENCE_BANDWIDTH
    duration_cap: float = 0.0  # 0 disables the cap
    weights: Mapping[JobKind, CostWeights] = field(default_factory=dict)
    sites: Tuple[SiteDef, ...] = ()
    site_template: Optional[SiteDef] = None  # site_id is a name prefix
    site_count: int = 0
    default_link: Optional[NetworkLink] = None
    links: Tuple[NetworkLink, ...] = ()
    users: Tuple[UserProfile, ...] = ()
    bursts: Tuple[BurstDef, ...] = ()
    faults: Tuple[FaultDef, ...] = ()

    def resolved_sites(self) -> List[SiteDef]:
        """Explicit sites plus the template expansion, in declaration order."""
        out = list(self.sites)
        if self.site_template is not None:
            prefix = self.site_template.site_id
            out += [SiteDef(f"{prefix}{i:03d}", self.site_template.nodes,
                            self.site_template.power)
                    for i in range(1, self.site_count + 1)]
        return out

    def resolved_site_count(self) -> int:
        """len(resolved_sites()), without building the sites."""
        if self.site_template is None:
            return len(self.sites)
        return len(self.sites) + self.site_count

    def __post_init__(self):
        for name in _RECORDS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))
        for key, kind in _SETTINGS.items():
            # Its default's type (an int passes as a float, a bool as
            # none), and within its range.
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise ScenarioError(f"{key} must be of type {kind.__name__}, got {value!r}", key)
            if key in _SETTING_RANGES:
                test, rule = _SETTING_RANGES[key]
                if not (math.isfinite(value) and test(value)):
                    raise ScenarioError(f"{key} must be {rule}, got {value!r}", key)
        if self.site_count and self.site_template is None:
            raise ScenarioError("site_count needs a site_template", "site_count")
        if not (sites := self.resolved_sites()):
            raise ScenarioError("scenario defines no sites")
        known_sites: Dict[str, object] = {}  # id -> the record declaring it
        for i, site in enumerate(sites):
            record = site if i < len(self.sites) else "site_template"
            if (sid := site.site_id) in known_sites:
                raise ScenarioError(f"duplicate site id {sid!r}", record, known_sites[sid])
            known_sites[sid] = record
        if (self.queue is QueueDiscipline.PRIORITY_MULTIQUEUE
                and self.scheduler is not SchedulerKind.DIANA):
            raise ScenarioError("priority queue discipline requires the diana scheduler",
                                "scheduler")
        pairs: Dict[frozenset, NetworkLink] = {}  # links are symmetric
        for link in self.links:
            a, b = link.from_site, link.to_site
            for end in (a, b):
                if end not in known_sites:
                    raise ScenarioError(f"link references undefined site {end!r}", link)
            if a == b:
                raise ScenarioError(f"link from {a} to itself", link)
            if (pair := frozenset((a, b))) in pairs:
                raise ScenarioError(f"duplicate link between {a} and {b}", link, pairs[pair])
            pairs[pair] = link
        users: Dict[str, UserProfile] = {}
        for user in self.users:
            if (uid := user.user_id) in users:
                raise ScenarioError(f"duplicate user id {uid!r}", user, users[uid])
            users[uid] = user
        jobs = 0  # the workload's size, counted without expanding it
        for b in self.bursts:
            if b.user not in users:
                raise ScenarioError(f"burst references undefined user {b.user!r}", b)
            if b.site not in known_sites:
                raise ScenarioError(f"burst references undefined site {b.site!r}", b)
            if b.data_site not in known_sites:
                raise ScenarioError(f"burst data_site {b.data_site!r} is undefined", b)
            jobs += b.count * (len(sites) if b.per_site else 1)
            if jobs > MAX_JOBS:
                per_site = f" ({b.count} x {len(sites)} sites)" if b.per_site else ""
                raise ScenarioError(f"burst brings the workload to {jobs} jobs{per_site}, "
                                    f"over the ceiling of {MAX_JOBS}", b)
        for f in self.faults:
            if f.site not in known_sites:
                raise ScenarioError(f"fault references undefined site {f.site!r}", f)


def _parse_bool(text: str) -> bool:
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"{text!r} is not a boolean (true/1/yes or false/0/no)")


# The range of each checked scalar setting, as a test and its wording.
# Every value must also be finite, which the wording of the floats says.
_SETTING_RANGES = {
    "thrs": (lambda v: 0 <= v <= 1, "finite and in [0, 1]"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "migration_cutoff": (lambda v: True, "finite"),
    "poll_interval": (lambda v: v > 0, "finite and > 0"),
    "echo_interval": (lambda v: v > 0, "finite and > 0"),
    "echo_retries": (lambda v: v >= 1, ">= 1"),
    "rate_interval": (lambda v: v > 0, "finite and > 0"),
    "alpha": (lambda v: 0 < v <= 1, "finite and in (0, 1]"),
    "b_ref": (lambda v: v > 0, "finite and > 0"),
    "duration_cap": (lambda v: v >= 0, "finite and >= 0"),
    "site_count": (lambda v: 0 <= v <= MAX_SITES, f"in [0, {MAX_SITES}]"),
}


# Each scalar setting, by name, with its default's type, which its value
# must have and which converts its text: an enum value, an int or a
# float.
_SETTINGS = {f.name: type(f.default) for f in fields(Scenario)
             if isinstance(f.default, (int, float, Enum))}


# The fields of each statement written as key=value pairs: the required
# ones, in the order a "missing field(s)" error lists them, as a set
# too, and every allowed one.
_FIELDS = {key: (required, frozenset(required), frozenset(required + optional))
           for key, required, optional in (
               ("site", ("nodes", "power"), ()),
               ("site_template", ("nodes", "power"), ("prefix",)),
               ("default_link", ("bandwidth",), ("latency", "load")),
               ("link", ("bandwidth",), ("latency", "load")),
               ("user", ("quota",), ()),
               ("burst", ("time", "user", "site", "count", "demand", "procs",
                          "data_site"), ("data", "kind", "per_site")))}

# The statements a file gives at most once, besides the scalar settings;
# `weights` once per job kind.
_ONCE = ("site_template", "default_link", "weights")

_KINDS = {kind.value: kind for kind in JobKind}


def _parse_kv(parts: List[str], key: str) -> Dict[str, str]:
    required, required_set, allowed = _FIELDS[key]
    got: Dict[str, str] = {}
    for part in parts:
        k, eq, v = part.partition("=")
        if not eq:
            raise ScenarioError(f"expected key=value, got {part!r}")
        if k not in allowed:
            raise ScenarioError(f"unknown field {k!r}")
        if k in got:
            raise ScenarioError(f"field {k!r} given twice")
        got[k] = v
    if not required_set <= got.keys():
        missing = [k for k in required if k not in got]
        raise ScenarioError(f"missing field(s) {', '.join(missing)}")
    return got


def _parse_kind(text: str) -> JobKind:
    # The Enum call only when the lookup fails, for its error.
    return _KINDS.get(text) or JobKind(text)


def _parse_demand(text: str) -> DemandSpec:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (float(lo), float(hi))
    return float(text)


def _statements(text: str):
    """(line number, words, from a preset) of each statement; a `preset`
    line, valid only first, yields its preset's statements under its
    own number."""
    first = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "preset":
            if not first:
                # It would silently discard every statement before it.
                raise ScenarioError(f"line {lineno}: preset must be the first statement")
            if len(parts) != 2:
                raise ScenarioError(f"line {lineno}: preset takes one name")
            if parts[1] not in PRESETS:
                raise ScenarioError(
                    f"line {lineno}: unknown preset {parts[1]!r}; "
                    f"known presets: {', '.join(PRESETS)}")
            for _, words, _ in _statements(PRESETS[parts[1]]):
                yield lineno, words, True
        else:
            yield lineno, parts, False
        first = False


def _at_lines(message, lines: List[int]) -> ScenarioError:
    """An error at the last of `lines`, naming the others as the lines
    that first gave what it duplicates."""
    *first, at = sorted(lines)
    return ScenarioError(f"line {at}: {message}" + "".join(
        f" (first on line {n})" for n in first))


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into one Scenario; errors carry line numbers.

    A setting, `site_template`, `default_link` or `weights` line for one
    kind is given at most once; a line after a `preset` may override
    the preset's.
    """
    kw = {"weights": {}, **{name: [] for name in _RECORDS}}
    # The line of a statement given once, by its name, and of a record,
    # by id().
    lines: Dict[object, int] = {}
    given = set()  # the statements given once, outside a preset
    # One str per distinct id, shared by every burst and the jobs it
    # expands into, instead of a copy per burst line.
    ids: Dict[str, str] = {}
    def add(name: str, record) -> None:
        kw[name].append(record)
        lines[id(record)] = lineno

    for lineno, parts, preset in _statements(text):
        key, args = parts[0], parts[1:]
        name = key
        try:
            # The statement a workload has most of, first.
            if key == "burst":
                kv = _parse_kv(args, key)
                user, site, data_site = kv["user"], kv["site"], kv["data_site"]
                add("bursts", BurstDef(  # in field order
                    float(kv["time"]), ids.setdefault(user, user),
                    ids.setdefault(site, site), int(kv["count"]),
                    _parse_demand(kv["demand"]), int(kv["procs"]),
                    float(kv.get("data", "0")),
                    ids.setdefault(data_site, data_site),
                    _parse_kind(kv.get("kind", "mixed")),
                    _parse_bool(kv.get("per_site", "false"))))
            elif key in _SETTINGS:
                if len(args) != 1:
                    raise ScenarioError(f"{key} takes one value")
                kw[key] = _SETTINGS[key](args[0])
            elif key == "weights":
                if len(args) != 4:
                    raise ScenarioError("weights takes kind wc wd wn")
                kind = _parse_kind(args[0])
                kw["weights"][kind] = CostWeights(*(float(a) for a in args[1:]))
                name = f"weights {kind.value}"
            elif key == "site":
                kv = _parse_kv(args[1:], key)
                add("sites", SiteDef(args[0], int(kv["nodes"]), float(kv["power"])))
            elif key == "site_template":
                kv = _parse_kv(args, key)
                kw["site_template"] = SiteDef(kv.get("prefix", "site"), int(kv["nodes"]),
                                              float(kv["power"]))
            elif key == "default_link":
                kv = _parse_kv(args, key)
                kw["default_link"] = NetworkLink(
                    "*", "*", float(kv["bandwidth"]), float(kv.get("latency", "0")),
                    float(kv.get("load", "0")))
            elif key == "link":
                if len(args) < 3:
                    raise ScenarioError("link takes two sites plus fields")
                kv = _parse_kv(args[2:], key)
                add("links", NetworkLink(
                    args[0], args[1], float(kv["bandwidth"]),
                    float(kv.get("latency", "0")), float(kv.get("load", "0"))))
            elif key == "user":
                kv = _parse_kv(args[1:], key)
                add("users", UserProfile(args[0], float(kv["quota"])))
            elif key == "fault":
                if len(args) != 3:
                    raise ScenarioError("fault takes action site time")
                add("faults", FaultDef(args[0], args[1], float(args[2])))
            else:
                raise ScenarioError(f"unknown key {key!r}")
        except (ValueError, KeyError) as exc:  # ScenarioError included
            what = "" if isinstance(exc, ScenarioError) else f"invalid {key} entry: "
            raise ScenarioError(f"line {lineno}: {what}{exc}") from exc
        if key in _SETTINGS or key in _ONCE:
            if name in given:
                raise _at_lines(f"{name} given twice", [lineno, lines[name]])
            if not preset:
                given.add(name)
            lines[name] = lineno
    try:
        return Scenario(**kw)
    except ScenarioError as exc:
        if not exc.about:  # a file without sites has no line to name
            raise
        # The last line is the offending one; a duplicate names its first.
        raise _at_lines(exc, [lines[a if isinstance(a, str) else id(a)]
                              for a in exc.about]) from exc


def _fmt(x) -> str:
    """The shortest text that parses back to exactly `x`."""
    if isinstance(x, Enum):
        return x.value
    return repr(x)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parsing it back yields an equal Scenario."""
    lines = [f"{key} {_fmt(getattr(s, key))}" for key in _SETTINGS]
    for kind in JobKind:
        if kind in s.weights:
            w = s.weights[kind]
            lines.append(f"weights {kind.value} {_fmt(w.w_c)} {_fmt(w.w_d)} {_fmt(w.w_n)}")
    for site in s.sites:
        lines.append(f"site {site.site_id} nodes={site.nodes} power={_fmt(site.power)}")
    if s.site_template is not None:
        t = s.site_template
        lines.append(f"site_template prefix={t.site_id} nodes={t.nodes} power={_fmt(t.power)}")
    if s.default_link is not None:
        d = s.default_link
        lines.append(f"default_link bandwidth={_fmt(d.bandwidth)} "
                     f"latency={_fmt(d.latency)} load={_fmt(d.background_load)}")
    for link in s.links:
        lines.append(f"link {link.from_site} {link.to_site} "
                     f"bandwidth={_fmt(link.bandwidth)} latency={_fmt(link.latency)} "
                     f"load={_fmt(link.background_load)}")
    for user in s.users:
        lines.append(f"user {user.user_id} quota={_fmt(user.quota)}")
    for b in s.bursts:
        demand = (f"{_fmt(b.demand[0])}:{_fmt(b.demand[1])}"
                  if isinstance(b.demand, tuple) else _fmt(b.demand))
        lines.append(f"burst time={_fmt(b.time)} user={b.user} site={b.site} "
                     f"count={b.count} demand={demand} procs={b.procs} "
                     f"data={_fmt(b.data)} data_site={b.data_site} kind={b.kind.value}"
                     + (" per_site=true" if b.per_site else ""))
    for f in s.faults:
        lines.append(f"fault {f.action} {f.site} {_fmt(f.time)}")
    return "\n".join(lines) + "\n"
