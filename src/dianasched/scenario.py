"""Scenario file parsing, validation and canonical serialization.

The format is line-oriented: one `key value` or record line per
statement, `#` comments, blank lines ignored.  See docs/scenario-format.md
for the full grammar.  Unknown keys are rejected, and an error in one
line's values names that line and field; checks that relate lines to
each other (undefined or duplicate ids) are file-level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .baselines import QueueDiscipline, SchedulerKind
from .core import JobKind, NetworkLink, UserProfile
from .costs import REFERENCE_BANDWIDTH, CostWeights

DemandSpec = Union[float, Tuple[float, float]]  # point value or uniform range


class ScenarioError(ValueError):
    pass


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


@dataclass(frozen=True)
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
        if self.count < 1:
            raise ValueError("burst count must be >= 1")
        if self.procs < 1:
            raise ValueError("burst procs must be >= 1")


@dataclass(frozen=True)
class FaultDef:
    action: str  # crash | register | deregister
    site: str
    time: float

    def __post_init__(self):
        if self.action not in ("crash", "register", "deregister"):
            raise ValueError(f"unknown fault action {self.action!r}")


@dataclass
class Scenario:
    scheduler: SchedulerKind = SchedulerKind.DIANA
    queue: QueueDiscipline = QueueDiscipline.PRIORITY_MULTIQUEUE
    thrs: float = 0.3  # congestion threshold, administrator-configurable
    batch_size: int = 10
    migration_cutoff: float = 0.0  # only jobs with priority < cutoff migrate
    migration_enabled: bool = True
    poll_interval: float = 30.0
    echo_interval: float = 60.0
    echo_retries: int = 1
    rate_interval: float = 10.0
    alpha: float = 0.2
    b_ref: float = REFERENCE_BANDWIDTH
    duration_cap: float = 0.0  # 0 disables the cap
    weights: Dict[JobKind, CostWeights] = field(default_factory=dict)
    sites: List[SiteDef] = field(default_factory=list)
    site_template: Optional[SiteDef] = None  # site_id is a name prefix
    site_count: int = 0
    default_link: Optional[NetworkLink] = None
    links: List[NetworkLink] = field(default_factory=list)
    users: List[UserProfile] = field(default_factory=list)
    bursts: List[BurstDef] = field(default_factory=list)
    faults: List[FaultDef] = field(default_factory=list)

    def resolved_sites(self) -> List[SiteDef]:
        """Explicit sites plus the template expansion, in declaration order."""
        out = list(self.sites)
        if self.site_template is not None:
            prefix = self.site_template.site_id
            out += [SiteDef(f"{prefix}{i:03d}", self.site_template.nodes,
                            self.site_template.power)
                    for i in range(1, self.site_count + 1)]
        return out

    def validate(self) -> None:
        """Check the whole scenario; also covers scenarios built in code."""
        if self.site_count and self.site_template is None:
            raise ScenarioError("site_count needs a site_template")
        ids = [s.site_id for s in self.resolved_sites()]
        if not ids:
            raise ScenarioError("scenario defines no sites")
        if len(set(ids)) != len(ids):
            raise ScenarioError("duplicate site ids")
        for key in _SETTING_RANGES:
            _check_setting(key, getattr(self, key))
        if (self.queue is QueueDiscipline.PRIORITY_MULTIQUEUE
                and self.scheduler is not SchedulerKind.DIANA):
            raise ScenarioError("priority queue discipline requires the diana scheduler")
        known_sites = set(ids)
        for link in self.links:
            for end in (link.from_site, link.to_site):
                if end not in known_sites:
                    raise ScenarioError(f"link references undefined site {end!r}")
            if link.from_site == link.to_site:
                raise ScenarioError(f"link from {link.from_site} to itself")
        pairs = {frozenset((l.from_site, l.to_site)) for l in self.links}
        if len(pairs) != len(self.links):  # links are symmetric
            raise ScenarioError("duplicate links between one pair of sites")
        users = {u.user_id for u in self.users}
        if len(users) != len(self.users):
            raise ScenarioError("duplicate user ids")
        for b in self.bursts:
            if b.user not in users:
                raise ScenarioError(f"burst references undefined user {b.user!r}")
            if b.site not in known_sites:
                raise ScenarioError(f"burst references undefined site {b.site!r}")
            if b.data_site not in known_sites:
                raise ScenarioError(f"burst data_site {b.data_site!r} is undefined")
        for f in self.faults:
            if f.site not in known_sites:
                raise ScenarioError(f"fault references undefined site {f.site!r}")


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
    "site_count": (lambda v: v >= 0, ">= 0"),
}


def _check_setting(key: str, value, where: str = "") -> None:
    """Raise ScenarioError, prefixed by `where`, when `value` is out of range."""
    test, rule = _SETTING_RANGES[key]
    if not (math.isfinite(value) and test(value)):
        raise ScenarioError(f"{where}{key} must be {rule}, got {value!r}")


_SCALAR_KEYS = {
    "scheduler": lambda v: SchedulerKind(v),
    "queue": lambda v: QueueDiscipline(v),
    "thrs": float,
    "batch_size": int,
    "migration_cutoff": float,
    "migration_enabled": _parse_bool,
    "poll_interval": float,
    "echo_interval": float,
    "echo_retries": int,
    "rate_interval": float,
    "alpha": float,
    "b_ref": float,
    "duration_cap": float,
    "site_count": int,
}


def _parse_kv(parts: List[str], required: List[str], lineno: int,
              optional: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    got = dict(optional or {})
    seen = set()
    for part in parts:
        if "=" not in part:
            raise ScenarioError(f"line {lineno}: expected key=value, got {part!r}")
        k, v = part.split("=", 1)
        if k not in required and k not in (optional or {}):
            raise ScenarioError(f"line {lineno}: unknown field {k!r}")
        got[k] = v
        seen.add(k)
    missing = [k for k in required if k not in seen]
    if missing:
        raise ScenarioError(f"line {lineno}: missing field(s) {', '.join(missing)}")
    return got


def _non_negative(name: str, text: str) -> float:
    """A finite number >= 0; NaN and infinities are rejected."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {text!r}")
    return value


def _parse_demand(text: str, lineno: int) -> DemandSpec:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = _non_negative("demand", lo), _non_negative("demand", hi)
        if hi < lo:
            raise ScenarioError(f"line {lineno}: demand range {text!r} is inverted")
        return (lo, hi)
    return _non_negative("demand", text)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; errors carry line numbers."""
    from .presets import scenario_preset  # late import, presets build Scenarios

    scenario = Scenario()
    first = True
    link_lines: Dict[frozenset, int] = {}  # links are symmetric
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key == "preset" and not first:
            # A preset replaces the whole scenario built so far.
            raise ScenarioError(f"line {lineno}: preset must be the first statement")
        first = False
        try:
            if key in _SCALAR_KEYS:
                if len(args) != 1:
                    raise ScenarioError(f"line {lineno}: {key} takes one value")
                value = _SCALAR_KEYS[key](args[0])
                if key in _SETTING_RANGES:
                    _check_setting(key, value, f"line {lineno}: ")
                setattr(scenario, key, value)
            elif key == "preset":
                if len(args) != 1:
                    raise ScenarioError(f"line {lineno}: preset takes one name")
                scenario = scenario_preset(args[0])
            elif key == "weights":
                if len(args) != 4:
                    raise ScenarioError(f"line {lineno}: weights takes kind wc wd wn")
                kind = JobKind(args[0])
                scenario.weights[kind] = CostWeights(*(float(a) for a in args[1:]))
            elif key == "site":
                kv = _parse_kv(args[1:], ["nodes", "power"], lineno)
                scenario.sites.append(SiteDef(args[0], int(kv["nodes"]), float(kv["power"])))
            elif key == "site_template":
                kv = _parse_kv(args, ["nodes", "power"], lineno, {"prefix": "site"})
                scenario.site_template = SiteDef(kv["prefix"], int(kv["nodes"]),
                                                 float(kv["power"]))
            elif key == "default_link":
                kv = _parse_kv(args, ["bandwidth"], lineno, {"latency": "0", "load": "0"})
                scenario.default_link = NetworkLink(
                    "*", "*", float(kv["bandwidth"]), float(kv["latency"]),
                    float(kv["load"]))
            elif key == "link":
                if len(args) < 3:
                    raise ScenarioError(f"line {lineno}: link takes two sites plus fields")
                if args[0] == args[1]:
                    raise ScenarioError(
                        f"line {lineno}: link from {args[0]} to itself")
                pair = frozenset(args[:2])
                if pair in link_lines:
                    raise ScenarioError(
                        f"line {lineno}: duplicate link between {args[0]} and "
                        f"{args[1]} (first on line {link_lines[pair]})")
                link_lines[pair] = lineno
                kv = _parse_kv(args[2:], ["bandwidth"], lineno, {"latency": "0", "load": "0"})
                scenario.links.append(NetworkLink(
                    args[0], args[1], float(kv["bandwidth"]), float(kv["latency"]),
                    float(kv["load"])))
            elif key == "user":
                kv = _parse_kv(args[1:], ["quota"], lineno)
                scenario.users.append(UserProfile(args[0], float(kv["quota"])))
            elif key == "burst":
                kv = _parse_kv(args, ["time", "user", "site", "count", "demand",
                                      "procs", "data_site"],
                               lineno, {"data": "0", "kind": "mixed",
                                        "per_site": "false"})
                scenario.bursts.append(BurstDef(
                    time=_non_negative("time", kv["time"]), user=kv["user"],
                    site=kv["site"],
                    count=int(kv["count"]),
                    demand=_parse_demand(kv["demand"], lineno),
                    procs=int(kv["procs"]),
                    data=_non_negative("data", kv["data"]),
                    data_site=kv["data_site"], kind=JobKind(kv["kind"]),
                    per_site=_parse_bool(kv["per_site"])))
            elif key == "fault":
                if len(args) != 3:
                    raise ScenarioError(f"line {lineno}: fault takes action site time")
                scenario.faults.append(
                    FaultDef(args[0], args[1], _non_negative("time", args[2])))
            else:
                raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        except ScenarioError:
            raise
        except (ValueError, KeyError) as exc:
            raise ScenarioError(f"line {lineno}: invalid {key} entry: {exc}") from exc
    scenario.validate()
    return scenario


def _fmt(x: float) -> str:
    """The shortest text that parses back to exactly `x`."""
    return repr(x)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text form; parsing it back yields an equal Scenario."""
    lines = []
    lines.append(f"scheduler {s.scheduler.value}")
    lines.append(f"queue {s.queue.value}")
    for key in ("thrs", "migration_cutoff", "poll_interval", "echo_interval",
                "rate_interval", "alpha", "b_ref", "duration_cap"):
        lines.append(f"{key} {_fmt(getattr(s, key))}")
    lines.append(f"batch_size {s.batch_size}")
    lines.append(f"echo_retries {s.echo_retries}")
    lines.append(f"migration_enabled {'true' if s.migration_enabled else 'false'}")
    for kind in JobKind:
        if kind in s.weights:
            w = s.weights[kind]
            lines.append(f"weights {kind.value} {_fmt(w.w_c)} {_fmt(w.w_d)} {_fmt(w.w_n)}")
    for site in s.sites:
        lines.append(f"site {site.site_id} nodes={site.nodes} power={_fmt(site.power)}")
    if s.site_template is not None:
        t = s.site_template
        lines.append(f"site_template prefix={t.site_id} nodes={t.nodes} power={_fmt(t.power)}")
        lines.append(f"site_count {s.site_count}")
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
