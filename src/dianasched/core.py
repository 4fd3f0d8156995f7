"""Shared domain types and unit conventions.

All quantities use decimal units: 1 GB = 10^9 bytes, 1 Mbps = 10^6 bits/s,
1 MFLOP = 10^6 floating-point operations.  Durations are seconds of
simulated time throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class JobKind(str, Enum):
    COMPUTE_INTENSIVE = "compute_intensive"
    DATA_INTENSIVE = "data_intensive"
    MIXED = "mixed"


class JobStatus(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED_UNREACHABLE = "failed_unreachable"
    REJECTED_UNSCHEDULABLE = "rejected_unschedulable"


@dataclass(slots=True, eq=False)
class Job:
    """One job, the one object that stands for it from workload expansion
    to the jobs.csv row.

    The first eight fields are the job's spec: its compute demand,
    processor need and input data, fixed once the workload is expanded.
    `submit_site` is the site whose meta-scheduler receives it.  The
    rest is run state, which only the engine writes.  Jobs compare by
    identity.
    """

    job_id: str
    user_id: str
    compute_demand: float  # MFLOP
    processors_required: int
    data_size: float  # bytes
    data_site: str
    submit_time: float
    kind: JobKind = JobKind.MIXED
    submit_site: Optional[str] = None
    status: JobStatus = field(default=JobStatus.PENDING, init=False)
    scheduled: Optional[float] = field(default=None, init=False)  # placement time
    started: Optional[float] = field(default=None, init=False)
    completed: Optional[float] = field(default=None, init=False)
    exec_site: Optional[str] = field(default=None, init=False)
    transfer_total: float = field(default=0.0, init=False)
    migrations: int = field(default=0, init=False)

    @property
    def spec(self) -> "Job":
        """The job itself, whose spec fields are its own: for callers
        outside the package that read `job.spec.job_id`.  The package
        never reads it, and a hot path must not."""
        return self

    @property
    def queue_time(self) -> Optional[float]:
        if self.started is None:
            return None
        return self.started - self.submit_time - self.transfer_total

    @property
    def exec_time(self) -> Optional[float]:
        if self.completed is None:
            return None
        return self.completed - self.submit_time


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    quota: float  # jobs permitted per quota period, used as a static weight

    def __post_init__(self):
        if not (math.isfinite(self.quota) and self.quota > 0):
            raise ValueError(f"user {self.user_id}: quota must be finite and > 0")


@dataclass(frozen=True)
class NetworkLink:
    from_site: str
    to_site: str
    bandwidth: float  # Mbps
    latency: float = 0.0  # seconds
    background_load: float = 0.0  # fraction of bandwidth in [0, 1)
    # Bandwidth left over after competing background traffic, in Mbps;
    # derived from the two above when the link is built.
    available: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("link bandwidth must be finite and > 0")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError("link latency must be finite and >= 0")
        if not 0 <= self.background_load < 1:
            raise ValueError("link background_load must be in [0, 1)")
        object.__setattr__(self, "available",
                           self.bandwidth * (1.0 - self.background_load))


class UnreachableSiteError(Exception):
    """No network path exists between two distinct sites."""


class Topology:
    """Link lookup with an optional default link for absent pairs."""

    def __init__(self, links=None, default_link: Optional[NetworkLink] = None):
        self._links = {}
        for link in links or []:
            self._links[(link.from_site, link.to_site)] = link
            self._links[(link.to_site, link.from_site)] = link
        self.default_link = default_link

    def link_between(self, a: str, b: str) -> Optional[NetworkLink]:
        """Link connecting two sites; None when they are the same site.

        An absent pair gets the default link itself, whose endpoints are
        placeholders.
        """
        if a == b:
            return None
        link = self._links.get((a, b), self.default_link)
        if link is not None:
            return link
        raise UnreachableSiteError(f"no link between {a} and {b}")
