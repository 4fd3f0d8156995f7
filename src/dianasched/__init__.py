"""Deterministic simulator and library for P2P grid meta-scheduling.

Implements the DIANA scheduling algorithm (quota-weighted multi-queue
priorities, cost-based site selection, congestion-triggered bulk job
migration, peer discovery) alongside Round Robin and FLOP-greedy
baselines, on top of a seeded discrete-event engine.
"""

from .baselines import (QueueDiscipline, SchedulerKind, flop_schedule,
                        rr_schedule, sjf_order)
from .core import (JobKind, JobSpec, NetworkLink, RateEstimator, Topology,
                   UnreachableSiteError, UserProfile, available_bandwidth)
from .costs import (CostBreakdown, CostWeights, PRESET_WEIGHTS,
                    compute_cost, network_cost, total_cost, transfer_cost)
from .discovery import PeerRegistry
from .engine import (JobStatus, RunResult, Simulation, generate_workload,
                     run_scenario, workload_hash)
from .presets import scenario_preset
from .queueing import MultilevelQueue, congestion_ratio, is_congested, priority
from .scenario import Scenario, ScenarioError, parse_scenario, serialize_scenario
from .scheduler import (PeerSnapshot, SchedulingDecision, UnschedulableError,
                        classify, migrate_batch, schedule)

__version__ = "0.1.0"
