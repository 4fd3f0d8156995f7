"""Deterministic simulator and library for P2P grid meta-scheduling.

Implements the DIANA scheduling algorithm (quota-weighted multi-queue
priorities, cost-based site selection, congestion-triggered bulk job
migration, peer discovery) alongside Round Robin and FLOP-greedy
baselines, on top of a seeded discrete-event engine.  The package
exports what the README's library example uses; everything else lives
in its module.
"""

from .engine import run_scenario
from .scenario import parse_scenario, serialize_scenario
