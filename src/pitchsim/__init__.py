"""Deterministic simulator comparing fatigue-triggered direct-to-sink
routing against a periodic greedy multi-hop baseline for on-player
sensor networks on a soccer pitch."""

from .engine import MatchResult, World, run_match
from .scenario import Scenario, ScenarioError, parse_scenario

__version__ = "0.1.0"
