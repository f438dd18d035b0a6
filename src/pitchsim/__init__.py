"""Deterministic simulator comparing fatigue-triggered direct-to-sink
routing against a periodic greedy multi-hop baseline for on-player
sensor networks on a soccer pitch."""

from .channel import ChannelParams, propagation_delay, transmit_hop
from .energy import (Battery, RadioModel, direct_tx_energy, multihop_rx_energy,
                     multihop_total_energy, multihop_tx_energy)
from .engine import (MatchResult, MetricsLog, aggregate, run_match,
                     simulate_mobility, stability_period)
from .geometry import FieldConfig, Point, clamp_to_field, distance, nearest_sink
from .mobility import MobilityParams, PlayerKinematics, SpeedMode
from .physiology import (FatigueCause, FatigueEvent, FatigueMonitor,
                         FatigueThresholds, LactateParams, step_lactate)
from .protocol import (Packet, Route, thefame_route, trigger_transmissions,
                       wstm_route)
from .report import throughput_pct
from .scenario import (ParseError, Scenario, ScenarioError, ValidationError,
                       parse_scenario, parse_scenario_text)

__version__ = "0.1.0"
