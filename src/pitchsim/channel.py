"""Lossy per-hop channel and end-to-end delay accounting.

Each hop attempt is an independent Bernoulli trial, so a multi-hop
delivery survives only if every hop survives. Delay per hop is
transmission time (size / data rate) plus propagation (distance over
the speed of light, negligible at pitch scale) plus a fixed per-hop
processing term; the processing term is what makes hop count dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

from .geometry import METERS_PER_YARD

if TYPE_CHECKING:
    from .protocol import Route

SPEED_OF_LIGHT_YDS = 299_792_458.0 / METERS_PER_YARD


@dataclass(frozen=True)
class ChannelParams:
    """The lossy channel: each hop is dropped with ``drop_probability``, and
    a delivered packet's delay is, per hop, its bits over ``data_rate_bps``
    (bit/s) plus the propagation time plus ``per_hop_processing_s`` seconds."""

    drop_probability: float = 0.30
    data_rate_bps: float = 250_000.0
    per_hop_processing_s: float = 0.005

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        if not 0 < self.data_rate_bps < inf:
            raise ValueError("data_rate_bps must be in (0, inf)")
        if not 0 <= self.per_hop_processing_s < inf:
            raise ValueError("per_hop_processing_s must be in [0, inf)")


def transmit_hop(params: ChannelParams, rng: random.Random) -> bool:
    """One hop attempt; True when delivered."""
    return rng.random() >= params.drop_probability


def propagation_delay(params: ChannelParams, route: "Route", size_bits: float) -> float:
    """End-to-end delay of a delivered packet over the given route."""
    total = 0.0
    for hop in route.hops:
        total += (size_bits / params.data_rate_bps
                  + hop.dist / SPEED_OF_LIGHT_YDS
                  + params.per_hop_processing_s)
    return total
