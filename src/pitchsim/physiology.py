"""Blood-lactate dynamics and the two-sided fatigue trigger.

Lactate follows a first-order production/clearance law stepped with
forward Euler, one step per one-second round:

    L' = L + alpha * max(0, v - v_aerobic) - beta * max(0, L - L_base)

Production engages only above the aerobic speed; clearance pulls the
level back toward baseline. The default production rate is chosen so
that a sustained top-speed effort starting from baseline reaches the
trigger threshold after three minutes with clearance disabled.

Fatigue is declared when either the lactate level or the cumulative
distance crosses its threshold. The lactate trigger re-arms only after
the level falls below a hysteresis fraction of the threshold; the
distance trigger fires at most once per match.

Both halves act on the whole squad, once per round: ``step_lactate``
steps every player's level in place, and one ``FatigueMonitor`` holds
every player's trigger flags and returns the round's events in player
order, at most one per player. Per player, the floats and the events are
those of the scalar law and trigger above.

Units: mmol/L for concentration, km/h for speed, seconds for time,
km for distance. Reports convert mmol/L to mg/dL with the 9.0 factor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import inf, isfinite
from typing import NamedTuple

from .mobility import MobilityParams, PlayerKinematics

MGDL_PER_MMOL_L = 9.0

LACTATE, DISTANCE = "lactate", "distance"   # the cause of a fatigue event


def onset_alpha(l_base: float, l_threshold: float, v_peak: float, v_aerobic: float,
                onset_s: float = 180.0) -> float:
    """Production rate that lifts baseline to threshold after ``onset_s``
    seconds at ``v_peak``, with clearance disabled."""
    return (l_threshold - l_base) / (onset_s * (v_peak - v_aerobic))


@dataclass(frozen=True)
class FatigueThresholds:
    """The composite trigger's thresholds: lactate in mmol/L, distance in
    km, and the fraction of the lactate threshold below which the lactate
    trigger re-arms."""

    lactate: float = 2.2         # mmol/L
    distance_km: float = 11.0
    hysteresis: float = 0.9      # lactate re-arm fraction of threshold

    def __post_init__(self):
        if not (0 < self.lactate < inf and 0 < self.distance_km < inf):
            raise ValueError("thresholds must be in (0, inf)")
        if not 0.0 < self.hysteresis <= 1.0:
            raise ValueError("hysteresis must be in (0, 1]")


@dataclass(frozen=True)
class LactateParams:
    """The lactate law's settings: the baseline ``l_base`` in mmol/L, the
    aerobic speed in km/h, the production rate ``alpha`` in mmol/L per
    second per km/h above the aerobic speed, and the clearance rate
    ``beta`` per second."""

    l_base: float = 1.0
    v_aerobic: float = 12.9
    # three minutes from baseline to the default trigger level at sprint speed
    alpha: float = onset_alpha(l_base, FatigueThresholds.lactate, MobilityParams.v_sprint,
                               v_aerobic)
    beta: float = 0.005          # 1/s; clearance half-life ~2.3 min at rest

    def __post_init__(self):
        if not isfinite(self.l_base):
            raise ValueError("l_base must be finite")
        if not isfinite(self.v_aerobic):
            raise ValueError("v_aerobic must be finite")
        if not 0 < self.alpha < inf:
            raise ValueError("alpha must be in (0, inf)")
        # Euler at 1 s steps turns unstable once beta approaches 1
        if not 0 <= self.beta < 1.0:
            raise ValueError("beta must be in [0, 1) for a stable 1 s step")


def step_lactate(levels: list[float], players: Sequence[PlayerKinematics],
                 params: LactateParams) -> None:
    """One 1 s Euler step of the production/clearance law for every
    player, in place: ``levels[i]`` moves at ``players[i].speed_kmh``.
    A level never falls below zero."""
    l_base, v_aerobic, alpha, beta = params.l_base, params.v_aerobic, params.alpha, params.beta
    for i, kin in enumerate(players):
        level = levels[i]
        # alpha * max(0.0, d) without a builtin call or a product with zero:
        # alpha is in (0, inf) and beta in [0, 1), so the floats are the same
        d = kin.speed_kmh - v_aerobic
        production = alpha * d if d > 0.0 else 0.0
        d = level - l_base
        clearance = beta * d if d > 0.0 else 0.0
        new = level + (production - clearance)
        levels[i] = new if new > 0.0 else 0.0


class FatigueEvent(NamedTuple):
    """A value record: one trigger of one player's fatigue, at ``time``."""
    player_id: int
    time: float
    cause: str
    value: float


class FatigueMonitor:
    """Every player's trigger state: lactate hysteresis and one-shot
    distance, one flag of each per player, in the order of ``players``."""

    def __init__(self, thresholds: FatigueThresholds, players: Sequence[PlayerKinematics]):
        self.thresholds = thresholds
        self._rearm = thresholds.lactate * thresholds.hysteresis
        self._lactate_armed = [True] * len(players)
        self._distance_fired = [False] * len(players)

    def check(self, levels: list[float], players: Sequence[PlayerKinematics],
              t: float) -> list[FatigueEvent] | None:
        """Evaluate every player's composite trigger at ``levels[i]`` and
        ``players[i].cumulative_km``. At most one event per player, lactate
        before distance; the events come in player order, and a round with
        none returns None."""
        threshold, rearm = self.thresholds.lactate, self._rearm
        distance_km = self.thresholds.distance_km
        armed, distance_fired = self._lactate_armed, self._distance_fired
        events = []
        for i, kin in enumerate(players):
            level = levels[i]
            if not armed[i] and level < rearm:
                armed[i] = True
            if armed[i] and level >= threshold:
                armed[i] = False
                events.append(FatigueEvent(kin.player_id, t, LACTATE, level))
            elif not distance_fired[i] and kin.cumulative_km >= distance_km:
                distance_fired[i] = True
                events.append(FatigueEvent(kin.player_id, t, DISTANCE,
                                           kin.cumulative_km))
        return events or None
