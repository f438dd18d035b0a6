"""The two protocols: their triggers and their routing rules.

THE-FAME sends each fatigue event in a single hop to the sender's
nearest sink. WSTM emits a status packet per alive player every
``wstm.period_s`` seconds (ten by default) and forwards it greedily: a
holder hands the packet straight to its nearest sink when that sink is
nearer than every other alive player, otherwise to the alive player
closest to that sink among those strictly closer to it than the holder
(ties to the lowest player id). A packet with no strictly-closer relay,
or one that runs out of hops, fails with no route.

The protocol name (``Scenario.protocol``) is the whole protocol
identity: it fixes the trigger, the sink preset and the routing rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import EmptySinkSetError, FieldConfig, distance, nearest_sink
from .mobility import PlayerKinematics
from .physiology import FatigueEvent

THEFAME = "thefame"
WSTM = "wstm"


@dataclass(frozen=True)
class Packet:
    packet_id: int
    origin: int
    created_at: int
    size_bits: int


@dataclass(frozen=True)
class Hop:
    src: int                        # sending player
    dst_player: Optional[int]       # exactly one of dst_player / dst_sink is set
    dst_sink: Optional[int]
    dist: float


@dataclass(frozen=True)
class Route:
    hops: tuple[Hop, ...]

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a route needs at least one hop")
        for a, b in zip(self.hops, self.hops[1:]):
            if a.dst_player is None or a.dst_player != b.src:
                raise ValueError("route hops are not contiguous")
        if self.hops[-1].dst_sink is None:
            raise ValueError("a route must terminate at a sink")

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def sink_id(self) -> int:
        return self.hops[-1].dst_sink

    @property
    def hop_distances(self) -> list[float]:
        return [h.dist for h in self.hops]


def thefame_route(player: PlayerKinematics, field: FieldConfig) -> Route:
    """Single hop from the player to its nearest sink."""
    sid, d = nearest_sink(player.position, field)
    return Route((Hop(player.player_id, None, sid, d),))


def wstm_route(player: PlayerKinematics, all_players: Sequence[PlayerKinematics],
               field: FieldConfig, max_hops: int) -> Optional[Route]:
    """Greedy geographic forwarding toward the holder's nearest sink.

    ``all_players`` must contain only alive players (the origin included);
    dead nodes never appear in routes. Returns None when the greedy rule
    dead-ends or the hop budget runs out.
    """
    if not field.sinks:
        raise EmptySinkSetError("field has no sinks")
    holder = player
    hops: list[Hop] = []
    while len(hops) < max_hops:
        hpos = holder.position
        sid, d_sink = nearest_sink(hpos, field)
        others = [q for q in all_players if q.player_id != holder.player_id]
        if all(distance(hpos, q.position) >= d_sink for q in others):
            hops.append(Hop(holder.player_id, None, sid, d_sink))
            return Route(tuple(hops))
        sink_pos = dict(field.sinks)[sid]
        best = None
        best_key = (d_sink, -1)
        for q in others:
            dq = distance(q.position, sink_pos)
            key = (dq, q.player_id)
            if dq < d_sink and (best is None or key < best_key):
                best, best_key = q, key
        if best is None:
            return None
        hops.append(Hop(holder.player_id, best.player_id, None,
                        distance(hpos, best.position)))
        holder = best
    return None


def trigger_transmissions(protocol: str, period_s: int, t: int,
                          fatigue_events: Iterable[FatigueEvent],
                          alive_players: Sequence[PlayerKinematics],
                          size_bits: int,
                          ids: Iterator[int]) -> list[Packet]:
    """Packets originated this round: one per fatigue event under thefame,
    one per alive player every ``period_s`` rounds under wstm."""
    if protocol == THEFAME:
        return [Packet(next(ids), ev.player_id, t, size_bits)
                for ev in fatigue_events]
    if t % period_s != 0:
        return []
    return [Packet(next(ids), k.player_id, t, size_bits) for k in alive_players]
