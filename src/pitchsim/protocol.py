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
from math import hypot
from typing import Iterable, Iterator, Optional, Sequence

from .geometry import FieldConfig, nearest_sink_xy
from .mobility import PlayerKinematics
from .physiology import FatigueEvent

THEFAME = "thefame"
WSTM = "wstm"


@dataclass(frozen=True)
class Packet:
    """One triggered packet; the round that sends it is its creation time."""
    packet_id: int
    origin: int


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


def thefame_route(player: PlayerKinematics, field: FieldConfig) -> Route:
    """Single hop from the player to its nearest sink."""
    sid, d, _ = nearest_sink_xy(player.x, player.y, field)
    return Route((Hop(player.player_id, None, sid, d),))


def wstm_route(player: PlayerKinematics, all_players: Sequence[PlayerKinematics],
               field: FieldConfig, max_hops: int) -> Optional[Route]:
    """Greedy geographic forwarding toward the holder's nearest sink.

    ``all_players`` must contain only alive players (the origin included);
    dead nodes never appear in routes. Returns None when the greedy rule
    dead-ends or the hop budget runs out.

    It reads raw coordinates and builds no ``Point``; every distance it
    compares or puts in a ``Hop`` equals ``geometry.distance`` bit for
    bit; the holder's sink comes from ``nearest_sink_xy``, as under thefame.
    """
    holder = player
    hops: list[Hop] = []
    while len(hops) < max_hops:
        hid, hx, hy = holder.player_id, holder.x, holder.y
        sid, d_sink, sink = nearest_sink_xy(hx, hy, field)
        sx, sy = sink.x, sink.y
        direct = True
        best, best_d, best_id = None, d_sink, -1
        for q in all_players:
            qid = q.player_id
            if qid == hid:
                continue
            qx, qy = q.x, q.y
            if direct and hypot(hx - qx, hy - qy) < d_sink:
                direct = False
            dq = hypot(qx - sx, qy - sy)
            if dq < best_d or (dq == best_d and qid < best_id):
                best, best_d, best_id = q, dq, qid
        if direct:
            hops.append(Hop(hid, None, sid, d_sink))
            return Route(tuple(hops))
        if best is None:
            return None
        hops.append(Hop(hid, best_id, None, hypot(hx - best.x, hy - best.y)))
        holder = best
    return None


def trigger_transmissions(protocol: str, period_s: int, t: int,
                          fatigue_events: Iterable[FatigueEvent],
                          alive_players: Sequence[PlayerKinematics],
                          ids: Iterator[int]) -> list[Packet]:
    """Packets originated this round: one per fatigue event under thefame,
    one per alive player every ``period_s`` rounds under wstm."""
    if protocol == THEFAME:
        return [Packet(next(ids), ev.player_id) for ev in fatigue_events]
    if t % period_s != 0:
        return []
    return [Packet(next(ids), k.player_id) for k in alive_players]
