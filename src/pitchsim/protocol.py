"""The two protocols: their triggers and their routing rules.

THE-FAME sends each fatigue event in a single hop to the sender's
nearest sink. WSTM emits a status packet per alive player every
``wstm.period_s`` seconds (ten by default) and forwards it greedily: a
holder hands the packet straight to its nearest sink when that sink is
nearer than every other alive player, otherwise to the alive player
nearest that sink (ties to the lowest player id) if it is strictly
nearer than the holder; with no such relay, or out of hops, the packet
fails with no route. A step reads the holder, the positions and the
alive set, never the packet's origin, so ``NextHops`` computes each
holder's step once per snapshot and alive set. Distances equal
``geometry.distance`` bit for bit, with no ``Point`` built; a holder's
own is ``nearest_sink_xy``'s, so it never relays to itself. ``Hop``
and ``Route`` are value records (NamedTuples). Only the routing rules
here and ``scenario.check_report_bounds`` build routes, so a route's
hops join up by construction; the tests check it.

The protocol name (``Scenario.protocol``) is the whole protocol
identity: it fixes the trigger, the sink preset and the routing rule.
A trigger returns only packet origins; the engine numbers the packets.
"""

from __future__ import annotations

from math import hypot, inf
from typing import Iterable, NamedTuple, Optional, Sequence

from .geometry import FieldConfig, nearest_sink_xy
from .mobility import PlayerKinematics
from .physiology import FatigueEvent

THEFAME = "thefame"
WSTM = "wstm"


class Hop(NamedTuple):
    """One hop of a route, a value record."""
    src: int                        # sending player
    dst_player: Optional[int]       # exactly one of dst_player / dst_sink is set
    dst_sink: Optional[int]
    dist: float


class Route(NamedTuple):
    """The hops of a found route, origin first: never empty, each hop
    sent by the player the previous one reached, the last to a sink."""
    hops: tuple[Hop, ...]

    @property
    def n_hops(self) -> int:
        return len(self.hops)


def thefame_route(player: PlayerKinematics, field: FieldConfig) -> Route:
    """Single hop from the player to its nearest sink."""
    sid, d, _ = nearest_sink_xy(player.x, player.y, field)
    return Route((Hop(player.player_id, None, sid, d),))


class NextHops:
    """The greedy steps of one snapshot over its alive players, each
    computed on first use by ``wstm_route`` and kept: ``(hop, relay)``,
    with relay None on a sink hop, or None at a dead end."""

    def __init__(self, players: Sequence[PlayerKinematics], field: FieldConfig):
        self.players = players          # alive only, the origins included
        self.field = field
        self.steps: dict[int, Optional[tuple[Hop, Optional[PlayerKinematics]]]] = {}
        self.nearest: dict[int, tuple[float, int, PlayerKinematics]] = {}  # by sink id

    def step(self, holder: PlayerKinematics) -> Optional[tuple[Hop, Optional[PlayerKinematics]]]:
        hid, hx, hy = holder.player_id, holder.x, holder.y
        sid, d_sink, sink = nearest_sink_xy(hx, hy, self.field)
        for q in self.players:
            if hypot(hx - q.x, hy - q.y) < d_sink and q.player_id != hid:
                if sid in self.nearest:
                    best_d, best_id, best = self.nearest[sid]
                else:
                    # ties to the lowest id, whatever the list order
                    sx, sy = sink.x, sink.y
                    best_d = best_id = inf
                    for p in self.players:
                        d = hypot(p.x - sx, p.y - sy)
                        if d < best_d or d == best_d and p.player_id < best_id:
                            best_d, best_id, best = d, p.player_id, p
                    self.nearest[sid] = best_d, best_id, best
                step = None if best_d >= d_sink else (
                    Hop(hid, best_id, None, hypot(hx - best.x, hy - best.y)), best)
                break
        else:
            step = (Hop(hid, None, sid, d_sink), None)
        self.steps[hid] = step
        return step


def wstm_route(player: PlayerKinematics, table: NextHops,
               max_hops: int) -> Optional[Route]:
    """Greedy geographic forwarding toward the holder's nearest sink, one
    step of ``table`` per hop. Returns None when the greedy rule dead-ends
    or the hop budget runs out."""
    steps, hops, holder = table.steps, [], player
    while len(hops) < max_hops:
        hid = holder.player_id
        step = steps[hid] if hid in steps else table.step(holder)
        if step is None:
            return None
        hop, holder = step
        hops.append(hop)
        if holder is None:
            return Route(tuple(hops))
    return None


def trigger_transmissions(protocol: str, period_s: int, t: int,
                          fatigue_events: Iterable[FatigueEvent],
                          alive_players: Sequence[PlayerKinematics]) -> list[int]:
    """Origins of the packets triggered this round, in sending order: one
    per fatigue event under thefame, one per alive player every
    ``period_s`` rounds under wstm."""
    if protocol == THEFAME:
        return [ev.player_id for ev in fatigue_events]
    if t % period_s != 0:
        return []
    return [k.player_id for k in alive_players]
