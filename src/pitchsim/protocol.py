"""The two protocols: their triggers and their routing rules.

THE-FAME sends each fatigue event in a single hop to the sender's
nearest sink. WSTM emits a status packet per alive player every
``wstm.period_s`` seconds (ten by default) and forwards it greedily: a
holder hands the packet straight to its nearest sink when that sink is
nearer than every other alive player, otherwise to the alive player
nearest that sink (ties to the lowest player id) if it is strictly
nearer than the holder; with no such relay, or out of hops, the packet
fails with no route. A step reads the holder, the positions and the
alive set, never the packet's origin.

So ``NextHops`` is the route table of one snapshot and alive set: it
computes each holder's whole route once, as its first hop and then its
relay's kept route, whatever its length. A kept None is a dead end; a
route too long for the budget is never kept as a refusal, since
``wstm_route`` looks the origin's route up and refuses it per call when
``len(hops) > max_hops``. To find whether some alive player is nearer
than its sink, a holder first tries the sink's nearest alive player,
whose distance is also the relay hop's, and scans the alive list only
when that one is no witness. Distances equal ``geometry.distance`` bit
for bit, with no ``Point`` built; a holder's own is
``nearest_sink_xy``'s, so it never relays to itself. ``Hop``
and ``Route`` are value records (NamedTuples). Only the routing rules
here and ``scenario.check_report_bounds`` build routes, so a route's
hops join up by construction; the tests check it.

Both rules read only positions: routers take player ids and a world
snapshot's two axes, ``xs`` and ``ys``, indexed by player id.

The protocol name (``Scenario.protocol``) is the whole protocol
identity: it fixes the trigger, the sink preset and the routing rule.
A trigger returns only packet origins; the engine numbers the packets.
"""

from __future__ import annotations

from array import array
from math import hypot, inf
from typing import Iterable, NamedTuple, Optional, Sequence

from .geometry import FieldConfig, nearest_sink_xy
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


def thefame_route(origin: int, xs: array, ys: array, field: FieldConfig) -> Route:
    """Single hop from the origin to its nearest sink."""
    sid, d, _ = nearest_sink_xy(xs[origin], ys[origin], field)
    return Route((Hop(origin, None, sid, d),))


class NextHops:
    """Every holder's greedy route over one snapshot and its alive players,
    computed on first use by ``wstm_route`` and kept: the holder's whole
    hop tuple to a sink, of any length, or None at a dead end. A relay
    hop is followed by the relay's own kept route, so ``hops`` recurses at
    most the alive count deep: the distance to the nearest sink strictly
    falls at each hop."""

    def __init__(self, alive: Sequence[int], xs: array, ys: array, field: FieldConfig):
        self.alive = alive              # ids, the origins included
        # plain lists: each read of an array('d') boxes a new float
        self.xs, self.ys = xs.tolist(), ys.tolist()
        self.field = field
        self.routes: dict[int, Optional[tuple[Hop, ...]]] = {}
        self.nearest: dict[int, tuple[float, int]] = {}   # by sink id

    def hops(self, hid: int) -> Optional[tuple[Hop, ...]]:
        xs, ys = self.xs, self.ys
        hx, hy = xs[hid], ys[hid]
        sid, d_sink, sink = nearest_sink_xy(hx, hy, self.field)
        if sid in self.nearest:
            best_d, best = self.nearest[sid]
        else:
            # ties to the lowest id, whatever the list order
            sx, sy = sink.x, sink.y
            best_d = best = inf
            for p in self.alive:
                d = hypot(xs[p] - sx, ys[p] - sy)
                if d < best_d or d == best_d and p < best:
                    best_d, best = d, p
            self.nearest[sid] = best_d, best
        # is any alive player nearer than the sink? The sink's nearest is
        # tried first, and its distance is the relay hop's
        d_relay = hypot(hx - xs[best], hy - ys[best])
        if best == hid or d_relay >= d_sink:
            for q in self.alive:
                if hypot(hx - xs[q], hy - ys[q]) < d_sink and q != hid:
                    break
            else:
                self.routes[hid] = route = (Hop(hid, None, sid, d_sink),)
                return route
        route = None
        if best_d < d_sink:
            rest = self.routes[best] if best in self.routes else self.hops(best)
            if rest is not None:
                route = (Hop(hid, best, None, d_relay),) + rest
        self.routes[hid] = route
        return route


def wstm_route(origin: int, table: NextHops, max_hops: int) -> Optional[Route]:
    """Greedy geographic forwarding toward the holder's nearest sink: the
    origin's route in ``table``. Returns None at a dead end (a kept None)
    or when the route has more than ``max_hops`` hops."""
    routes = table.routes
    hops = routes[origin] if origin in routes else table.hops(origin)
    return None if hops is None or len(hops) > max_hops else Route(hops)


def trigger_transmissions(protocol: str, period_s: int, t: int,
                          fatigue_events: Iterable[FatigueEvent],
                          alive: Sequence[int]) -> list[int]:
    """Origins of the packets triggered this round, in sending order: one
    per fatigue event under thefame, one per alive player every
    ``period_s`` rounds under wstm."""
    if protocol == THEFAME:
        return [ev.player_id for ev in fatigue_events]
    if t % period_s != 0:
        return []
    return list(alive)
