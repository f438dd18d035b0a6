import itertools
import math
import random
import struct
from array import array
from typing import NamedTuple

from pitchsim.geometry import FieldConfig, Point, nearest_sink_xy
from pitchsim.physiology import DISTANCE, LACTATE, FatigueEvent
from pitchsim.protocol import (THEFAME, WSTM, Hop, NextHops, Route,
                               thefame_route, trigger_transmissions, wstm_route)
from test_geometry import distance

SIX = FieldConfig.six_sinks()
TWO = FieldConfig.goal_sinks()


class Player(NamedTuple):
    """A player's position: what the oracles read and snapshots are built from."""
    player_id: int
    x: float
    y: float


def player(pid, x, y):
    return Player(pid, float(x), float(y))


def snapshot(players):
    """``players`` as the routers read them: their ids in list order, and
    two ``array('d')`` axes indexed by player id (NaN at unused ids)."""
    xs = array("d", [math.nan]) * (1 + max(p.player_id for p in players))
    ys = array("d", xs)
    for p in players:
        xs[p.player_id], ys[p.player_id] = p.x, p.y
    return [p.player_id for p in players], xs, ys


def table(players, field):
    """A next-hop table over ``players``, all of them alive."""
    return NextHops(*snapshot(players), field)


def fame_route(p, field):
    _, xs, ys = snapshot([p])
    return thefame_route(p.player_id, xs, ys, field)


def assert_joined_up(route, origin):
    """A found route leaves ``origin``, each hop is sent by the player the
    previous one reached, and only the last hop reaches a sink."""
    hops = route.hops
    assert hops and hops[0].src == origin.player_id
    for a, b in zip(hops, hops[1:]):
        assert a.dst_sink is None and a.dst_player == b.src
    assert hops[-1].dst_player is None and hops[-1].dst_sink is not None


def test_thefame_route_is_single_hop_to_nearest():
    r = fame_route(player(3, 1, 34), SIX)
    assert r.n_hops == 1
    assert r.hops[-1].dst_sink == 1
    assert r.hops[0].dist == 1.0


def test_thefame_route_coincident_sink():
    r = fame_route(player(0, 0, 34), SIX)
    assert r.n_hops == 1 and r.hops[0].dist == 0.0


def test_thefame_always_one_hop():
    rng = random.Random(8)
    for _ in range(200):
        p = player(0, rng.uniform(0, 106), rng.uniform(0, 68))
        r = fame_route(p, SIX)
        assert_joined_up(r, p)
        assert r.n_hops == 1


def test_wstm_goalkeeper_sends_direct():
    gk = player(0, 5, 34)       # 5 yards from the left goal sink
    mate = player(1, 30, 34)    # every other player farther than the sink
    r = wstm_route(0, table([gk, mate], TWO), max_hops=10)
    assert r is not None
    assert r.n_hops == 1 and r.hops[-1].dst_sink == 1


def test_wstm_relay_between_holder_and_sink():
    holder = player(0, 40, 34)
    relay = player(1, 20, 34)   # exactly between holder and sink 1
    r = wstm_route(0, table([holder, relay], TWO), max_hops=10)
    assert r is not None
    assert [h.dst_player or -1 for h in r.hops] == [1, -1]
    assert r.n_hops == 2
    assert r.hops[-1].dst_sink == 1


def test_wstm_degenerates_to_direct_with_no_other_players():
    lone = player(0, 53, 10)
    r = wstm_route(0, table([lone], TWO), max_hops=10)
    assert r is not None and r.n_hops == 1


def test_wstm_dead_end_is_no_route():
    # a closer teammate that is NOT closer to the sink blocks the greedy rule
    holder = player(0, 50, 34)
    behind = player(1, 52, 34)  # nearer to the holder than sink 1, farther from it
    assert wstm_route(0, table([holder, behind], TWO), max_hops=10) is None


def test_wstm_tie_breaks_lowest_player_id():
    holder = player(5, 40, 34)
    a = player(2, 6, 28)
    b = player(1, 6, 40)        # same distance to sink 1 as a
    assert distance(Point(6, 28), Point(0, 34)) == distance(Point(6, 40), Point(0, 34))
    r = wstm_route(5, table([holder, a, b], TWO), max_hops=10)
    assert r is not None
    assert r.hops[0].dst_player == 1
    assert r.n_hops == 2


def test_wstm_forwards_to_globally_best_relay():
    # the rule picks the candidate closest to the sink, not the adjacent one,
    # so evenly spaced lines collapse into two hops
    chain = [player(i, 46 - 12 * i, 34) for i in range(4)]  # x = 46, 34, 22, 10
    r = wstm_route(0, table(chain, TWO), max_hops=10)
    assert r is not None
    assert [h.dst_player for h in r.hops] == [3, None]
    assert r.n_hops == 2 and r.hops[-1].dst_sink == 1


def test_wstm_max_hops_budget():
    holder = player(0, 40, 34)
    relay = player(1, 15, 34)
    two_hop = wstm_route(0, table([holder, relay], TWO), max_hops=2)
    assert two_hop is not None and two_hop.n_hops == 2
    assert wstm_route(0, table([holder, relay], TWO), max_hops=1) is None


def test_wstm_distance_to_sink_strictly_decreases():
    rng = random.Random(13)
    for _ in range(300):
        players = [player(i, rng.uniform(0, 106), rng.uniform(0, 68))
                   for i in range(8)]
        r = wstm_route(0, table(players, TWO), max_hops=10)
        if r is None:
            continue
        positions = {p.player_id: Point(p.x, p.y) for p in players}
        sink_pos = dict(TWO.sinks)

        def best_sink_dist(pt):
            return min(distance(pt, pos) for pos in sink_pos.values())

        along = [positions[r.hops[0].src]]
        along += [positions[h.dst_player] for h in r.hops if h.dst_player is not None]
        for a, b in zip(along, along[1:]):
            assert best_sink_dist(b) < best_sink_dist(a)


def _oracle_greedy(origin, players, field, max_hops):
    """Brute-force restatement of the forwarding rule, kept independent of
    the implementation: explicit scans, no early data structures."""
    sink_pos = dict(field.sinks)
    holder = origin
    path = []
    for _ in range(max_hops):
        hp = Point(holder.x, holder.y)
        best = None
        for sid in sorted(sink_pos):
            d = distance(hp, sink_pos[sid])
            if best is None or d < best[1]:
                best = (sid, d)
        sid, ds = best
        others = [q for q in players if q.player_id != holder.player_id]
        sink_is_nearest = True
        for q in others:
            if distance(hp, Point(q.x, q.y)) < ds:
                sink_is_nearest = False
                break
        if sink_is_nearest:
            path.append(("sink", sid))
            return path
        candidates = []
        for q in others:
            dq = distance(Point(q.x, q.y), sink_pos[sid])
            if dq < ds:
                candidates.append((dq, q.player_id))
        if not candidates:
            return None
        candidates.sort()
        nxt_id = candidates[0][1]
        path.append(("player", nxt_id))
        holder = next(q for q in players if q.player_id == nxt_id)
    return None


def test_wstm_matches_bruteforce_oracle_on_random_snapshots():
    rng = random.Random(99)
    for _ in range(400):
        n = rng.randint(1, 6)
        players = [player(i, rng.uniform(0, 106), rng.uniform(0, 68))
                   for i in range(n)]
        max_hops = rng.randint(1, 6)
        origin = players[rng.randrange(n)]
        got = wstm_route(origin.player_id, table(players, TWO), max_hops)
        want = _oracle_greedy(origin, players, TWO, max_hops)
        if want is None:
            assert got is None
        else:
            assert got is not None
            got_path = [("player", h.dst_player) if h.dst_player is not None
                        else ("sink", h.dst_sink) for h in got.hops]
            assert got_path == want


def _assert_hops_use_geometry(route, players, field):
    pos = {p.player_id: Point(p.x, p.y) for p in players}
    for hop in route.hops:
        if hop.dst_player is not None:
            assert hop.dist == distance(pos[hop.src], pos[hop.dst_player])
        else:
            src = pos[hop.src]
            assert (hop.dst_sink, hop.dist) == nearest_sink_xy(src.x, src.y, field)[:2]


def test_wstm_hop_distances_are_bitwise_those_of_geometry():
    rng = random.Random(2024)
    routes = 0
    for i in range(600):
        field = (SIX, TWO)[i % 2]
        # every other snapshot sits on the integer grid, where equal
        # distances to two sinks or two relays actually occur
        coord = rng.randint if i % 4 < 2 else rng.uniform
        n = rng.randint(1, 8)
        players = [player(j, coord(0, 106), coord(0, 68)) for j in range(n)]
        r = wstm_route(rng.randrange(n), table(players, field), max_hops=10)
        if r is not None:
            routes += 1
            _assert_hops_use_geometry(r, players, field)
    assert routes > 100


def test_wstm_equidistant_sinks_go_to_the_lower_id():
    midfield = player(0, 53, 20)
    r = wstm_route(0, table([midfield], TWO), max_hops=10)
    assert r.hops[-1].dst_sink == 1
    _assert_hops_use_geometry(r, [midfield], TWO)
    # the rule is on the id, not on the order the field lists its sinks
    swapped = FieldConfig(106, 68, tuple(reversed(TWO.sinks)))
    r = wstm_route(0, table([midfield], swapped), max_hops=10)
    assert r.hops[-1].dst_sink == 1
    _assert_hops_use_geometry(r, [midfield], swapped)


def _per_call_wstm_route(player, all_players, field, max_hops):
    """Reference copy of the per-call greedy router that rescanned every
    alive player at each hop; NextHops must give its routes bit for bit."""
    holder = player
    hops = []
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
            if direct and math.hypot(hx - qx, hy - qy) < d_sink:
                direct = False
            dq = math.hypot(qx - sx, qy - sy)
            if dq < best_d or (dq == best_d and qid < best_id):
                best, best_d, best_id = q, dq, qid
        if direct:
            hops.append(Hop(hid, None, sid, d_sink))
            return Route(tuple(hops))
        if best is None:
            return None
        hops.append(Hop(hid, best_id, None, math.hypot(hx - best.x, hy - best.y)))
        holder = best
    return None


def _bits(route):
    """A route as plain values, each distance as its IEEE-754 bytes."""
    if route is None:
        return None
    return [(h.src, h.dst_player, h.dst_sink, struct.pack("<d", h.dist))
            for h in route.hops]


def _random_snapshots(rng, count):
    """``count`` (field, players) snapshots, alternating the six-sink and
    two-sink fields, with ids shuffled and listed in random order."""
    for i in range(count):
        field = (SIX, TWO)[i % 2]
        grid = i % 4 < 2
        coord = rng.randint if grid else rng.uniform
        xy = [(coord(0, 106), coord(0, 68)) for _ in range(rng.randint(1, 14))]
        if grid:
            # integer points, and mirror twins across y = 34, tie for sink 1
            # (both layouts) and sink 2 (goal sinks)
            xy += [(x, 68 - y) for x, y in xy[:rng.randint(0, 8)]]
        n = len(xy)
        players = [player(j, x, y) for j, (x, y) in zip(rng.sample(range(n), n), xy)]
        rng.shuffle(players)
        yield field, players


def test_one_table_serves_every_origin_of_a_snapshot():
    rng = random.Random(1313)
    multi_hop = 0
    for field, players in _random_snapshots(rng, 400):
        n = len(players)
        hops = table(players, field)
        for origin in rng.sample(players, n):
            max_hops = rng.randint(1, 6)
            got = wstm_route(origin.player_id, hops, max_hops)
            if got is not None:
                assert_joined_up(got, origin)
            want = _per_call_wstm_route(origin, players, field, max_hops)
            assert _bits(got) == _bits(want)
            multi_hop += got is not None and got.n_hops > 1
    assert multi_hop > 300


def test_one_table_answers_every_budget_in_either_order():
    # a table that kept a route refused for its length would refuse it
    # again under a larger budget, or give a longer one under a smaller
    refused = 0
    for field, players in _random_snapshots(random.Random(2424), 200):
        for budgets in (range(1, 7), range(6, 0, -1)):
            hops = table(players, field)
            for max_hops in budgets:
                for origin in players:
                    got = wstm_route(origin.player_id, hops, max_hops)
                    want = _per_call_wstm_route(origin, players, field, max_hops)
                    assert _bits(got) == _bits(want)
                    refused += got is None and _per_call_wstm_route(
                        origin, players, field, 10) is not None
    assert refused > 100


def test_relay_ties_go_to_the_lower_id_in_any_list_order():
    # 2 and 1 are equidistant from sink 1 at (0, 34), both nearer than the holder
    for holder_id in (0, 5):
        for ids in ((2, 1), (1, 2)):
            holder = player(holder_id, 40, 34)
            a, b = player(ids[0], 6, 28), player(ids[1], 6, 40)
            for order in itertools.permutations([holder, a, b]):
                r = wstm_route(holder_id, table(order, TWO), max_hops=10)
                assert r.hops[0].dst_player == 1 and r.n_hops == 2
    # a holder tied with a teammate for nearest to the sink has no strictly
    # nearer relay, whichever of the two has the lower id; the teammate
    # beside it is nearer than the sink, so it cannot send direct either
    for tied_id in (1, 7):
        holder, tied, beside = player(3, 6, 28), player(tied_id, 6, 40), player(4, 12, 28)
        for order in itertools.permutations([holder, tied, beside]):
            assert wstm_route(3, table(order, TWO), max_hops=10) is None
            assert _per_call_wstm_route(holder, order, TWO, 10) is None


def test_threshold_trigger_no_events_no_packets():
    assert trigger_transmissions(THEFAME, 10, 50, [], [0]) == []


def test_threshold_trigger_one_packet_per_event():
    events = [FatigueEvent(0, 50.0, LACTATE, 2.3),
              FatigueEvent(4, 50.0, DISTANCE, 11.0)]
    assert trigger_transmissions(THEFAME, 10, 50, events, []) == [0, 4]


def test_periodic_trigger_on_period():
    alive = list(range(22))
    origins = trigger_transmissions(WSTM, 10, 30, [], alive)
    assert len(origins) == 22
    assert sorted(origins) == list(range(22))


def test_periodic_trigger_off_period():
    alive = list(range(22))
    assert trigger_transmissions(WSTM, 10, 31, [], alive) == []


def test_periodic_trigger_counts_only_alive():
    alive = list(range(5))
    origins = trigger_transmissions(WSTM, 10, 10, [], alive)
    assert len(origins) == 5
