import itertools
import math
import random

import pytest

from pitchsim.geometry import FieldConfig, Point, distance
from pitchsim.mobility import PlayerKinematics
from pitchsim.physiology import FatigueCause, FatigueEvent
from pitchsim.protocol import (THEFAME, WSTM, Hop, Route, thefame_route,
                               trigger_transmissions, wstm_route)

SIX = FieldConfig.six_sinks()
TWO = FieldConfig.goal_sinks()


def player(pid, x, y):
    return PlayerKinematics(pid, float(x), float(y), 0.0, 0.0)


def test_route_validation():
    with pytest.raises(ValueError):
        Route(())
    with pytest.raises(ValueError):  # does not end at a sink
        Route((Hop(0, 1, None, 5.0),))
    with pytest.raises(ValueError):  # hops not contiguous
        Route((Hop(0, 1, None, 5.0), Hop(2, None, 1, 5.0)))


def test_thefame_route_is_single_hop_to_nearest():
    r = thefame_route(player(3, 1, 34), SIX)
    assert r.n_hops == 1
    assert r.sink_id == 1
    assert r.hops[0].dist == 1.0


def test_thefame_route_coincident_sink():
    r = thefame_route(player(0, 0, 34), SIX)
    assert r.n_hops == 1 and r.hops[0].dist == 0.0


def test_thefame_always_one_hop():
    rng = random.Random(8)
    for _ in range(200):
        p = player(0, rng.uniform(0, 106), rng.uniform(0, 68))
        assert thefame_route(p, SIX).n_hops == 1


def test_wstm_goalkeeper_sends_direct():
    gk = player(0, 5, 34)       # 5 yards from the left goal sink
    mate = player(1, 30, 34)    # every other player farther than the sink
    r = wstm_route(gk, [gk, mate], TWO, max_hops=10)
    assert r is not None
    assert r.n_hops == 1 and r.sink_id == 1


def test_wstm_relay_between_holder_and_sink():
    holder = player(0, 40, 34)
    relay = player(1, 20, 34)   # exactly between holder and sink 1
    r = wstm_route(holder, [holder, relay], TWO, max_hops=10)
    assert r is not None
    assert [h.dst_player or -1 for h in r.hops] == [1, -1]
    assert r.n_hops == 2
    assert r.sink_id == 1


def test_wstm_degenerates_to_direct_with_no_other_players():
    lone = player(0, 53, 10)
    r = wstm_route(lone, [lone], TWO, max_hops=10)
    assert r is not None and r.n_hops == 1


def test_wstm_dead_end_is_no_route():
    # a closer teammate that is NOT closer to the sink blocks the greedy rule
    holder = player(0, 50, 34)
    behind = player(1, 52, 34)  # nearer to the holder than sink 1, farther from it
    assert wstm_route(holder, [holder, behind], TWO, max_hops=10) is None


def test_wstm_tie_breaks_lowest_player_id():
    holder = player(5, 40, 34)
    a = player(2, 6, 28)
    b = player(1, 6, 40)        # same distance to sink 1 as a
    assert distance(Point(6, 28), Point(0, 34)) == distance(Point(6, 40), Point(0, 34))
    r = wstm_route(holder, [holder, a, b], TWO, max_hops=10)
    assert r is not None
    assert r.hops[0].dst_player == 1
    assert r.n_hops == 2


def test_wstm_forwards_to_globally_best_relay():
    # the rule picks the candidate closest to the sink, not the adjacent one,
    # so evenly spaced lines collapse into two hops
    chain = [player(i, 46 - 12 * i, 34) for i in range(4)]  # x = 46, 34, 22, 10
    r = wstm_route(chain[0], chain, TWO, max_hops=10)
    assert r is not None
    assert [h.dst_player for h in r.hops] == [3, None]
    assert r.n_hops == 2 and r.sink_id == 1


def test_wstm_max_hops_budget():
    holder = player(0, 40, 34)
    relay = player(1, 15, 34)
    two_hop = wstm_route(holder, [holder, relay], TWO, max_hops=2)
    assert two_hop is not None and two_hop.n_hops == 2
    assert wstm_route(holder, [holder, relay], TWO, max_hops=1) is None


def test_wstm_distance_to_sink_strictly_decreases():
    rng = random.Random(13)
    for _ in range(300):
        players = [player(i, rng.uniform(0, 106), rng.uniform(0, 68))
                   for i in range(8)]
        r = wstm_route(players[0], players, TWO, max_hops=10)
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
        got = wstm_route(origin, players, TWO, max_hops)
        want = _oracle_greedy(origin, players, TWO, max_hops)
        if want is None:
            assert got is None
        else:
            assert got is not None
            got_path = [("player", h.dst_player) if h.dst_player is not None
                        else ("sink", h.dst_sink) for h in got.hops]
            assert got_path == want


def make_ids():
    return itertools.count(1)


def test_threshold_trigger_no_events_no_packets():
    assert trigger_transmissions(THEFAME, 10, 50, [], [player(0, 1, 1)],
                                 1024, make_ids()) == []


def test_threshold_trigger_one_packet_per_event():
    events = [FatigueEvent(0, 50.0, FatigueCause.LACTATE, 2.3),
              FatigueEvent(4, 50.0, FatigueCause.DISTANCE, 11.0)]
    pkts = trigger_transmissions(THEFAME, 10, 50, events, [], 1024, make_ids())
    assert [p.origin for p in pkts] == [0, 4]
    assert len({p.packet_id for p in pkts}) == 2


def test_periodic_trigger_on_period():
    alive = [player(i, i, i) for i in range(22)]
    pkts = trigger_transmissions(WSTM, 10, 30, [], alive, 1024, make_ids())
    assert len(pkts) == 22
    assert sorted(p.origin for p in pkts) == list(range(22))


def test_periodic_trigger_off_period():
    alive = [player(i, i, i) for i in range(22)]
    assert trigger_transmissions(WSTM, 10, 31, [], alive, 1024, make_ids()) == []


def test_periodic_trigger_counts_only_alive():
    alive = [player(i, i, i) for i in range(5)]
    pkts = trigger_transmissions(WSTM, 10, 10, [], alive, 1024, make_ids())
    assert len(pkts) == 5
