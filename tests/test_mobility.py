import math
import random

import pytest

from pitchsim.engine import simulate_mobility
from pitchsim.geometry import FieldConfig, Point
from pitchsim.mobility import (KMH_TO_YDS, KM_PER_YARD, GroupReference,
                               MobilityParams, PlayerKinematics, SpeedMode,
                               formation_offsets, make_players, schedule_mode,
                               step_group_reference, step_player)

FIELD = FieldConfig.six_sinks()
PARAMS = MobilityParams()


def kin(x=50.0, y=34.0, mode=SpeedMode.RUN, speed=12.0):
    k = PlayerKinematics(0, x, y, 0.0, 0.0)
    k.mode = mode
    k.speed_kmh = speed
    return k


def test_speed_conversion():
    # 25 km/h is just under 7.60 yd/s; 12 km/h just under 3.647 yd/s
    assert 25.0 * KMH_TO_YDS == pytest.approx(7.5945, abs=1e-4)
    assert 12.0 * KMH_TO_YDS == pytest.approx(3.6453, abs=1e-4)


def test_rest_does_not_move():
    k = kin(mode=SpeedMode.REST, speed=0.0)
    before = (k.x, k.y, k.cumulative_km)
    step_player(k, Point(80.0, 10.0), FIELD, PARAMS, 5.0, random.Random(1))
    assert (k.x, k.y, k.cumulative_km) == before


@pytest.mark.parametrize("speed,dt", [(25.0, 1.0), (12.0, 1.0), (4.5, 2.5)])
def test_displacement_capped_by_mode_speed(speed, dt):
    rng = random.Random(42)
    for trial in range(200):
        k = kin(x=rng.uniform(0, 106), y=rng.uniform(0, 68), speed=speed)
        x0, y0 = k.x, k.y
        step_player(k, Point(rng.uniform(0, 106), rng.uniform(0, 68)),
                    FIELD, PARAMS, dt, rng)
        moved = math.hypot(k.x - x0, k.y - y0)
        assert moved <= speed * KMH_TO_YDS * dt * (1 + 1e-12)


def test_positions_stay_inside_field():
    rng = random.Random(7)
    k = kin(x=0.0, y=0.0, speed=25.0)
    ref = Point(0.0, 0.0)
    for _ in range(500):
        step_player(k, ref, FIELD, PARAMS, 1.0, rng)
        assert 0.0 <= k.x <= FIELD.length
        assert 0.0 <= k.y <= FIELD.width


def test_cumulative_distance_matches_independent_accumulator():
    rng = random.Random(3)
    sched = random.Random(4)
    k = kin()
    total = 0.0
    group = GroupReference.centered(FIELD)
    for _ in range(1000):
        ref = step_group_reference(group, FIELD, PARAMS, 1.0, rng)
        schedule_mode(k, PARAMS, 1.0, sched)
        x0, y0 = k.x, k.y
        step_player(k, ref, FIELD, PARAMS, 1.0, rng)
        total += math.hypot(k.x - x0, k.y - y0) * KM_PER_YARD
    assert k.cumulative_km == pytest.approx(total, rel=1e-12)


def test_group_reference_zero_speed_static():
    params = MobilityParams(group_speed_kmh=0.0)
    g = GroupReference(30.0, 30.0, 90.0, 50.0)
    p = step_group_reference(g, FIELD, params, 1.0, random.Random(0))
    assert p == Point(30.0, 30.0)


def test_group_reference_speed_cap_and_bounds():
    rng = random.Random(11)
    g = GroupReference.centered(FIELD)
    cap = PARAMS.group_speed_kmh * KMH_TO_YDS
    for _ in range(2000):
        x0, y0 = g.x, g.y
        p = step_group_reference(g, FIELD, PARAMS, 1.0, rng)
        assert math.hypot(p.x - x0, p.y - y0) <= cap * (1 + 1e-12)
        assert 0.0 <= p.x <= FIELD.length and 0.0 <= p.y <= FIELD.width


def test_zero_sprint_rate_never_sprints():
    params = MobilityParams(sprints_per_match=0.0)
    rng = random.Random(0)
    k = kin()
    for _ in range(5000):
        assert schedule_mode(k, params, 1.0, rng) is not SpeedMode.SPRINT


def test_sprint_durations_and_recovery():
    run = simulate_mobility(PARAMS, FIELD, 4, 5400, seed=9)
    by_player = {}
    for ep in run.sprints:
        by_player.setdefault(ep.player_id, []).append(ep)
    assert run.sprints, "expected some sprints"
    for eps in by_player.values():
        for ep in eps:
            if ep.truncated:  # cut off by the end of the run
                assert ep.start + ep.duration == 5401
            else:
                assert 2 <= ep.duration <= 5
        for a, b in zip(eps, eps[1:]):
            gap = b.start - (a.start + a.duration)
            assert gap >= 2 * a.duration


def test_sprint_counts_near_expected():
    counts = []
    for seed in (0, 1):
        run = simulate_mobility(PARAMS, FIELD, 22, 5400, seed)
        per = {}
        for ep in run.sprints:
            per[ep.player_id] = per.get(ep.player_id, 0) + 1
        counts.extend(per.get(k.player_id, 0) for k in run.players)
    mean = sum(counts) / len(counts)
    assert 80 <= mean <= 120


def test_run_speed_drawn_within_band():
    rng = random.Random(5)
    k = kin(mode=SpeedMode.WALK, speed=PARAMS.v_walk)
    seen = set()
    for _ in range(3000):
        mode = schedule_mode(k, PARAMS, 1.0, rng)
        if mode is SpeedMode.RUN:
            assert PARAMS.v_run_min <= k.speed_kmh <= PARAMS.v_run_max
            seen.add(round(k.speed_kmh, 3))
        elif mode is SpeedMode.SPRINT:
            assert k.speed_kmh == PARAMS.v_sprint
        elif mode is SpeedMode.WALK:
            assert k.speed_kmh == PARAMS.v_walk
    assert len(seen) > 5  # per-episode redraws actually vary


def test_fixed_seed_bitwise_identical_trajectory():
    a = simulate_mobility(PARAMS, FIELD, 22, 400, seed=123)
    b = simulate_mobility(PARAMS, FIELD, 22, 400, seed=123)
    for ka, kb in zip(a.players, b.players):
        assert (ka.x, ka.y, ka.cumulative_km) == (kb.x, kb.y, kb.cumulative_km)
    assert a.sprints == b.sprints


def test_full_match_distance_band():
    # default parameters target slightly over 11 km per 90-minute match
    for seed in (0, 1):
        run = simulate_mobility(PARAMS, FIELD, 22, 5400, seed)
        for k in run.players:
            assert 9.0 <= k.cumulative_km <= 13.0


def test_formation_offsets_shape():
    offs = formation_offsets(22, FIELD)
    assert len(offs) == 22
    assert len(set(offs)) == 22
    offs24 = formation_offsets(24, FIELD)
    assert len(offs24) == 24
    with pytest.raises(ValueError):
        formation_offsets(25, FIELD)
    with pytest.raises(ValueError):
        formation_offsets(0, FIELD)


def test_make_players_start_inside_field():
    for k in make_players(24, FIELD):
        assert 0.0 <= k.x <= FIELD.length
        assert 0.0 <= k.y <= FIELD.width


def test_params_validation():
    with pytest.raises(ValueError):
        MobilityParams(v_walk=11.0)  # walk above run_min
    with pytest.raises(ValueError):
        MobilityParams(sprint_min_s=0)
    with pytest.raises(ValueError):
        MobilityParams(sprints_per_match=2000.0)  # cannot fit in a match
