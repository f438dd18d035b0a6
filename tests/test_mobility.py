import dataclasses
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from pitchsim.engine import simulate_mobility
from pitchsim.geometry import FieldConfig, Point
from pitchsim.mobility import (KMH_TO_YDS, KM_PER_YARD, RUN, SPRINT, TWO_PI, WALK,
                               GroupReference, MobilityParams, PlayerKinematics,
                               formation_offsets, make_players, schedule_mode,
                               step_group_reference, step_player)
from pitchsim.scenario import Scenario

import calibrate_mobility

FIELD = FieldConfig.six_sinks()
PARAMS = MobilityParams()


def kin(x=50.0, y=34.0, mode=RUN, speed=12.0):
    k = PlayerKinematics(0, x, y, 0.0, 0.0)
    k.mode = mode
    k.speed_kmh = speed
    return k


def test_speed_conversion():
    # 25 km/h is just under 7.60 yd/s; 12 km/h just under 3.647 yd/s
    assert 25.0 * KMH_TO_YDS == pytest.approx(7.5945, abs=1e-4)
    assert 12.0 * KMH_TO_YDS == pytest.approx(3.6453, abs=1e-4)


def test_rest_does_not_move():
    # a player at zero speed, as walking is with mobility.v_walk = 0
    k = kin(mode=WALK, speed=0.0)
    before = (k.x, k.y, k.cumulative_km)
    step_player(k, Point(80.0, 10.0), FIELD, PARAMS, random.Random(1))
    assert (k.x, k.y, k.cumulative_km) == before


@pytest.mark.parametrize("speed", [25.0, 12.0, 4.5])
def test_displacement_capped_by_mode_speed(speed):
    rng = random.Random(42)
    for trial in range(200):
        k = kin(x=rng.uniform(0, 106), y=rng.uniform(0, 68), speed=speed)
        x0, y0 = k.x, k.y
        step_player(k, Point(rng.uniform(0, 106), rng.uniform(0, 68)),
                    FIELD, PARAMS, rng)
        moved = math.hypot(k.x - x0, k.y - y0)
        assert moved <= speed * KMH_TO_YDS * (1 + 1e-12)


def test_positions_stay_inside_field():
    rng = random.Random(7)
    k = kin(x=0.0, y=0.0, speed=25.0)
    ref = Point(0.0, 0.0)
    for _ in range(500):
        step_player(k, ref, FIELD, PARAMS, rng)
        assert 0.0 <= k.x <= FIELD.length
        assert 0.0 <= k.y <= FIELD.width


def min_max_step_player(k, ref, field, p, rng):
    """step_player written with builtin min/max and math.* calls: the
    reference its conditional-expression clamp must match bit for bit."""
    r = p.deviation_radius * math.sqrt(rng.random())
    theta = TWO_PI * rng.random()
    tx = ref.x + k.offset_x + r * math.cos(theta)
    ty = ref.y + k.offset_y + r * math.sin(theta)
    tx = min(max(tx, 0.0), field.length)
    ty = min(max(ty, 0.0), field.width)
    cap = k.speed_kmh * KMH_TO_YDS
    dx = tx - k.x
    dy = ty - k.y
    dist = math.hypot(dx, dy)
    if dist > cap:
        if cap <= 0.0:
            return k
        scale = cap / dist
        tx = k.x + dx * scale
        ty = k.y + dy * scale
        moved = cap
    else:
        moved = dist
    k.cumulative_km += moved * KM_PER_YARD
    k.x = tx
    k.y = ty
    return k


@st.composite
def clamp_axes(draw):
    """Per axis: the field side, the reference, the offset and the player's
    position. A zero deviation radius puts the target exactly on the
    reference plus offset (plus a signed zero), so targets land beyond each
    edge, on it, and on both zeros."""
    axes = []
    for default in (106.0, 68.0):
        side = draw(st.sampled_from([default]) | st.floats(1e-3, 1e3))
        edges = st.sampled_from([-0.0, 0.0, side, math.nextafter(0.0, -1.0),
                                 math.nextafter(side, math.inf), -side, 2.0 * side])
        axes.append((side,
                     draw(edges | st.floats(-2.0 * side, 2.0 * side)),
                     draw(st.sampled_from([-0.0, 0.0]) | st.floats(-side, side)),
                     draw(edges | st.floats(0.0, side))))
    return axes


@given(clamp_axes(),
       st.sampled_from([0.0]) | st.floats(0.0, 50.0),
       st.sampled_from([0.0, 4.5, 25.0]) | st.floats(0.0, 40.0),
       st.integers(0, 2**32))
# seed 3 draws a theta with cos < 0 and sin < 0: the target is -0.0 on both axes
@example([(106.0, -0.0, -0.0, 5.0), (68.0, -0.0, -0.0, -0.0)], 0.0, 25.0, 3)
@example([(106.0, 106.0, 0.0, 0.0), (68.0, 68.0, -0.0, 68.0)], 0.0, 4.5, 3)
def test_step_player_matches_the_min_max_reference(axes, radius, speed, seed):
    (length, rx, ox, x), (width, ry, oy, y) = axes
    field = FieldConfig(length, width)
    params = dataclasses.replace(PARAMS, deviation_radius=radius)
    ref = Point(rx, ry)
    got, want = (PlayerKinematics(0, x, y, ox, oy, speed_kmh=speed) for _ in range(2))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert step_player(got, ref, field, params, rng) is got
    min_max_step_player(want, ref, field, params, ref_rng)
    # struct bits, so that -0.0 and 0.0 differ
    assert (struct.pack("<3d", got.x, got.y, got.cumulative_km)
            == struct.pack("<3d", want.x, want.y, want.cumulative_km))
    assert rng.getstate() == ref_rng.getstate()


def test_cumulative_distance_matches_independent_accumulator():
    rng = random.Random(3)
    sched = random.Random(4)
    k = kin()
    total = 0.0
    group = GroupReference.centered(FIELD)
    for _ in range(1000):
        step_group_reference(group, FIELD, PARAMS, rng)
        schedule_mode(k, PARAMS, sched)
        x0, y0 = k.x, k.y
        step_player(k, group, FIELD, PARAMS, rng)
        total += math.hypot(k.x - x0, k.y - y0) * KM_PER_YARD
    assert k.cumulative_km == pytest.approx(total, rel=1e-12)


def test_group_reference_zero_speed_static():
    params = MobilityParams(group_speed_kmh=0.0)
    g = GroupReference(30.0, 30.0, 90.0, 50.0)
    step_group_reference(g, FIELD, params, random.Random(0))
    assert (g.x, g.y) == (30.0, 30.0)


def test_group_reference_speed_cap_and_bounds():
    rng = random.Random(11)
    g = GroupReference.centered(FIELD)
    cap = PARAMS.group_speed_kmh * KMH_TO_YDS
    for _ in range(2000):
        x0, y0 = g.x, g.y
        step_group_reference(g, FIELD, PARAMS, rng)
        assert math.hypot(g.x - x0, g.y - y0) <= cap * (1 + 1e-12)
        assert 0.0 <= g.x <= FIELD.length and 0.0 <= g.y <= FIELD.width


def test_zero_sprint_rate_never_sprints():
    params = MobilityParams(sprints_per_match=0.0)
    rng = random.Random(0)
    k = kin()
    for _ in range(5000):
        assert schedule_mode(k, params, rng) != SPRINT


def test_sprint_hazard_follows_the_params_it_was_built_from():
    # 100 sprints of 3.5 s mean, each with 2x recovery, leave 4350 s
    assert PARAMS.sprint_hazard == 100.0 / (5400.0 - 100.0 * 3.5 * 3.0)
    assert MobilityParams(sprints_per_match=0.0).sprint_hazard == 0.0
    fewer = dataclasses.replace(PARAMS, sprints_per_match=50.0)
    assert fewer.sprint_hazard == 50.0 / (5400.0 - 50.0 * 3.5 * 3.0)
    assert fewer == MobilityParams(sprints_per_match=50.0)


def test_sprint_durations_and_recovery():
    run = simulate_mobility(Scenario(players=4, rounds=5400, seed=9))
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


@pytest.mark.parametrize("rest, modes", [
    (0.0, "ssssssssssss"),
    (0.5, "swswswswswsw"),
    (1.3, "swwswwswwsww"),
    (2.0, "swwswwswwsww"),
])
def test_recovery_walks_whole_seconds_before_the_next_onset(rest, modes):
    # 1 s sprints with a hazard above 1: every second the recovery allows
    # starts a sprint, so each sprint is followed by ceil(rest) walking seconds
    params = MobilityParams(sprint_min_s=1, sprint_max_s=1,
                            sprints_per_match=5400.0 / (1.0 + rest) - 1.0,
                            rest_multiple=rest)
    assert params.sprint_hazard > 1.0
    rng = random.Random(0)
    k = kin()
    got = "".join(schedule_mode(k, params, rng)[0] for _ in range(12))
    assert got == modes


def test_sprint_counts_near_expected():
    counts = []
    for seed in (0, 1):
        run = simulate_mobility(Scenario(players=22, rounds=5400, seed=seed))
        per = {}
        for ep in run.sprints:
            per[ep.player_id] = per.get(ep.player_id, 0) + 1
        counts.extend(per.get(k.player_id, 0) for k in run.players)
    mean = sum(counts) / len(counts)
    assert 80 <= mean <= 120


def test_run_speed_drawn_within_band():
    rng = random.Random(5)
    k = kin(mode=WALK, speed=PARAMS.v_walk)
    seen = set()
    for _ in range(3000):
        mode = schedule_mode(k, PARAMS, rng)
        if mode == RUN:
            assert PARAMS.v_run_min <= k.speed_kmh <= PARAMS.v_run_max
            seen.add(round(k.speed_kmh, 3))
        elif mode == SPRINT:
            assert k.speed_kmh == PARAMS.v_sprint
        elif mode == WALK:
            assert k.speed_kmh == PARAMS.v_walk
    assert len(seen) > 5  # per-episode redraws actually vary


def test_fixed_seed_bitwise_identical_trajectory():
    a = simulate_mobility(Scenario(players=22, rounds=400, seed=123))
    b = simulate_mobility(Scenario(players=22, rounds=400, seed=123))
    for ka, kb in zip(a.players, b.players):
        assert (ka.x, ka.y, ka.cumulative_km) == (kb.x, kb.y, kb.cumulative_km)
    assert a.sprints == b.sprints


def test_full_match_distance_band():
    # default parameters target slightly over 11 km per 90-minute match
    for seed in (0, 1):
        run = simulate_mobility(Scenario(players=22, rounds=5400, seed=seed))
        for k in run.players:
            assert 9.0 <= k.cumulative_km <= 13.0


def test_formation_offsets_shape():
    offs = formation_offsets(22, FIELD)
    assert len(offs) == 22
    assert len(set(offs)) == 22
    offs24 = formation_offsets(24, FIELD)
    assert len(offs24) == 24


def test_make_players_start_inside_field():
    # every formation slot lies inside the field: the start needs no clamp
    for field in (FIELD, FieldConfig(1.0, 1.0), FieldConfig(1e-300, 1e-300),
                  FieldConfig(1e300, 1e300)):
        for k in make_players(24, field):
            assert (k.x, k.y) == (field.length / 2.0 + k.offset_x,
                                  field.width / 2.0 + k.offset_y), field
            assert 0.0 <= k.x <= field.length, field
            assert 0.0 <= k.y <= field.width, field


def test_params_validation():
    with pytest.raises(ValueError):
        MobilityParams(v_walk=11.0)  # walk above run_min
    with pytest.raises(ValueError):
        MobilityParams(sprint_min_s=0)
    with pytest.raises(ValueError):
        MobilityParams(sprints_per_match=2000.0)  # cannot fit in a match


def test_calibration_script_runs(capsys):
    assert calibrate_mobility.main(["--seeds", "1", "--rounds", "200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seeds=1 players=22 rounds=200"
    assert [line.split(":")[0] for line in lines[1:]] == [
        "distance km", "crossed 11 km", "sprints per player"]


# From a plain checkout: no PYTHONPATH, and -S keeps an installed copy of
# pitchsim in site-packages from hiding a script that cannot find src/.
def test_calibration_script_runs_from_a_plain_checkout(tmp_path):
    script = Path(calibrate_mobility.__file__).resolve()
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-S", str(script), "--seeds", "1", "--rounds", "200"],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "seeds=1 players=22 rounds=200"


@pytest.mark.parametrize("argv, message", [
    (["--seeds", "0"], "--seeds must be at least 1"),
    (["--players", "0"], "players must be in [1, 24]"),
    (["--rounds", "0"], "rounds must be positive"),
], ids=["no-seeds", "no-players", "no-rounds"])
def test_calibration_script_bad_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        calibrate_mobility.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
