import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from pitchsim.mobility import PlayerKinematics
from pitchsim.physiology import (FatigueCause, FatigueEvent, FatigueMonitor,
                                 FatigueThresholds, LactateParams, onset_alpha,
                                 step_lactate)

DEFAULT = LactateParams()


def player(player_id=0, speed_kmh=0.0, cumulative_km=0.0):
    return PlayerKinematics(player_id, 0.0, 0.0, 0.0, 0.0, speed_kmh=speed_kmh,
                            cumulative_km=cumulative_km)


def step_one(level, v, params):
    """The squad step on a one-player squad running at ``v``."""
    levels = [level]
    step_lactate(levels, [player(speed_kmh=v)], params)
    return levels[0]


def test_default_alpha_matches_three_minute_onset():
    # (2.2 - 1.0) / (180 * (25 - 12.9))
    assert DEFAULT.alpha == pytest.approx(1.2 / 2178.0, rel=1e-15)
    assert DEFAULT.alpha == onset_alpha(1.0, 2.2, 25.0, 12.9, 180.0)


def test_equilibrium_at_baseline():
    for v in (0.0, 5.0, 12.9):
        assert step_one(DEFAULT.l_base, v, DEFAULT) == DEFAULT.l_base


def test_three_minute_sprint_reaches_threshold_without_clearance():
    params = LactateParams(beta=0.0)
    level = params.l_base
    for _ in range(180):
        level = step_one(level, 25.0, params)
    assert level == pytest.approx(2.2, rel=1e-9)


def test_clearance_decreases_toward_baseline():
    level = 3.0
    new = step_one(level, 0.0, DEFAULT)
    assert DEFAULT.l_base <= new < level


def test_clearance_is_monotone_approach():
    level = 2.5
    for _ in range(2000):
        nxt = step_one(level, 0.0, DEFAULT)
        assert DEFAULT.l_base <= nxt <= level
        level = nxt
    assert level == pytest.approx(DEFAULT.l_base, abs=1e-4)


def test_never_negative():
    params = LactateParams(l_base=0.0001, beta=0.9)
    level = 0.5
    for _ in range(100):
        level = step_one(level, 0.0, params)
        assert level >= 0.0


def test_growth_linear_without_clearance():
    # stepping must match the closed form alpha*(v - v_aerobic)*t exactly
    params = LactateParams(beta=0.0)
    v = 20.0
    rate = params.alpha * (v - params.v_aerobic)
    level = params.l_base
    for t in range(1, 501):
        level = step_one(level, v, params)
        closed = params.l_base + rate * t
        assert abs(level - closed) / closed < 1e-9


def max_step_lactate(level, v, params):
    """One player's step written with builtin max: the reference the squad
    step's conditional expressions must match bit for bit."""
    production = params.alpha * max(0.0, v - params.v_aerobic)
    clearance = params.beta * max(0.0, level - params.l_base)
    new = level + (production - clearance)
    return new if new > 0.0 else 0.0


PARAMS = st.builds(LactateParams,
                   l_base=st.sampled_from([1.0, 0.0, -0.0]) | st.floats(-5.0, 5.0),
                   v_aerobic=st.sampled_from([12.9, 0.0, -0.0]) | st.floats(-5.0, 30.0),
                   alpha=st.floats(1e-6, 1.0),
                   beta=st.sampled_from([0.0, 0.005]) | st.floats(0.0, 0.999))


@given(st.data())
def test_step_lactate_matches_the_max_reference(data):
    params = data.draw(PARAMS)
    # on each knee and at both zeros
    level = data.draw(st.sampled_from([params.l_base, 0.0, -0.0]) | st.floats(-10.0, 10.0))
    v = data.draw(st.sampled_from([params.v_aerobic, 0.0, -0.0]) | st.floats(-5.0, 40.0))
    want = max_step_lactate(level, v, params)
    assert struct.pack("<d", step_one(level, v, params)) == struct.pack("<d", want)


def test_params_validation():
    with pytest.raises(ValueError):
        LactateParams(alpha=0.0)
    with pytest.raises(ValueError):
        LactateParams(beta=-0.1)
    with pytest.raises(ValueError):
        LactateParams(beta=1.5)


class OnePlayerMonitor:
    """A ``FatigueMonitor`` over a one-player squad, fed one sample at a
    time; ``check`` returns the sample's one event or None."""

    def __init__(self, thresholds):
        self.player = player()
        self.monitor = FatigueMonitor(thresholds, [self.player])

    def check(self, lactate, cum_distance_km, t, player_id):
        self.player.player_id = player_id
        self.player.cumulative_km = cum_distance_km
        events = self.monitor.check([lactate], [self.player], t)
        if events is None:
            return None
        (ev,) = events
        return ev


def fresh_monitor(**kwargs):
    return OnePlayerMonitor(FatigueThresholds(**kwargs))


def test_lactate_trigger_at_threshold():
    ev = fresh_monitor().check(2.2, 5.0, 100.0, 7)
    assert ev is not None
    assert ev.cause is FatigueCause.LACTATE
    assert ev.value == 2.2
    assert ev.player_id == 7 and ev.time == 100.0


def test_distance_trigger():
    ev = fresh_monitor().check(1.0, 11.0, 200.0, 3)
    assert ev is not None
    assert ev.cause is FatigueCause.DISTANCE
    assert ev.value == 11.0


def test_no_trigger_below_both():
    assert fresh_monitor().check(1.0, 5.0, 1.0, 0) is None


def test_lactate_checked_before_distance():
    ev = fresh_monitor().check(2.5, 12.0, 1.0, 0)
    assert ev.cause is FatigueCause.LACTATE


def test_lactate_hysteresis_cycle():
    mon = fresh_monitor()
    assert mon.check(2.3, 0.0, 1.0, 0).cause is FatigueCause.LACTATE
    # still above threshold: re-fire suppressed
    assert mon.check(2.4, 0.0, 2.0, 0) is None
    # above re-arm level but below threshold: still suppressed
    assert mon.check(2.0, 0.0, 3.0, 0) is None
    # below 0.9 * 2.2 = 1.98: re-arms, but no event at this sample
    assert mon.check(1.9, 0.0, 4.0, 0) is None
    assert mon.check(2.2, 0.0, 5.0, 0).cause is FatigueCause.LACTATE


def test_no_two_lactate_events_without_subhysteresis_sample():
    mon = fresh_monitor()
    fired = [t for t in range(60)
             if mon.check(2.2 + 0.01 * (t % 3), 0.0, float(t), 0) is not None]
    assert fired == [0]


def test_distance_fires_once_per_match():
    mon = fresh_monitor()
    assert mon.check(1.0, 11.0, 1.0, 0) is not None
    for t in range(2, 50):
        assert mon.check(1.0, 11.0 + t, float(t), 0) is None


def test_thresholds_validation():
    with pytest.raises(ValueError):
        FatigueThresholds(lactate=0.0)
    with pytest.raises(ValueError):
        FatigueThresholds(hysteresis=0.0)
    with pytest.raises(ValueError):
        FatigueThresholds(hysteresis=1.5)


class ReferenceMonitor:
    """One player's trigger state, checked one player at a time: the
    per-player monitor the squad monitor replaced."""

    def __init__(self, thresholds):
        self.thresholds = thresholds
        self._lactate_armed = True
        self._distance_fired = False

    def check(self, lactate, cum_distance_km, t, player_id):
        th = self.thresholds
        if not self._lactate_armed and lactate < th.lactate * th.hysteresis:
            self._lactate_armed = True
        if self._lactate_armed and lactate >= th.lactate:
            self._lactate_armed = False
            return FatigueEvent(player_id, t, FatigueCause.LACTATE, lactate)
        if not self._distance_fired and cum_distance_km >= th.distance_km:
            self._distance_fired = True
            return FatigueEvent(player_id, t, FatigueCause.DISTANCE, cum_distance_km)
        return None


THRESHOLDS = st.builds(FatigueThresholds,
                       lactate=st.sampled_from([2.2, 1.0]) | st.floats(0.1, 10.0),
                       distance_km=st.sampled_from([11.0, 0.5]) | st.floats(0.01, 5.0),
                       hysteresis=st.sampled_from([0.9, 1.0]) | st.floats(0.05, 1.0))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(params=PARAMS, thresholds=THRESHOLDS, n=st.integers(1, 22),
       rounds=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
def test_squad_matches_the_per_player_references(params, thresholds, n, rounds, seed):
    """Per player and round, the squad step gives the scalar reference's
    bits and the squad monitor gives the per-player reference's events,
    in player order. The monitor is fed levels on and around its
    threshold and re-arm level, so the hysteresis edges come up often."""
    rng = random.Random(seed)
    squad = [player(player_id=i) for i in range(n)]
    levels = [rng.choice([params.l_base, 0.0, -0.0, rng.uniform(-1.0, 10.0)])
              for _ in range(n)]
    want_levels = list(levels)
    monitor = FatigueMonitor(thresholds, squad)
    references = [ReferenceMonitor(thresholds) for _ in range(n)]
    th, rearm = thresholds.lactate, thresholds.lactate * thresholds.hysteresis
    samples = [th, rearm, math.nextafter(th, 0.0), math.nextafter(rearm, 0.0),
               math.nextafter(th, math.inf), 0.0]
    for t in range(1, rounds + 1):
        for kin in squad:
            kin.speed_kmh = rng.choice([params.v_aerobic, 0.0, rng.uniform(-5.0, 40.0)])
            kin.cumulative_km += rng.choice([0.0, 0.0, rng.uniform(0.0, thresholds.distance_km)])
        step_lactate(levels, squad, params)
        want_levels = [max_step_lactate(level, kin.speed_kmh, params)
                       for level, kin in zip(want_levels, squad)]
        assert ([struct.pack("<d", x) for x in levels]
                == [struct.pack("<d", x) for x in want_levels])

        sampled = [rng.choice(samples + [rng.uniform(0.0, 2.0 * th)]) for _ in range(n)]
        want = [ev for kin, level, ref in zip(squad, sampled, references)
                if (ev := ref.check(level, kin.cumulative_km, t, kin.player_id)) is not None]
        got = monitor.check(sampled, squad, t)
        assert got == (want or None)
