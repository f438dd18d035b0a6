import struct

import pytest
from hypothesis import given, strategies as st

from pitchsim.physiology import (FatigueCause, FatigueMonitor, FatigueThresholds,
                                 LactateParams, onset_alpha, step_lactate)

DEFAULT = LactateParams()


def test_default_alpha_matches_three_minute_onset():
    # (2.2 - 1.0) / (180 * (25 - 12.9))
    assert DEFAULT.alpha == pytest.approx(1.2 / 2178.0, rel=1e-15)
    assert DEFAULT.alpha == onset_alpha(1.0, 2.2, 25.0, 12.9, 180.0)


def test_equilibrium_at_baseline():
    for v in (0.0, 5.0, 12.9):
        assert step_lactate(DEFAULT.l_base, v, DEFAULT) == DEFAULT.l_base


def test_three_minute_sprint_reaches_threshold_without_clearance():
    params = LactateParams(beta=0.0)
    level = params.l_base
    for _ in range(180):
        level = step_lactate(level, 25.0, params)
    assert level == pytest.approx(2.2, rel=1e-9)


def test_clearance_decreases_toward_baseline():
    level = 3.0
    new = step_lactate(level, 0.0, DEFAULT)
    assert DEFAULT.l_base <= new < level


def test_clearance_is_monotone_approach():
    level = 2.5
    for _ in range(2000):
        nxt = step_lactate(level, 0.0, DEFAULT)
        assert DEFAULT.l_base <= nxt <= level
        level = nxt
    assert level == pytest.approx(DEFAULT.l_base, abs=1e-4)


def test_never_negative():
    params = LactateParams(l_base=0.0001, beta=0.9)
    level = 0.5
    for _ in range(100):
        level = step_lactate(level, 0.0, params)
        assert level >= 0.0


def test_growth_linear_without_clearance():
    # stepping must match the closed form alpha*(v - v_aerobic)*t exactly
    params = LactateParams(beta=0.0)
    v = 20.0
    rate = params.alpha * (v - params.v_aerobic)
    level = params.l_base
    for t in range(1, 501):
        level = step_lactate(level, v, params)
        closed = params.l_base + rate * t
        assert abs(level - closed) / closed < 1e-9


def max_step_lactate(level, v, params):
    """step_lactate written with builtin max: the reference its conditional
    expressions must match bit for bit."""
    production = params.alpha * max(0.0, v - params.v_aerobic)
    clearance = params.beta * max(0.0, level - params.l_base)
    new = level + (production - clearance)
    return new if new > 0.0 else 0.0


@given(st.data())
def test_step_lactate_matches_the_max_reference(data):
    params = data.draw(st.builds(LactateParams,
                                 l_base=st.sampled_from([1.0, 0.0, -0.0]) | st.floats(-5.0, 5.0),
                                 v_aerobic=st.sampled_from([12.9, 0.0, -0.0]) | st.floats(-5.0, 30.0),
                                 alpha=st.floats(1e-6, 1.0),
                                 beta=st.sampled_from([0.0, 0.005]) | st.floats(0.0, 0.999)))
    # on each knee and at both zeros
    level = data.draw(st.sampled_from([params.l_base, 0.0, -0.0]) | st.floats(-10.0, 10.0))
    v = data.draw(st.sampled_from([params.v_aerobic, 0.0, -0.0]) | st.floats(-5.0, 40.0))
    want = max_step_lactate(level, v, params)
    assert struct.pack("<d", step_lactate(level, v, params)) == struct.pack("<d", want)


def test_params_validation():
    with pytest.raises(ValueError):
        LactateParams(alpha=0.0)
    with pytest.raises(ValueError):
        LactateParams(beta=-0.1)
    with pytest.raises(ValueError):
        LactateParams(beta=1.5)


def fresh_monitor(**kwargs):
    return FatigueMonitor(FatigueThresholds(**kwargs))


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
