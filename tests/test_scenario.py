import struct
import sys
from dataclasses import fields, replace
from math import inf, isfinite, nan
from pathlib import Path

import pytest

from pitchsim.channel import ChannelParams
from pitchsim.cli import EXIT_INVALID, EXIT_OK, main
from pitchsim.energy import RadioModel
from pitchsim.engine import World, run_match
from pitchsim.geometry import FieldConfig, Point
from pitchsim.mobility import MobilityParams
from pitchsim.physiology import FatigueThresholds, LactateParams
from pitchsim.scenario import (_KEYS, _SECTION_TYPES, ParseError, Scenario,
                               ValidationError, parse_scenario,
                               parse_scenario_text)


def test_empty_text_yields_all_defaults():
    s = parse_scenario_text("")
    assert s == Scenario()
    assert s.protocol == "thefame"
    assert s.seed == 0
    assert (s.field_length, s.field_width) == (106.0, 68.0)
    assert len(s.build_field().sinks) == 6
    assert s.sink_placement == "corrected"


def test_comments_and_blank_lines_ignored():
    s = parse_scenario_text("# a comment\n\n   \nseed = 7\n")
    assert s.seed == 7


def test_wstm_selects_goal_sink_preset_and_periodic_trigger():
    s = parse_scenario_text("protocol = wstm\n")
    field = s.build_field()
    assert [sid for sid, _ in field.sinks] == [1, 2]
    assert dict(field.sinks)[1] == Point(0.0, 34.0)
    assert dict(field.sinks)[2] == Point(106.0, 34.0)
    assert s.wstm_period_s == 10


def test_out_of_range_drop_probability():
    with pytest.raises(ValidationError) as err:
        parse_scenario_text("drop_probability = 1.5\n")
    assert "drop_probability" in str(err.value)


def test_unknown_key_rejected_with_context():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("nonsense = 1\n", source="case.cfg")
    msg = str(err.value)
    assert "case.cfg:1" in msg and "nonsense" in msg


def test_duplicate_key_rejected():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("seed = 1\nseed = 2\n")
    assert "duplicate" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("seed: 5\n")
    assert ":1" in str(err.value)


def test_bad_value_type():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("rounds = soon\n")
    assert "rounds" in str(err.value)


def test_invalid_protocol():
    with pytest.raises(ValidationError):
        parse_scenario_text("protocol = carrier-pigeon\n")


def test_section_overrides_keep_other_defaults():
    s = parse_scenario_text("mobility.v_walk = 3.0\nlactate.beta = 0.0\n")
    assert s.mobility.v_walk == 3.0
    assert s.mobility.v_sprint == 25.0
    assert s.lactate.beta == 0.0
    assert s.lactate.alpha == pytest.approx(1.2 / 2178.0)


def test_invalid_section_value_names_invariant():
    with pytest.raises(ValidationError):
        parse_scenario_text("mobility.v_walk = 30.0\n")  # walk above run speeds


def test_extended_sink_placement():
    s = parse_scenario_text("field.sink_placement = extended\n")
    field = s.build_field()
    assert dict(field.sinks)[5] == Point(17.0, 106.0)


def test_invalid_sink_placement():
    with pytest.raises(ValidationError):
        parse_scenario_text("field.sink_placement = diagonal\n")


@pytest.mark.parametrize("line", ["lactate.alpha = nan", "radio.e_amp = nan",
                                  "energy.initial_j = inf", "field.length = nan",
                                  "drop_probability = -inf"])
def test_non_finite_float_rejected(line, tmp_path, capsys):
    key = line.split(" = ")[0]
    text = f"seed = 1\n{line}\n"
    with pytest.raises(ParseError) as err:
        parse_scenario_text(text, source="case.cfg")
    assert "case.cfg:2" in str(err.value) and key in str(err.value)
    assert "expects a finite float" in str(err.value)
    path = tmp_path / "case.cfg"
    path.write_text(text)
    assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1 and f"{path}:2" in stderr[0] and key in stderr[0]


def float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@pytest.mark.parametrize("name", ["field_length", "field_width"])
def test_field_is_valid_exactly_when_every_sink_layout_is_finite(name):
    # a finite dimension can still put a sink at inf; a scenario is valid for
    # every protocol and placement or for none, since compare runs its twin
    def builds(value):
        length, width = {"field_length": 106.0, "field_width": 68.0, name: value}.values()
        try:
            FieldConfig.goal_sinks(length, width)
            FieldConfig.six_sinks(length, width)
            FieldConfig.six_sinks(length, width, extended=True)
        except ValueError:
            return False
        return True

    # positive floats order like their bit patterns: bisect those for the edge
    lo, hi = (struct.unpack("<q", struct.pack("<d", v))[0] for v in (1.0, sys.float_info.max))
    assert builds(float_of_bits(lo)) and not builds(float_of_bits(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if builds(float_of_bits(mid)) else (lo, mid)
    for value in map(float_of_bits, range(lo - 3, hi + 3)):   # 4 ulps each side
        for protocol in ("thefame", "wstm"):
            for placement in ("corrected", "extended"):
                kwargs = {"protocol": protocol, "sink_placement": placement, name: value}
                if builds(value):
                    field = Scenario(**kwargs).build_field()
                    assert all(isfinite(pos.x) and isfinite(pos.y) for _, pos in field.sinks)
                else:
                    with pytest.raises(ValidationError, match="too large"):
                        Scenario(**kwargs)


NON_FINITE_PROBES = [
    (Scenario, "initial_energy_j", nan), (Scenario, "field_length", nan),
    (Scenario, "field_width", inf),
    (RadioModel, "e_amp", nan), (RadioModel, "e_circuitry", inf),
    (LactateParams, "alpha", nan), (LactateParams, "beta", nan),
    (LactateParams, "v_aerobic", nan), (LactateParams, "l_base", nan),
    (FatigueThresholds, "lactate", inf), (FatigueThresholds, "distance_km", nan),
    (ChannelParams, "per_hop_processing_s", nan), (ChannelParams, "data_rate_bps", inf),
    (MobilityParams, "deviation_radius", nan), (MobilityParams, "group_speed_kmh", inf),
    (MobilityParams, "v_sprint", inf), (MobilityParams, "run_episode_mean_s", inf),
    (FieldConfig, "length", inf),
]


@pytest.mark.parametrize("cls,name,value", NON_FINITE_PROBES,
                         ids=[f"{c.__name__}({n}={v})" for c, n, v in NON_FINITE_PROBES])
def test_library_constructors_reject_non_finite(cls, name, value):
    # the library path builds these without scenario.finite_float
    with pytest.raises(ValidationError if cls is Scenario else ValueError):
        cls(**{name: value})


NON_INT_PROBES = [
    (Scenario, "seed", nan), (Scenario, "seed", 1.5), (Scenario, "rounds", True),
    (Scenario, "rounds", inf), (Scenario, "players", 2.5), (Scenario, "players", True),
    (Scenario, "max_hops", inf), (Scenario, "wstm_period_s", inf),
    (RadioModel, "packet_bits", 1.5),
    (MobilityParams, "sprint_min_s", 2.5), (MobilityParams, "sprint_max_s", 4.5),
]


@pytest.mark.parametrize("cls,name,value", NON_INT_PROBES,
                         ids=[f"{c.__name__}({n}={v})" for c, n, v in NON_INT_PROBES])
def test_library_constructors_reject_non_int(cls, name, value):
    # int-typed settings; the file path casts with int() before this check
    with pytest.raises(ValidationError if cls is Scenario else ValueError):
        cls(**{name: value})


def test_every_model_setting_is_a_scenario_key():
    set_by_keys = {(section, attr) for section, attr, _ in _KEYS.values()}
    settings = {(None, f.name) for f in fields(Scenario) if f.name not in _SECTION_TYPES}
    settings |= {(name, f.name) for name, cls in _SECTION_TYPES.items()
                 for f in fields(cls)}
    assert settings - set_by_keys == set()


# A short event-heavy run with nodes dying, and one valid non-default value
# per key. Both protocols run on one recording world, so a key shows in the
# fingerprint whichever part of the run it reaches.
LIVE_BASE = {"rounds": "300", "lactate.alpha": "0.05", "lactate.beta": "0.5",
             "fatigue.lactate_threshold": "1.2", "fatigue.distance_km": "0.3",
             "energy.initial_j": "0.02"}
ALTERNATES = {
    "protocol": "wstm", "seed": "1", "rounds": "299", "players": "21",
    "field.length": "100", "field.width": "60", "field.sink_placement": "extended",
    "mobility.v_run_min": "10.0", "mobility.v_run_max": "13.5",
    "mobility.v_sprint": "24", "mobility.v_walk": "4.0",
    "mobility.sprint_min_s": "3", "mobility.sprint_max_s": "6",
    "mobility.sprints_per_match": "50", "mobility.rest_multiple": "3",
    "mobility.deviation_radius": "3", "mobility.group_speed_kmh": "9",
    "mobility.run_episode_mean_s": "10", "mobility.walk_episode_mean_s": "25",
    "lactate.base": "1.1", "lactate.v_aerobic": "13.5", "lactate.alpha": "0.04",
    "lactate.beta": "0.4", "fatigue.lactate_threshold": "2.0",
    "fatigue.distance_km": "0.4", "fatigue.hysteresis": "0.8",
    "radio.e_circuitry": "6e-8", "radio.e_amp": "2e-10", "radio.packet_bits": "2048",
    "radio.form": "first-order", "energy.initial_j": "0.03",
    "drop_probability": "0.2", "data_rate": "125000", "per_hop_processing": "0.01",
    "wstm.max_hops": "1", "wstm.period_s": "5",
}


def _paired_fingerprint(settings):
    scenario = parse_scenario_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    world = World(scenario, record_trajectory=True, record_lactate=True)
    other = "wstm" if scenario.protocol == "thefame" else "thefame"
    runs = [run_match(s, world) for s in (scenario, scenario.with_protocol(other))]
    return ([(r.metrics.rounds, r.metrics.debits, r.metrics.deaths, r.events)
             for r in runs], world.trajectory, world.lactate_trace)


@pytest.fixture(scope="module")
def base_fingerprint():
    return _paired_fingerprint(LIVE_BASE)


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_every_scenario_key_changes_the_run(key, base_fingerprint):
    assert _paired_fingerprint({**LIVE_BASE, key: ALTERNATES[key]}) != base_fingerprint


# --- what each key must not change -----------------------------------------

# The keys that the world never reads: whatever they say, the two protocols
# of a paired run see the same movement, lactate and fatigue events. Every
# other key may change the world; a new key goes into one list or the other.
LEAVE_THE_WORLD = {"protocol", "field.sink_placement", "radio.e_circuitry",
                   "radio.e_amp", "radio.packet_bits", "radio.form", "energy.initial_j",
                   "drop_probability", "data_rate", "per_hop_processing",
                   "wstm.max_hops", "wstm.period_s"}
MAY_CHANGE_THE_WORLD = {
    "seed", "rounds", "players", "field.length", "field.width",
    "mobility.v_run_min", "mobility.v_run_max", "mobility.v_sprint", "mobility.v_walk",
    "mobility.sprint_min_s", "mobility.sprint_max_s", "mobility.sprints_per_match",
    "mobility.rest_multiple", "mobility.deviation_radius", "mobility.group_speed_kmh",
    "mobility.run_episode_mean_s", "mobility.walk_episode_mean_s", "lactate.base",
    "lactate.v_aerobic", "lactate.alpha", "lactate.beta", "fatigue.lactate_threshold",
    "fatigue.distance_km", "fatigue.hysteresis"}
CHANNEL_KEYS = ["drop_probability", "data_rate", "per_hop_processing"]
WSTM_KEYS = ["wstm.max_hops", "wstm.period_s"]

# The high-rate preset cut to 600 rounds with 0.5 J batteries: 252 fatigue
# events, and one thefame node dies.
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PROBE = replace(parse_scenario(str(SCENARIOS / "high-rate.cfg")), rounds=600,
                initial_energy_j=0.5)


def _with_key(scenario, key, text):
    """``scenario`` with one scenario-file key set to ``text``."""
    section, attr, cast = _KEYS[key]
    if section is None:
        return replace(scenario, **{attr: cast(text)})
    return replace(scenario, **{section: replace(getattr(scenario, section),
                                                 **{attr: cast(text)})})


def _world_outputs(scenario):
    """The world's trajectory, lactate trace and fatigue events, as text
    that holds every float's bits."""
    world = World(scenario, record_trajectory=True, record_lactate=True)
    for _ in range(scenario.rounds):
        world.advance()
    events = [ev for t in sorted(world.history) for ev in world.history[t][0]]
    return repr(world.trajectory), repr(world.lactate_trace), repr(events)


@pytest.fixture(scope="module")
def probe_world():
    return _world_outputs(PROBE)


@pytest.fixture(scope="module")
def probe_thefame():
    return run_match(PROBE)


def test_the_probe_has_events_and_a_thefame_death(probe_world, probe_thefame):
    assert probe_world[2].count("FatigueEvent(") == 252
    assert len(probe_thefame.metrics.deaths) == 1


def test_every_key_is_listed_as_leaving_the_world_or_not():
    assert LEAVE_THE_WORLD.isdisjoint(MAY_CHANGE_THE_WORLD)
    assert LEAVE_THE_WORLD | MAY_CHANGE_THE_WORLD == set(_KEYS)


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_world_changes_only_with_the_keys_it_reads(key, probe_world):
    changed = _world_outputs(_with_key(PROBE, key, ALTERNATES[key])) != probe_world
    assert changed == (key in MAY_CHANGE_THE_WORLD)


@pytest.mark.parametrize("key", CHANNEL_KEYS)
def test_channel_keys_leave_thefame_debits_and_deaths(key, probe_thefame):
    # a dropped packet refunds nothing, and thefame relays nothing
    m = run_match(_with_key(PROBE, key, ALTERNATES[key])).metrics
    assert m.debits == probe_thefame.metrics.debits
    assert m.deaths == probe_thefame.metrics.deaths


@pytest.mark.parametrize("key", WSTM_KEYS)
def test_wstm_keys_leave_a_thefame_match(key, probe_thefame):
    r = run_match(_with_key(PROBE, key, ALTERNATES[key]))
    p = probe_thefame
    assert (r.metrics, r.events, r.totals) == (p.metrics, p.events, p.totals)


def test_invalid_radio_form():
    with pytest.raises(ValidationError):
        parse_scenario_text("radio.form = quadratic\n")


def test_players_bounds():
    assert parse_scenario_text("players = 24\n").players == 24
    with pytest.raises(ValidationError):
        parse_scenario_text("players = 25\n")


def test_parse_file_and_seed_override(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text("protocol = wstm\nseed = 3\nrounds = 100\n")
    s = parse_scenario(str(path))
    assert (s.protocol, s.seed, s.rounds) == ("wstm", 3, 100)
    assert s.with_seed(9).seed == 9
    assert s.with_protocol("thefame").protocol == "thefame"


def test_byte_order_mark_is_accepted_and_latin1_refused(tmp_path, capsys):
    preset = SCENARIOS / "high-rate.cfg"
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + preset.read_bytes())
    assert parse_scenario(str(bom)) == parse_scenario(str(preset))
    assert main(["validate", "--scenario", str(bom)]) == EXIT_OK
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("# caf\xe9\n".encode("latin-1") + preset.read_bytes())
    with pytest.raises(ParseError, match="not UTF-8 text"):
        parse_scenario(str(latin1))


def test_every_documented_key_parses():
    lines = []
    samples = {
        str: {"protocol": "wstm", "field.sink_placement": "extended",
              "radio.form": "first-order"},
        int: "3",
        float: "0.25",
    }
    overrides = {
        "players": "12", "rounds": "100", "mobility.v_run_min": "10.3",
        "mobility.v_run_max": "12.9", "mobility.v_sprint": "25",
        "mobility.v_walk": "4.0", "mobility.sprint_min_s": "2",
        "mobility.sprint_max_s": "5", "mobility.sprints_per_match": "50",
        "mobility.run_episode_mean_s": "10", "mobility.walk_episode_mean_s": "20",
        "lactate.base": "1.0",
        "lactate.v_aerobic": "12.9", "lactate.alpha": "0.0005",
        "lactate.beta": "0.005", "fatigue.lactate_threshold": "2.2",
        "fatigue.distance_km": "11.0", "fatigue.hysteresis": "0.9",
        "radio.packet_bits": "1024", "radio.e_circuitry": "5e-8",
        "radio.e_amp": "1e-10", "energy.initial_j": "0.025",
        "data_rate": "250000", "per_hop_processing": "0.005",
        "wstm.max_hops": "10", "wstm.period_s": "10",
        "mobility.rest_multiple": "2.0", "mobility.deviation_radius": "5",
        "mobility.group_speed_kmh": "7", "field.length": "106",
        "field.width": "68", "seed": "1", "drop_probability": "0.3",
    }
    for key in sorted(_KEYS):
        if key in overrides:
            value = overrides[key]
        elif key in samples[str]:
            value = samples[str][key]
        else:
            value = "1"
        lines.append(f"{key} = {value}")
    parse_scenario_text("\n".join(lines))
