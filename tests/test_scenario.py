import pytest

from pitchsim.cli import EXIT_INVALID, main
from pitchsim.geometry import Point
from pitchsim.scenario import (ParseError, Scenario, ValidationError,
                               parse_scenario, parse_scenario_text,
                               scenario_keys)


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
    path = tmp_path / "case.cfg"
    path.write_text(text)
    assert main(["validate", "--scenario", str(path)]) == EXIT_INVALID
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1 and f"{path}:2" in stderr[0] and key in stderr[0]


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
        "lactate.base": "1.0", "lactate.threshold": "2.2",
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
    for key in scenario_keys():
        if key in overrides:
            value = overrides[key]
        elif key in samples[str]:
            value = samples[str][key]
        else:
            value = "1"
        lines.append(f"{key} = {value}")
    parse_scenario_text("\n".join(lines))
