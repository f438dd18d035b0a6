import os

import pytest

from pitchsim import cli
from pitchsim.cli import (EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE,
                          _parse_seeds, main)

FAST = "rounds = 200\nseed = 1\n"


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_defaults_exit_zero(capsys):
    assert main(["validate"]) == EXIT_OK
    assert "ok:" in capsys.readouterr().out


def test_validate_good_file(tmp_path):
    path = write(tmp_path, "protocol = wstm\n")
    assert main(["validate", "--scenario", path]) == EXIT_OK


def test_validate_bad_config_names_key(tmp_path, capsys):
    path = write(tmp_path, "drop_probability = 1.5\n")
    assert main(["validate", "--scenario", path]) == EXIT_INVALID
    assert "drop_probability" in capsys.readouterr().err


def test_run_bad_config_exit_one(tmp_path, capsys):
    path = write(tmp_path, "players = 99\n")
    assert main(["run", "--scenario", path]) == EXIT_INVALID
    assert "players" in capsys.readouterr().err


def test_unexpected_error_exits_runtime_with_one_line(tmp_path, monkeypatch,
                                                      capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_match", boom)
    assert main(["run", "--scenario", write(tmp_path, FAST),
                 "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert capsys.readouterr().err.splitlines() == [
        "pitchsim: internal error: RuntimeError: boom"]


def test_unknown_flag_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_unknown_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        main(["replay"])
    assert exc.value.code == EXIT_USAGE


def test_parse_seeds():
    assert _parse_seeds("0..3") == [0, 1, 2, 3]
    assert _parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        _parse_seeds("9..2")


def test_run_writes_reports_and_is_byte_deterministic(tmp_path):
    scenario = write(tmp_path, FAST)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--scenario", scenario, "--out", out1]) == EXIT_OK
    assert main(["run", "--scenario", scenario, "--out", out2]) == EXIT_OK
    for name in ("timeseries.csv", "events.csv", "summary.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"


def test_run_seed_override_changes_output(tmp_path):
    scenario = write(tmp_path, FAST)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["run", "--scenario", scenario, "--out", out1, "--seed", "5",
                 "--dump-trajectory"]) == EXIT_OK
    assert main(["run", "--scenario", scenario, "--out", out2, "--seed", "6",
                 "--dump-trajectory"]) == EXIT_OK
    a = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert a != b


def test_run_dump_flags(tmp_path):
    scenario = write(tmp_path, FAST)
    out = str(tmp_path / "dumps")
    assert main(["run", "--scenario", scenario, "--out", out,
                 "--dump-trajectory", "--dump-lactate"]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "lactate.csv"))
    first = open(os.path.join(out, "trajectory.csv")).read().splitlines()
    assert first[0] == "player_id,t,x,y,mode"
    assert len(first) == 1 + 200 * 22


def test_out_dir_from_environment(tmp_path, monkeypatch):
    scenario = write(tmp_path, FAST)
    envdir = str(tmp_path / "from-env")
    monkeypatch.setenv("PITCHSIM_OUT", envdir)
    assert main(["run", "--scenario", scenario]) == EXIT_OK
    assert os.path.exists(os.path.join(envdir, "timeseries.csv"))


def test_compare_writes_paired_outputs(tmp_path):
    scenario = write(tmp_path, FAST)
    out = str(tmp_path / "cmp")
    assert main(["compare", "--scenario", scenario, "--seeds", "0..1",
                 "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "pairs.csv"))
    for sub in ("thefame-seed000", "thefame-seed001", "wstm-seed000", "wstm-seed001"):
        assert os.path.exists(os.path.join(out, sub, "timeseries.csv"))
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert len(summary) == 4
    pairs = open(os.path.join(out, "pairs.csv")).read().splitlines()
    assert len(pairs) == 1 + 4


def test_paired_comparison_shares_trajectories(tmp_path):
    # same seed, different protocol: identical player movement
    from pitchsim.engine import run_match
    from pitchsim.scenario import parse_scenario_text
    base = parse_scenario_text(FAST + "energy.initial_j = 5.0\n")
    fame = run_match(base, record_trajectory=True)
    wstm = run_match(base.with_protocol("wstm"), record_trajectory=True)
    assert fame.trajectory == wstm.trajectory
