import csv
import errno
import math
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    assert _parse_seeds("0..3") == range(0, 4)
    assert _parse_seeds("7") == range(7, 8)
    with pytest.raises(ValueError):
        _parse_seeds("9..2")
    # sys.maxsize + 1 seeds: one more than a range can count
    with pytest.raises(ValueError):
        _parse_seeds(f"0..{sys.maxsize}")
    # a million seeds, held as a range, not a list of about 40 MB
    tracemalloc.start()
    try:
        seeds = _parse_seeds("0..999999")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seeds) == 1_000_000 and peak < 1_000_000


def test_run_writes_reports_and_is_byte_deterministic(tmp_path):
    scenario = write(tmp_path, FAST)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--scenario", scenario, "--out", out1]) == EXIT_OK
    assert main(["run", "--scenario", scenario, "--out", out2]) == EXIT_OK
    for name in ("timeseries.csv", "events.csv", "summary.csv"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, f"{name} differs between identical runs"


def test_run_prints_the_received_count_of_its_summary(tmp_path, capsys):
    # wstm on its preset stops early, so its rounds are padded all-dead rows
    preset = Path(__file__).resolve().parents[1] / "scenarios" / "wstm.cfg"
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(preset), "--seed", "0",
                 "--out", str(out)]) == EXIT_OK
    delivered = int(capsys.readouterr().out.split("delivered=")[1].split()[0])
    with open(out / "summary.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert delivered == int(row["received"]) == 18


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


def test_empty_out_dir_environment_counts_as_unset(tmp_path, monkeypatch):
    scenario = write(tmp_path, FAST)
    monkeypatch.setenv("PITCHSIM_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", scenario]) == EXIT_OK
    assert (tmp_path / "out" / "timeseries.csv").exists()


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
    from pitchsim.engine import World, run_match
    from pitchsim.scenario import parse_scenario_text
    base = parse_scenario_text(FAST + "energy.initial_j = 5.0\n")
    fame = run_match(base, world=World(base, record_trajectory=True))
    wstm = run_match(base.with_protocol("wstm"),
                     world=World(base.with_protocol("wstm"), record_trajectory=True))
    assert fame.trajectory == wstm.trajectory


def test_compare_moves_the_players_once_per_seed(tmp_path, monkeypatch):
    # 1000 J batteries: neither protocol stops early, so each plays every round.
    # cli and engine are imported together: a test file that reloads pitchsim
    # would leave a module-level cli running an engine other than this one
    from pitchsim import cli, engine
    calls = []
    original = engine.step_group_reference

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "step_group_reference", counted)
    scenario = write(tmp_path, FAST + "energy.initial_j = 1000\n")
    assert cli.main(["compare", "--scenario", scenario, "--seeds", "0..1",
                     "--out", str(tmp_path / "cmp")]) == EXIT_OK
    assert len(calls) == 2 * 200


def test_compare_bad_seed_writes_nothing(tmp_path, capsys):
    out = tmp_path / "cmp"
    # "--seeds -1..0" would parse as an unknown flag; "=" passes the value
    assert main(["compare", "--scenario", write(tmp_path, FAST), "--seeds=-1..0",
                 "--out", str(out)]) == EXIT_INVALID
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
@pytest.mark.parametrize("text", [
    b"field.length = 1e308\n",                   # a thefame sink at x = inf
    b"field.length = 1e308\nprotocol = wstm\n",  # and in compare's thefame twin
    b"# caf\xe9 (latin-1)\n",
    # finite keys whose run would write inf: a delay sum, a lactate level,
    # 22 full batteries added up in round 1's residual_total_J
    b"per_hop_processing = 1e308\nprotocol = wstm\ndrop_probability = 0\n",
    b"lactate.alpha = 1e308\n",
    b"energy.initial_j = 1e307\n",
], ids=["huge-field", "huge-field-wstm", "not-utf8", "huge-delay", "huge-lactate",
        "huge-battery"])
def test_bad_scenario_file_exits_invalid_writing_nothing(tmp_path, capsys,
                                                         command, text):
    path = tmp_path / "scenario.cfg"
    path.write_bytes(FAST.encode() + text)
    out = tmp_path / "out"
    argv = [command, "--scenario", str(path)]
    if command != "validate":
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pitchsim: invalid scenario: ")
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["run", "--scenario", "scenario.cfg", "--out", "blocker/x"], errno.ENOTDIR),
    (["compare", "--scenario", "scenario.cfg", "--seeds", "0", "--out", "blocker"],
     errno.EEXIST),
    (["validate", "--scenario", "folder"], errno.EISDIR),
], ids=["run-out-below-a-file", "compare-out-is-a-file", "validate-a-directory"])
def test_unusable_path_exits_runtime_with_one_line(tmp_path, monkeypatch, capsys,
                                                   argv, code):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, FAST)
    (tmp_path / "blocker").write_text("kept\n")
    (tmp_path / "folder").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pitchsim: ")
    assert os.strerror(code) in err[0] and "internal error" not in err[0]
    assert sorted(tmp_path.rglob("*")) == before   # no report written anywhere
    assert (tmp_path / "blocker").read_text() == "kept\n"


def test_run_checks_its_out_dir_before_playing_the_match(tmp_path, monkeypatch, capsys):
    played = []
    monkeypatch.setattr(cli, "run_match", lambda *args, **kwargs: played.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", "--scenario", write(tmp_path, FAST),
                 "--out", str(blocker / "x")]) == EXIT_RUNTIME
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pitchsim: ")
    assert played == []


# one run's worst-case delay sum is finite, so the file validates; the
# worst cases of two runs together overflow
POOLED_DELAY = ("per_hop_processing = 2.7e303\nprotocol = wstm\ndrop_probability = 0\n"
                "rounds = 300\nenergy.initial_j = 1000\n")


@pytest.mark.parametrize("seeds", ["0..199", "0..1"])
def test_compare_refuses_seeds_whose_pooled_delay_sum_overflows(tmp_path, capsys, seeds):
    path = write(tmp_path, POOLED_DELAY)
    assert main(["validate", "--scenario", path]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["compare", "--scenario", path, "--seeds", seeds,
                 "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pitchsim: invalid scenario: ")
    assert not out.exists()


def test_compare_one_seed_of_a_huge_delay_file_writes_finite_delays(tmp_path):
    out = tmp_path / "out"
    assert main(["compare", "--scenario", write(tmp_path, POOLED_DELAY), "--seeds", "3",
                 "--out", str(out)]) == EXIT_OK
    rows = (out / "summary.csv").read_text().splitlines()
    wstm = dict(zip(rows[0].split(","), rows[2].split(",")))
    assert wstm["protocol"] == "wstm" and 1e303 < float(wstm["mean_delay_s"]) < math.inf


# 11 * x is float max, but summary.csv adds 11 runs' final residuals left
# to right, and that sum overflows; 10 runs' sum is finite
POOLED_RESIDUAL = "players = 1\nenergy.initial_j = 1.6342664862384688e+307\nrounds = 5\n"


def test_compare_refuses_seeds_whose_pooled_residual_overflows(tmp_path, capsys):
    path = write(tmp_path, POOLED_RESIDUAL)
    out = tmp_path / "out"
    assert main(["compare", "--scenario", path, "--seeds", "0..10",
                 "--out", str(out)]) == EXIT_INVALID
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pitchsim: invalid scenario: energy.initial_j")
    assert not out.exists()
    assert main(["compare", "--scenario", path, "--seeds", "0..9",
                 "--out", str(out)]) == EXIT_OK
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["protocol"] for r in rows] == ["thefame", "wstm", "delta"]
    assert all(abs(float(r["final_residual_J"])) < math.inf for r in rows)
    assert float(rows[0]["final_residual_J"]) > 1e307


# extreme finite values for the keys the report bounds read
EXTREMES = [1e308, -1e308, sys.float_info.max, 1.6342664862384688e+307, 1e307, 2.7e303,
            1e300, 1.0, 5e-324, 0.0, -0.0]
BOUND_KEYS = ["field.length", "field.width", "energy.initial_j", "per_hop_processing",
              "data_rate", "lactate.base", "lactate.alpha", "lactate.v_aerobic",
              "mobility.v_sprint"]
INT_KEYS = {"players": st.integers(1, 22), "wstm.max_hops": st.sampled_from([1, 10, 10**300]),
            "radio.packet_bits": st.sampled_from([1, 1024, 10**300, 10**400])}
NOT_A_NUMBER = {"inf", "-inf", "nan"}


def test_compare_on_extreme_finite_values_exits_invalid_or_writes_only_numbers(tmp_path,
                                                                                capsys):
    outcomes = set()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(floats=st.fixed_dictionaries({}, optional={
               k: st.sampled_from(EXTREMES) for k in BOUND_KEYS}),
           ints=st.fixed_dictionaries({}, optional=INT_KEYS),
           rounds=st.integers(1, 30), seeds=st.integers(1, 11))
    def check(floats, ints, rounds, seeds):
        # no drops: every routed packet adds its delay to the reported sums
        keys = {**floats, **ints, "rounds": rounds, "drop_probability": 0.0}
        with tempfile.TemporaryDirectory(dir=tmp_path) as case:
            path = write(Path(case), "".join(f"{k} = {v!r}\n" for k, v in keys.items()))
            out = Path(case) / "out"
            code = main(["compare", "--scenario", path, "--seeds", f"0..{seeds - 1}",
                         "--out", str(out)])
            err = capsys.readouterr().err.splitlines()
            outcomes.add(code)
            if code == EXIT_INVALID:
                assert len(err) == 1 and err[0].startswith("pitchsim: invalid scenario: ")
                assert not out.exists()
                return
            assert code == EXIT_OK, err
            for report in out.rglob("*.csv"):
                with open(report, newline="") as fh:
                    bad = NOT_A_NUMBER.intersection(cell for row in csv.reader(fh) for cell in row)
                assert not bad, (report.relative_to(out), bad, keys)

    check()
    assert outcomes == {EXIT_OK, EXIT_INVALID}


@pytest.mark.parametrize("preset", ["default.cfg", "high-rate.cfg", "wstm.cfg"])
def test_preset_files_validate(preset):
    path = Path(__file__).resolve().parents[1] / "scenarios" / preset
    assert main(["validate", "--scenario", str(path)]) == EXIT_OK


def test_compare_dash_seed_range_is_a_usage_error(tmp_path, capsys):
    # the range is one argument; argparse takes a value that starts with "-"
    # and is not a plain number for a flag
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--scenario", write(tmp_path, FAST), "--seeds", "-1..0",
              "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


# only ASCII decimal digits: int() would also take spaces, a sign, underscores
# and other scripts' digits
@pytest.mark.parametrize("spec", ["3..", "..3", "a", "1.5", "0..x",
                                  " 3 ", "+3", "1_000", "\u0663"])
def test_compare_unreadable_seed_range_names_it(tmp_path, capsys, spec):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", write(tmp_path, FAST),
                 "--seeds", spec, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"pitchsim: error: seed range {spec!r} is not n..m or a single seed"]
    assert not out.exists()


def test_compare_seed_range_too_large_to_count_is_a_usage_error(tmp_path, capsys):
    # 5000 digits are past CPython's int-string limit, so int() refuses the
    # bound, and the error line shortens it
    scenario = write(tmp_path, FAST)
    for spec, shown in [("0..99999999999999999999999", "'0..99999999999999999999999'"),
                        ("0.." + "9" * 5000, "'0..999999999...9999999999999'")]:
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", scenario,
                     "--seeds", spec, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == [f"pitchsim: error: seed range {shown} is too large to count"]
        assert not out.exists()


# a seed of 20 digits is past sys.maxsize, but a range of one or two of
# them is not too large to count
@pytest.mark.parametrize("spec, seeds", [
    ("12345678901234567890", [12345678901234567890]),
    ("12345678901234567890..12345678901234567891",
     [12345678901234567890, 12345678901234567891]),
])
def test_compare_takes_every_seed_run_takes(tmp_path, capsys, spec, seeds):
    scenario = write(tmp_path, FAST)
    assert main(["run", "--scenario", scenario, "--seed", str(seeds[0]),
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario, "--seeds", spec,
                 "--out", str(out)]) == EXIT_OK
    assert f"compared {len(seeds)} paired seeds" in capsys.readouterr().out
    with open(out / "pairs.csv", newline="") as fh:
        assert [int(row["seed"]) for row in csv.DictReader(fh)] == seeds * 2   # per protocol


def test_compare_memory_does_not_grow_with_the_seed_count(tmp_path):
    # each pair's reports are written as it finishes and only its totals
    # are kept, so four seeds peak about where one does
    preset = Path(__file__).resolve().parents[1] / "scenarios" / "high-rate.cfg"
    scenario = write(tmp_path, preset.read_text() + "rounds = 1000\n")

    def compare(seeds):
        return main(["compare", "--scenario", scenario, "--seeds", seeds,
                     "--out", str(tmp_path / seeds)])

    def peak(seeds):
        tracemalloc.start()
        try:
            assert compare(seeds) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # untraced first run: one-time allocations (lazy imports, caches) land
    # outside both measurements
    assert compare("0") == EXIT_OK
    one, four = peak("0"), peak("0..3")
    assert four <= 1.5 * one, (four, one)


def test_one_seed_compare_runs_the_report_guard_once_per_scenario_built(tmp_path,
                                                                        monkeypatch):
    # the parse, the pooled check, the lowest seed, two protocols and one
    # seeded pair: a world checks the scenarios it serves field by field
    # and builds none. cli and scenario are imported together, as in
    # test_compare_moves_the_players_once_per_seed
    from pitchsim import cli, scenario
    calls = []
    original = scenario.check_report_bounds

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario, "check_report_bounds", counted)
    monkeypatch.setattr(cli, "check_report_bounds", counted)
    preset = Path(__file__).resolve().parents[1] / "scenarios" / "high-rate.cfg"
    path = write(tmp_path, preset.read_text() + "rounds = 1\n")
    assert cli.main(["compare", "--scenario", path, "--seeds", "0",
                     "--out", str(tmp_path / "cmp")]) == EXIT_OK
    assert len(calls) == 7
