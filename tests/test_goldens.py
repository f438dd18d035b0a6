"""Cross-version determinism: each benchmark workload's reports at scenario
seed 0 must hash to the digest recorded in ``benchmarks/goldens.json``.

The workloads, the digest rule and the goldens are the benchmark's own,
loaded from ``benchmarks/workloads.py`` by path.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _load_workloads():
    """Import the file under the name the benchmark's scripts use."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


bench = _load_workloads()
MODULES = {name: importlib.import_module(f"pitchsim.{name}")
           for name in ("scenario", "engine", "cli", "report")}
# the whole import of pitchsim that MODULES belongs to; the benchmark's
# self-tests import pitchsim afresh, so sys.modules may later hold another
PITCHSIM_MODULES = [m for name, m in sys.modules.items() if name.startswith("pitchsim.")]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_seed_zero_reports_match_golden(name, tmp_path):
    workload = bench.WORKLOADS[name]
    results = []

    def run_match(scenario, *args, **kwargs):
        results.append(MODULES["engine"].run_match(scenario, *args, **kwargs))
        return results[-1]

    base = workload.load(MODULES)
    _, code = workload.run(base, 0, run_match, MODULES["cli"].main, tmp_path)
    assert code == 0
    out_dir = workload.report_dir(bench.OpOutput(results, tmp_path), MODULES)
    digest, size = bench.tree_digest(out_dir)
    assert size > 0
    assert digest == bench.load_goldens()[name]["0"]


# Recorded on the engine before the maintained alive list. With the default
# 0.025 J battery wstm loses all 22 nodes on both seeds (the first at rounds
# 10 and 30) and thefame loses a few late, so this pins the mid-round-death
# path that none of the 1000 J benchmark goldens reach.
DEATH_RUN_DIGEST = "9cee5d79879f63497c529533eec51187a33eb8f04bb56a993f7ab28351bd68ee"


def test_default_compare_with_node_deaths_matches_golden(tmp_path):
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "default.cfg"
    code = MODULES["cli"].main(["compare", "--scenario", str(scenario),
                                "--seeds", "0..1", "--out", str(tmp_path)])
    assert code == 0
    digest, size = bench.tree_digest(tmp_path)
    assert size > 0
    assert digest == DEATH_RUN_DIGEST


# Recorded before the recording flags moved onto the world: the run's
# trajectory.csv and lactate.csv, next to its three usual reports, on the
# event-heavy preset cut to 200 rounds.
RECORDED_RUN_DIGEST = "151fc49466031367522e89ebfcfe2003cdf475ca34875f86d5e2de813ebcde23"


def test_recorded_run_matches_golden(tmp_path):
    preset = Path(__file__).resolve().parents[1] / "scenarios" / "high-rate.cfg"
    scenario = tmp_path / "short.cfg"
    scenario.write_text(preset.read_text() + "rounds = 200\n")
    out = tmp_path / "out"
    code = MODULES["cli"].main(["run", "--scenario", str(scenario), "--out", str(out),
                                "--dump-trajectory", "--dump-lactate"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "events.csv", "lactate.csv", "summary.csv", "timeseries.csv", "trajectory.csv"]
    digest, _ = bench.tree_digest(out)
    assert digest == RECORDED_RUN_DIGEST


# Recorded before simulate_mobility ran on a world: every player's final
# position and distance, and every sprint episode, of seed 5 over 600 rounds.
MOBILITY_RUN_DIGEST = "78411694b62fff5aab6bb6f3555601690370aacab0a28ff762ed0977c4306132"


def test_simulate_mobility_matches_golden():
    from pitchsim.engine import simulate_mobility
    run = simulate_mobility(MODULES["scenario"].Scenario(players=22, rounds=600, seed=5))
    finals = [(k.x, k.y, k.cumulative_km) for k in run.players]
    sprints = [dataclasses.astuple(ep) for ep in run.sprints]
    assert any(ep[-1] for ep in sprints) and len(sprints) > 22
    digest = hashlib.sha256(repr((finals, sprints)).encode()).hexdigest()
    assert digest == MOBILITY_RUN_DIGEST


def _sum_312(iterable, start=0):
    """CPython 3.12's builtin sum(): ints add exactly; once the total is a
    float, floats (and ints) add with Neumaier compensation, and the
    compensation is added at the end when it is finite."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if type(total) is float:
            break
    else:
        return total
    c = 0.0
    for x in items:
        if type(x) not in (float, int):
            raise TypeError(f"emulated sum() takes floats and ints, got {type(x)}")
        x = float(x)
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


@pytest.fixture
def sum_312(monkeypatch):
    """Every pitchsim module sees the 3.12 sum() in place of the builtin."""
    for module in PITCHSIM_MODULES:
        monkeypatch.setattr(module, "sum", _sum_312, raising=False)


def test_sum_312_compensates_floats_only():
    assert _sum_312([0.1] * 10) == 1.0      # left to right: 0.9999999999999999
    assert _sum_312([1e100, 1.0, -1e100]) == 1.0
    assert _sum_312([2**60, 1, -2**60]) == 1
    assert _sum_312([], 0.5) == 0.5


# Reports must not depend on how the running Python's sum() rounds floats.
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_seed_zero_goldens_hold_under_312_sum(name, tmp_path, sum_312):
    test_seed_zero_reports_match_golden(name, tmp_path)


def test_death_run_golden_holds_under_312_sum(tmp_path, sum_312):
    test_default_compare_with_node_deaths_matches_golden(tmp_path)
