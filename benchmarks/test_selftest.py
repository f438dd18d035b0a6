"""Self-test of the benchmark itself: its output check, its span
arithmetic and its tracer. Run with

    python3 -m pytest -q benchmarks/test_selftest.py
"""

from __future__ import annotations

import array
import json
from collections import Counter

import pytest

from layers import PER_LAYER_UNITS, layer_metrics
from run import END_TO_END_UNITS, TRACED_OPS, Bench
from spans import (NO_PARENT, SpanLog, SpanTotals, TracerCost, log_self_times,
                   read_spans, self_times, write_spans)
from workloads import (ROOT, WORKLOADS, CompareHighRate, MatchThefame,
                       conservation_problems)

SHORT = "rounds = 200\nenergy.initial_j = 1000\n"


def short(workload_cls, cfg, flip=False):
    """``workload_cls`` on a 200-round scenario; with ``flip``, one byte
    of the op's summary.csv is changed after the op."""

    class Short(workload_cls):
        def scenario_path(self):
            return cfg

        def run(self, *args, **kwargs):
            wall, code = super().run(*args, **kwargs)
            if flip:
                summary = args[4] / "summary.csv"
                data = bytearray(summary.read_bytes())
                data[-2] ^= 1
                summary.write_bytes(bytes(data))
            return wall, code

    return Short()


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "short.cfg"
    path.write_text(SHORT)
    return path


def test_flipped_byte_counts_as_failed_op(tmp_path, cfg):
    bench = Bench(short(CompareHighRate, cfg), seed=0, out=tmp_path / "out")
    bench.setup()
    bench.goldens = {}
    first = bench.op(0)
    assert first["ok"] and bench.failed == 0
    bench.goldens = {"0": first["digest"]}
    assert bench.op(0)["ok"], "an unchanged rerun must match its golden"
    bench.workload = short(CompareHighRate, cfg, flip=True)
    assert not bench.op(0)["ok"]
    assert (bench.attempted, bench.failed) == (3, 1)


def test_conservation_check_catches_a_lost_debit(tmp_path, cfg):
    bench = Bench(short(MatchThefame, cfg), seed=0, out=tmp_path / "out")
    bench.setup()
    result = bench.modules["engine"].run_match(bench.base.with_protocol("wstm"))
    battery = bench.modules["energy"].Battery
    assert conservation_problems(result, battery) == []
    result.metrics.debits[0].pop()
    assert conservation_problems(result, battery)


def spans(rows):
    """Columns for self_times from (name id, parent, run, start, end)."""
    cols = list(zip(*rows))
    return dict(name=array.array("B", cols[0]), parent=array.array("i", cols[1]),
                run=array.array("H", cols[2]), start_ns=array.array("q", cols[3]),
                end_ns=array.array("q", cols[4]), counted=[0] * len(rows))


def test_self_time_of_a_synthetic_tree():
    names = ["engine/run_match", "mobility/step_player", "energy/Battery.dead"]
    rows = [
        (0, NO_PARENT, 0, 0, 100),   # 0: root, children 1 and 3
        (1, 0, 0, 10, 40),           # 1: child 2 inside
        (2, 1, 0, 20, 30),           # 2
        (2, 0, 0, 50, 90),           # 3
        (0, NO_PARENT, 1, 200, 210),  # 4: a second run, no children
    ]
    totals = self_times(names, **spans(rows))
    assert totals.self_ns[(0, "engine/run_match")] == 100 - 30 - 40
    assert totals.self_ns[(0, "mobility/step_player")] == 30 - 10
    assert totals.self_ns[(0, "energy/Battery.dead")] == 10 + 40
    assert totals.self_ns[(1, "engine/run_match")] == 10
    assert totals.calls[(0, "energy/Battery.dead")] == 2
    assert totals.children[(0, "engine/run_match")] == 2


def test_tracer_cost_comes_off_in_calibrated_proportions():
    totals = SpanTotals()
    for name, calls, children, self_ns in [("engine/run_match", 1, 10, 5000),
                                           ("mobility/step_player", 10, 0, 3000)]:
        key = (0, name)
        totals.calls[key], totals.children[key] = calls, children
        totals.self_ns[key] = self_ns
    cost = TracerCost(parent_ns=100.0, own_ns=50.0, counted_ns=0.0)
    # the model charges 50 + 10 * 100 to the engine and 10 * 50 to mobility;
    # a measured tracer time of 0.775 us is half of that
    m = layer_metrics(totals, 0, Counter(), cost, tracer_s=775e-9)
    assert m["engine.self_s"] == pytest.approx((5000 - 525) / 1e9)
    assert m["mobility.self_s"] == pytest.approx((3000 - 250) / 1e9)
    assert m["mobility.calls"] == 10


def test_span_file_round_trip(tmp_path):
    log = SpanLog()
    log.start_run()
    leaf = log.wrap(lambda x: x + 1, "mobility/leaf")
    counted = log.count_calls(lambda: None)

    def body(n):
        counted()
        return sum(leaf(i) for i in range(n))

    root = log.wrap(body, "engine/root")
    root(3)
    log.start_run()
    root(2)
    path = tmp_path / "spans.bin.gz"
    write_spans(str(path), log.names, log.columns(), {"workload": "test"})
    header, columns = read_spans(str(path))
    assert header["count"] == len(log) == 4 + 3
    assert list(columns["run"]) == [0, 0, 0, 0, 1, 1, 1]
    assert list(columns["parent"]) == [NO_PARENT, 0, 0, 0, NO_PARENT, 4, 4]
    assert list(columns["counted"]) == [1, 0, 0, 0, 1, 0, 0]
    assert self_times(header["names"], **columns) == log_self_times(log)


def test_traced_counts_repeat_and_restore(tmp_path, cfg):
    bench = Bench(short(MatchThefame, cfg), seed=5, out=tmp_path / "out")
    bench.setup()
    bench.goldens = {}   # recorded for the full-length scenario
    engine = bench.modules["engine"]
    before = (engine.step_player, engine.MatchSim.alive_count,
              bench.modules["energy"].Battery.__dict__["dead"])
    metrics = bench.traced(seconds=0)
    assert bench.failed == 0, "traced repetitions of one op must count alike"
    # each traced op sits between two untraced runs of the same op
    assert bench.attempted == 2 * TRACED_OPS + 1
    # per round: the group reference, then schedule and step per player
    assert metrics["mobility.calls"] == 200 * (1 + 2 * 22)
    assert metrics["engine.scans"] == 200 * 2
    assert metrics["report.bytes"] == 0
    assert (engine.step_player, engine.MatchSim.alive_count,
            bench.modules["energy"].Battery.__dict__["dead"]) == before
    assert (tmp_path / "out" / "spans-match-thefame.bin.gz").exists()


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
