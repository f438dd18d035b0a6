import csv
import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pitchsim import report
from pitchsim.cli import EXIT_OK, main
from pitchsim.engine import MatchResult, MetricsLog, RoundRecord, RunTotals, run_match
from pitchsim.mobility import RUN, SPRINT, WALK
from pitchsim.physiology import (DISTANCE, LACTATE, FatigueEvent, FatigueThresholds,
                                 LactateParams)
from pitchsim.protocol import THEFAME, WSTM
from pitchsim.report import (EVENT_COLUMNS, LACTATE_COLUMNS, PAIR_COLUMNS,
                             SUMMARY_COLUMNS, ProtocolSummary, TIMESERIES_COLUMNS,
                             TRAJECTORY_COLUMNS, build_rows, emit_comparison_reports,
                             summarize, throughput_pct, write_events, write_summary,
                             write_timeseries)
from pitchsim.scenario import Scenario


def test_throughput_seventy_percent():
    assert throughput_pct(70, 100) == 70.0


def test_throughput_zero():
    assert throughput_pct(0, 100) == 0.0


def test_throughput_lossless():
    assert throughput_pct(5, 5) == 100.0


def test_throughput_undefined_when_nothing_transmitted():
    assert throughput_pct(0, 0) is None


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=10_000),
       st.integers(min_value=1, max_value=1000))
def test_throughput_scale_invariant(received, extra, c):
    transmitted = received + extra
    assert throughput_pct(c * received, c * transmitted) == throughput_pct(received, transmitted)


def stress_result(rounds=400, seed=2):
    return run_match(Scenario(
        rounds=rounds, seed=seed,
        lactate=LactateParams(alpha=0.05, beta=0.5),
        thresholds=FatigueThresholds(lactate=1.2),
        initial_energy_j=5.0,
    ))


# a row is a plain tuple in header order
SENT, DROPPED, RECEIVED, MEAN_DELAY = map(TIMESERIES_COLUMNS.index, (
    "sent_cum", "dropped_cum", "received_cum", "mean_delay_s"))


def test_rows_are_cumulative_and_consistent():
    result = stress_result()
    rows = list(build_rows(result.metrics))
    assert len(rows) == 400
    for a, b in zip(rows, rows[1:]):
        assert b[SENT] >= a[SENT]
        assert b[DROPPED] >= a[DROPPED]
        assert b[RECEIVED] >= a[RECEIVED]
    for row in rows:
        assert row[RECEIVED] + row[DROPPED] <= row[SENT]


def reference_rows(log):
    """The timeseries rows with float cells as floats, each computed for
    its own round: the values the report renders with ``repr``."""
    sent = dropped = received = 0
    delay_sum = 0.0
    for rec in log.rounds:
        sent += rec.hop_sends
        dropped += rec.hop_drops
        received += rec.received
        delay_sum += rec.delay_sum
        yield (rec.round, rec.alive, sent, dropped, received, rec.residual_j,
               delay_sum / received if received else None)


def csv_module_bytes(header, rows, path):
    """The bytes ``csv.writer`` writes for ``header`` and ``rows`` with LF
    line endings: the reference that every report file must match, byte
    for byte, though the report writer does not use the csv module."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    return path.read_bytes()


any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def metrics_logs(draw):
    """Logs whose residuals repeat as one object, as equal but distinct
    objects and as 0.0/-0.0, with rounds that add a delay but no packet."""
    rounds, residual = [], draw(any_float)
    for t in range(1, draw(st.integers(1, 40)) + 1):
        kind = draw(st.sampled_from(["same", "copy", "new", 0.0, -0.0]))
        if kind == "copy":
            residual = float(repr(residual))   # equal, but another object
        elif kind == "new":
            residual = draw(any_float)
        elif kind != "same":
            residual = kind
        rounds.append(RoundRecord(
            t, draw(st.integers(0, 22)),
            hop_sends=draw(st.integers(0, 5)), hop_drops=draw(st.integers(0, 5)),
            received=draw(st.integers(0, 3)), residual_j=residual,
            delay_sum=draw(st.sampled_from([0.0, -0.0, 0.5]) | any_float)))
    return MetricsLog(initial_energy_j=1.0, rounds=rounds)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(metrics_logs())
def test_timeseries_text_cells_give_the_float_rows_bytes(tmp_path_factory, log):
    tmp = tmp_path_factory.mktemp("ts")
    path = tmp / "timeseries.csv"
    write_timeseries(build_rows(log), str(path))
    assert path.read_bytes() == csv_module_bytes(TIMESERIES_COLUMNS, reference_rows(log),
                                                 tmp / "reference.csv")


# Every word a report cell may hold: the column names, the protocol names,
# the delta row's label, the fatigue causes and the effort modes.
REPORT_WORDS = frozenset({
    *TIMESERIES_COLUMNS, *SUMMARY_COLUMNS, *EVENT_COLUMNS, *PAIR_COLUMNS,
    *TRAJECTORY_COLUMNS, *LACTATE_COLUMNS, THEFAME, WSTM, "delta",
    LACTATE, DISTANCE, WALK, RUN, SPRINT})
report_words = st.sampled_from(sorted(REPORT_WORDS))
report_cells = st.one_of(
    st.none(), report_words,
    st.integers(-2**70, 2**70), st.sampled_from([-1, 2**63, 2**64 + 7]),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                     1.7e308]))


@st.composite
def report_tables(draw):
    """A header of 3 to 12 words and rows of report cells as wide as it,
    as tuples or lists."""
    width = draw(st.integers(3, 12))
    header = draw(st.lists(report_words, min_size=width, max_size=width))
    row = st.lists(report_cells, min_size=width, max_size=width)
    return header, draw(st.lists(row | row.map(tuple), max_size=20))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(report_tables())
def test_the_writer_gives_the_csv_module_bytes(tmp_path_factory, table):
    """Every report file comes from ``_write_csv``; on any rows of report
    cells it writes what ``csv.writer`` writes."""
    header, rows = table
    tmp = tmp_path_factory.mktemp("rows")
    path = tmp / "report.csv"
    report._write_csv(str(path), header, rows)
    assert path.read_bytes() == csv_module_bytes(header, rows, tmp / "reference.csv")


def is_report_cell(cell):
    """An int, a float as its ``repr``, a blank or one of ``REPORT_WORDS``."""
    if cell == "" or cell in REPORT_WORDS or re.fullmatch(r"-?[0-9]+", cell):
        return True
    try:
        return repr(float(cell)) == cell
    except ValueError:
        return False


def test_no_report_cell_needs_quoting(tmp_path):
    """The writer quotes nothing, so every cell of every file must be one
    the csv module would not quote either: checked on a recorded run with
    both dumps and on a compare in which nodes die."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    cut = tmp_path / "high-rate-200.cfg"
    cut.write_text((scenarios / "high-rate.cfg").read_text() + "rounds = 200\n")
    assert main(["run", "--scenario", str(cut), "--out", str(tmp_path / "run"),
                 "--dump-trajectory", "--dump-lactate"]) == EXIT_OK
    assert main(["compare", "--scenario", str(scenarios / "default.cfg"),
                 "--seeds", "0..1", "--out", str(tmp_path / "cmp")]) == EXIT_OK
    files = sorted(tmp_path.glob("*/**/*.csv"))
    names = {f.name for f in files}
    assert {"trajectory.csv", "lactate.csv", "events.csv", "pairs.csv"} <= names
    for f in files:
        header, *lines = f.read_text(encoding="utf-8").splitlines()
        width = len(header.split(","))
        for line in lines:
            cells = line.split(",")
            assert len(cells) == width, (f, line)
            assert all(map(is_report_cell, cells)), (f, line)
        with open(f, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert f.read_bytes() == csv_module_bytes(parsed[0], parsed[1:], tmp_path / "ref.csv")


def test_the_writer_streams_its_rows(tmp_path):
    """Writing about 50,000 rows allocates no more than a small fixed
    amount at once: the file is never held whole in memory."""
    rows = ((i, 22, 3 * i, i, 2 * i, repr(i / 7), None) for i in range(50_000))
    tracemalloc.start()
    try:
        report._write_csv(str(tmp_path / "big.csv"), TIMESERIES_COLUMNS, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size > 2_000_000
    assert peak < 1_000_000


def read_back(path):
    """Parse an emitted timeseries with the csv module."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *cells = csv.reader(fh)
    assert header == TIMESERIES_COLUMNS
    return [(int(c[0]), int(c[1]), int(c[2]), int(c[3]), int(c[4]),
             float(c[5]), float(c[6]) if c[6] else None) for c in cells]


def test_timeseries_roundtrip_exact(tmp_path):
    result = stress_result()
    rows = list(build_rows(result.metrics))
    path = str(tmp_path / "timeseries.csv")
    write_timeseries(rows, path)
    assert read_back(path) == list(reference_rows(result.metrics))


def test_timeseries_byte_stable(tmp_path):
    rows = list(build_rows(stress_result().metrics))
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_timeseries(rows, p1)
    write_timeseries(rows, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_timeseries_blank_mean_delay_until_first_delivery(tmp_path):
    result = run_match(Scenario(rounds=50, seed=0))  # nothing triggers
    rows = list(build_rows(result.metrics))
    assert all(r[MEAN_DELAY] is None for r in rows)
    path = str(tmp_path / "t.csv")
    write_timeseries(rows, path)
    lines = open(path).read().splitlines()
    assert lines[1].endswith(",")  # blank cell, not 0
    assert read_back(path) == list(reference_rows(result.metrics))


def test_events_csv_units(tmp_path):
    events = [FatigueEvent(3, 100.0, LACTATE, 2.2),
              FatigueEvent(4, 200.0, DISTANCE, 11.0)]
    path = str(tmp_path / "events.csv")
    write_events(events, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "player_id,time_s,cause,value,value_mgdl"
    assert lines[1].split(",") == ["3", "100.0", "lactate", "2.2", repr(2.2 * 9.0)]
    assert lines[2].split(",") == ["4", "200.0", "distance", "11.0", ""]


def one_round_result(protocol, events):
    return MatchResult(scenario=Scenario(protocol=protocol),
                       metrics=MetricsLog(1.0, [RoundRecord(1, 22, residual_j=1.0)]),
                       events=events,
                       totals=RunTotals(0, 0, 0, 0, 0, 0, 0.0, None, 1.0))


def events_csvs(tmp_path, fame_events, wstm_events, monkeypatch):
    """Both events.csv files of a one-seed comparison, and how many of
    them ``write_events`` rendered."""
    rendered = []

    def counted(events, path):
        rendered.append(path)
        return write_events(events, path)

    monkeypatch.setattr(report, "write_events", counted)
    out = tmp_path / "cmp"
    paths = emit_comparison_reports(
        [(0, one_round_result("thefame", fame_events),
          one_round_result("wstm", wstm_events))], str(out))
    files = [out / f"{p}-seed000" / "events.csv" for p in ("thefame", "wstm")]
    assert all(str(f) in paths for f in files)
    return [f.read_bytes() for f in files], len(rendered)


LACTATE_EVENT = FatigueEvent(3, 100.0, LACTATE, 0.0)
DISTANCE_EVENT = FatigueEvent(4, 200.0, DISTANCE, 11.0)
EQUAL_LACTATE = LACTATE_EVENT._replace(value=-0.0)


def test_pair_with_the_same_event_objects_renders_events_once(tmp_path, monkeypatch):
    events = [LACTATE_EVENT, DISTANCE_EVENT]
    (fame, wstm), rendered = events_csvs(tmp_path, events, list(events), monkeypatch)
    assert rendered == 1
    write_events(events, str(tmp_path / "alone.csv"))
    assert fame == wstm == (tmp_path / "alone.csv").read_bytes()


@pytest.mark.parametrize("wstm_events", [
    [EQUAL_LACTATE, DISTANCE_EVENT],                        # == but not the same objects
    [LACTATE_EVENT],                                        # a prefix
    [LACTATE_EVENT, DISTANCE_EVENT, LACTATE_EVENT],         # longer
    [],
], ids=["equal-not-identical", "prefix", "longer", "empty"])
def test_pair_with_other_event_objects_renders_each_file(tmp_path, monkeypatch,
                                                         wstm_events):
    assert EQUAL_LACTATE == LACTATE_EVENT   # field-wise ==: 0.0 == -0.0
    fame_events = [LACTATE_EVENT, DISTANCE_EVENT]
    (fame, wstm), rendered = events_csvs(tmp_path, fame_events, wstm_events, monkeypatch)
    assert rendered == 2
    for got, events in ((fame, fame_events), (wstm, wstm_events)):
        path = tmp_path / "alone.csv"
        write_events(events, str(path))
        assert got == path.read_bytes()
    assert fame != wstm


def test_summary_shape_two_rows_plus_delta(tmp_path):
    fame = summarize("thefame", [stress_result(seed=0).totals])
    wstm = summarize("wstm", [run_match(Scenario(protocol="wstm", rounds=400,
                                                 seed=0)).totals])
    path = str(tmp_path / "summary.csv")
    write_summary([fame, wstm], path)
    lines = open(path).read().splitlines()
    assert len(lines) == 4  # header + 2 protocols + delta
    # the rows are the summary's fields in order, one cell each
    assert len(ProtocolSummary._fields) == len(SUMMARY_COLUMNS)
    assert lines[1].startswith("thefame,")
    assert lines[2].startswith("wstm,")
    header, fame_row, wstm_row, delta = (line.split(",") for line in lines)
    assert delta[0] == "delta"
    assert delta[1] == fame_row[1] == "1"
    assert fame_row[2] == "" and wstm_row[2] == "10.0"  # blank on one side

    def value(cell):
        return int(cell) if cell.lstrip("-").isdigit() else float(cell)

    for name, a, b, d in zip(header[2:], fame_row[2:], wstm_row[2:], delta[2:]):
        if a == "" or b == "":
            assert d == "", name
        else:
            assert d == str(value(a) - value(b)), name


def test_summary_blank_throughput_when_nothing_sent(tmp_path):
    silent = run_match(Scenario(rounds=30, seed=0))
    s = summarize("thefame", [silent.totals])
    assert s.throughput is None and s.delivery is None
    path = str(tmp_path / "summary.csv")
    write_summary([s], path)
    row = open(path).read().splitlines()[1].split(",")
    assert row[3] == "" and row[4] == ""


def test_mean_delay_none_handling():
    silent = run_match(Scenario(rounds=30, seed=0))
    assert summarize("thefame", [silent.totals]).mean_delay_s is None
    rows = list(build_rows(silent.metrics))
    assert rows[-1][MEAN_DELAY] is None
