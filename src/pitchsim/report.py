"""Metric computation and CSV emission.

Three files per run: ``timeseries.csv`` (one row per round, cumulative
counters), ``events.csv`` (the fatigue log), and ``summary.csv``
(per-protocol totals plus a delta row for paired comparisons).
Summaries pool per-run tallies (``MatchResult.totals``), never round
logs, so a comparison writes each pair's run reports as the pair arrives
and keeps only its tallies and the paths it wrote. Its memory still
grows with the seed count, by about 1.5 KB per seed, but not with the
rounds.

Counters come at two levels and both are reported: ``throughput_pct``
follows the received-over-transmitted definition with every per-hop
send counted as a transmission, while ``delivery_pct`` is end-to-end
(packets reaching a sink over packets that left their origin). For a
single-hop protocol the two coincide.

CSV conventions are the csv module's, with LF line endings: RFC 4180
quoting, ``.`` decimal separator, ``None`` as a blank cell and floats
via ``repr``, so parsing a file back reproduces the values exactly.
Each value's text is rendered once: ``build_rows`` streams float cells as
``repr`` text, and a pair with the same event objects copies events.csv.
Undefined ratios are ``None`` and so blank, never 0 or 100;
``throughput_pct`` itself returns ``None`` when nothing was transmitted.
"""

from __future__ import annotations

import csv
import os
import shutil
from operator import is_
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .engine import MatchResult, MetricsLog, RunTotals, add_counters
from .physiology import LACTATE, MGDL_PER_MMOL_L, FatigueEvent

TIMESERIES_COLUMNS = ["round", "alive", "sent_cum", "dropped_cum",
                      "received_cum", "residual_total_J", "mean_delay_s"]
SUMMARY_COLUMNS = ["protocol", "runs", "stability_period", "throughput_pct",
                   "delivery_pct", "mean_delay_s", "sent_hops", "sent_packets",
                   "received", "dropped", "routing_failed", "final_residual_J"]
EVENT_COLUMNS = ["player_id", "time_s", "cause", "value", "value_mgdl"]
PAIR_COLUMNS = ["seed", SUMMARY_COLUMNS[0], *SUMMARY_COLUMNS[2:]]


def throughput_pct(received: int, transmitted: int) -> Optional[float]:
    """Delivered packets as a percentage of transmitted packets; None when
    nothing was transmitted, where the ratio is undefined."""
    return 100.0 * received / transmitted if transmitted else None


def build_rows(log: MetricsLog) -> Iterator[tuple]:
    """Cumulative per-round report rows from a metrics log, one tuple per
    round in ``TIMESERIES_COLUMNS`` order. Float cells are ``repr`` text, made
    for a residual that is a new object and for a mean delay whose totals
    take a non-zero amount (adding zero to a sum from ``0.0`` keeps its bits)."""
    sent = dropped = received = 0
    delay_sum = 0.0
    residual = residual_text = mean_text = None
    for rec in log.rounds:
        sent += rec.hop_sends
        dropped += rec.hop_drops
        if rec.received or rec.delay_sum:
            received += rec.received
            delay_sum += rec.delay_sum
            mean_text = repr(delay_sum / received) if received else None
        if rec.residual_j is not residual:
            residual, residual_text = rec.residual_j, repr(rec.residual_j)
        yield (rec.round, rec.alive, sent, dropped, received, residual_text, mean_text)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)
    return path


def write_timeseries(rows: Iterable[Sequence], path: str) -> str:
    return _write_csv(path, TIMESERIES_COLUMNS, rows)


def write_events(events: Sequence[FatigueEvent], path: str) -> str:
    return _write_csv(path, EVENT_COLUMNS, (
        (ev.player_id, float(ev.time), ev.cause, ev.value,
         ev.value * MGDL_PER_MMOL_L if ev.cause == LACTATE else None)
        for ev in events))


class ProtocolSummary(NamedTuple):
    """A value record: one protocol's pooled totals, a summary.csv row."""
    protocol: str
    runs: int
    stability_period: Optional[float]   # mean first-death round over runs with a death
    throughput: Optional[float]         # per-hop-transmission basis
    delivery: Optional[float]           # end-to-end basis
    mean_delay_s: Optional[float]
    sent_hops: int
    sent_packets: int
    received: int
    dropped: int
    routing_failed: int
    final_residual_j: float             # mean over runs


def summarize(protocol: str, runs: Sequence[RunTotals]) -> ProtocolSummary:
    """Pool per-run tallies in run order: the counters through
    ``add_counters``, then the first-death and residual means, each float
    sum added left to right, so every supported Python gives the same bits."""
    sent_hops, dropped, sent_packets, received, failed, _, delay_sum = add_counters(runs)
    death_sum = deaths = 0
    residual_sum = 0.0
    for t in runs:
        if t.first_death is not None:
            death_sum += t.first_death
            deaths += 1
        residual_sum += t.final_residual_j
    return ProtocolSummary(
        protocol=protocol,
        runs=len(runs),
        stability_period=death_sum / deaths if deaths else None,
        throughput=throughput_pct(received, sent_hops),
        delivery=throughput_pct(received, sent_packets),
        mean_delay_s=delay_sum / received if received else None,
        sent_hops=sent_hops,
        sent_packets=sent_packets,
        received=received,
        dropped=dropped,
        routing_failed=failed,
        final_residual_j=residual_sum / len(runs),
    )


def _delta_row(a: ProtocolSummary, b: ProtocolSummary) -> list:
    """``a`` minus ``b`` in every cell after ``runs``; None where either
    is undefined."""
    _, runs, *xs = a
    _, _, *ys = b
    return ["delta", runs] + [
        None if x is None or y is None else x - y for x, y in zip(xs, ys)]


def write_summary(summaries: Sequence[ProtocolSummary], path: str) -> str:
    """One row per protocol; paired summaries get a fame-minus-wstm delta row."""
    rows = list(summaries)
    if len(summaries) == 2:
        rows.append(_delta_row(summaries[0], summaries[1]))
    return _write_csv(path, SUMMARY_COLUMNS, rows)


def write_pairs(rows: Sequence[tuple[int, ProtocolSummary]], path: str) -> str:
    """Per-seed breakdown of a multi-seed comparison."""
    return _write_csv(path, PAIR_COLUMNS, (
        (seed, s.protocol, *s[2:]) for seed, s in rows))


def emit_run_reports(result: MatchResult, out_dir: str,
                     events_csv: Optional[str] = None) -> list[str]:
    """Write timeseries, events, and a one-row summary for a single run.
    events.csv is a copy of ``events_csv`` when given."""
    os.makedirs(out_dir, exist_ok=True)
    events_path = os.path.join(out_dir, "events.csv")
    paths = [
        write_timeseries(build_rows(result.metrics),
                         os.path.join(out_dir, "timeseries.csv")),
        shutil.copyfile(events_csv, events_path) if events_csv
        else write_events(result.events, events_path),
        write_summary([summarize(result.scenario.protocol, [result.totals])],
                      os.path.join(out_dir, "summary.csv")),
    ]
    if result.trajectory:
        paths.append(_write_csv(
            os.path.join(out_dir, "trajectory.csv"),
            ["player_id", "t", "x", "y", "mode"], result.trajectory))
    if result.lactate_trace:
        paths.append(_write_csv(
            os.path.join(out_dir, "lactate.csv"),
            ["player_id", "t", "lactate_mmol_l"], result.lactate_trace))
    return paths


def emit_comparison_reports(pairs: Iterable[tuple[int, MatchResult, MatchResult]],
                            out_dir: str) -> list[str]:
    """Write each ``(seed, thefame result, wstm result)`` pair's run reports
    as the pair arrives, keeping only its runs' totals; then the pooled
    summary and the per-seed pairs from those totals."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    kept: dict[str, list] = {}   # protocol -> [(seed, RunTotals)], in arrival order
    for seed, *results in pairs:
        events_csv = None   # the pair's first; reused by identity, as == calls 0.0 and -0.0 equal
        for result in results:
            protocol = result.scenario.protocol
            sub = os.path.join(out_dir, f"{protocol}-seed{seed:03d}")
            same = events_csv and len(results[0].events) == len(result.events) and all(
                map(is_, results[0].events, result.events))
            run_paths = emit_run_reports(result, sub, events_csv if same else None)
            events_csv = events_csv or run_paths[1]
            paths.extend(run_paths)
            kept.setdefault(protocol, []).append((seed, result.totals))
        # resuming ``pairs`` runs the next pair: hold nothing of this one
        del results, result
    paths.append(write_summary(
        [summarize(p, [t for _, t in runs]) for p, runs in kept.items()],
        os.path.join(out_dir, "summary.csv")))
    paths.append(write_pairs(
        [(seed, summarize(p, [t])) for p, runs in kept.items() for seed, t in runs],
        os.path.join(out_dir, "pairs.csv")))
    return paths
