#!/usr/bin/env python3
"""pitchsim benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload match-thefame --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout; pitchsim is imported from the
checkout's ``src``. With ``--trace 0`` the run measures host time end to
end; with ``--trace 1`` it wraps every layer boundary and reports per-layer
self time and counts instead. The last line of stdout is the JSON result;
progress and problems go to stderr. Exit code 2 means the benchmark could
not run at all (for instance, no pitchsim sources next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback

from layers import (CLI_SPAN, COUNT_METRICS, PER_LAYER_UNITS, instrumented,
                    layer_metrics)
from spans import SpanLog, calibrate, self_times, write_spans
from workloads import (OUT, SRC, WORKLOADS, OpOutput, check_op, fresh_dir,
                       load_goldens)

# set-up is timed this many times per run; the median is reported
SETUP_REPEATS = 7
# fewest timed ops per untraced run, whatever --seconds says
MIN_OPS = 3
# traced repetitions of op 0 per traced run; their counts must agree
TRACED_OPS = 3

PITCHSIM_MODULES = ("scenario", "engine", "cli", "report", "energy",
                    "geometry", "physiology")

END_TO_END_UNITS = {"setup_s": "s", "wall_adj_s": "s",
                    "sim_rounds_per_adj_s": "1/s", "peak_rss_mb": "MB"}

# On a shared 2-core VM, CPU speed was seen to drift by up to a third over
# tens of seconds, so the times reported are in adjusted seconds: seconds
# of a CPU on which reference_s() takes REFERENCE_S.
REFERENCE_S = 0.050


class _Point:
    __slots__ = ("x", "y")


def reference_s() -> float:
    """Time a fixed piece of pure-Python work of the simulator's kind
    (float math, slot attributes, calls). It does not use pitchsim, so no
    change to pitchsim can move it."""
    t0 = time.perf_counter()
    p = _Point()
    p.x, p.y = 1.0, 2.0
    acc = 0.0
    for i in range(150_000):
        acc += math.hypot(p.x - i, p.y) * 0.5
        p.x = acc % 7.0
    return time.perf_counter() - t0


class SetupError(Exception):
    """The benchmark cannot run here."""


def import_pitchsim() -> dict:
    """Import pitchsim afresh from the checkout; short name -> module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m.split(".")[0] == "pitchsim"]:
        del sys.modules[name]
    try:
        modules = {name: importlib.import_module(f"pitchsim.{name}")
                   for name in PITCHSIM_MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import pitchsim from {SRC}: {exc}") from None
    if not modules["engine"].__file__.startswith(str(SRC)):
        raise SetupError(f"pitchsim imported from {modules['engine'].__file__}, "
                         f"not from {SRC}")
    return modules


class EngineEntry:
    """``run_match`` as the benchmark reaches it: times every call and
    keeps its result for the output check."""

    def __init__(self, run_match):
        self.run_match = run_match
        self.calls: list[tuple[float, object]] = []

    def __call__(self, scenario, *args, **kwargs):
        t0 = time.perf_counter()
        result = self.run_match(scenario, *args, **kwargs)
        self.calls.append((time.perf_counter() - t0, result))
        return result


class Bench:
    """One benchmark run: a workload, its seed and where ops write."""

    def __init__(self, workload, seed: int, out=OUT):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.ref_before = None

    def setup(self) -> float:
        """Import pitchsim, load the scenario and build the first sim,
        SETUP_REPEATS times; keep the last and return the median time in
        adjusted seconds."""
        self.goldens = load_goldens().get(self.workload.name, {})
        times = []
        ref_before = reference_s()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            modules = import_pitchsim()
            base = self.workload.load(modules)
            modules["engine"].MatchSim(self.workload.scenario(base, self.seed))
            times.append(time.perf_counter() - t0)
        speed = 2 * REFERENCE_S / (ref_before + reference_s())
        self.modules, self.base = modules, base
        self.entry = EngineEntry(modules["engine"].run_match)
        # compare reaches the engine through the name the CLI binds
        modules["cli"].run_match = self.entry
        print(f"median set-up time {statistics.median(times):.4f} s unadjusted",
              file=sys.stderr)
        return statistics.median(times) * speed

    def op(self, scenario_seed: int, log: SpanLog | None = None) -> dict:
        """Run, time and check one op; the check is not timed."""
        out_dir = fresh_dir(self.out / "op")
        cli = self.modules["cli"]
        self.entry.calls.clear()
        self.attempted += 1
        problems = []
        wall, code = 0.0, 0
        t0 = time.perf_counter()
        try:
            with (contextlib.nullcontext() if log is None
                  else instrumented(log, self.modules)):
                cli_main = cli.main if log is None else log.wrap(cli.main, CLI_SPAN)
                wall, code = self.workload.run(self.base, scenario_seed, cli.run_match,
                                               cli_main, out_dir)
        except Exception:
            wall = time.perf_counter() - t0
            problems.append(traceback.format_exc())
        op = OpOutput([r for _, r in self.entry.calls], out_dir, code)
        engine_s = sum(t for t, _ in self.entry.calls)
        rounds = sum(r.early_stop_round or r.scenario.rounds for r in op.results)
        golden = self.goldens.get(str(scenario_seed))
        digest = None
        if not problems:
            try:
                found, digest = check_op(self.workload, op, golden, self.modules)
                problems.extend(found)
            except Exception:
                problems.append(traceback.format_exc())
            self.golden_checked += golden is not None
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"op seed {scenario_seed} FAILED: " + "; ".join(problems),
                  file=sys.stderr)
        return {"wall_s": wall, "digest": digest, "ok": not problems,
                "rounds_per_s": rounds / engine_s if engine_s else None}

    def timed_op(self, scenario_seed: int, log: SpanLog | None = None):
        """``op`` plus the CPU speed around it: REFERENCE_S over the mean of
        the reference times before and after the op. Multiplying a time by
        the speed gives adjusted seconds."""
        if self.ref_before is None:
            self.ref_before = reference_s()
        res = self.op(scenario_seed, log)
        ref_after = reference_s()
        speed = 2 * REFERENCE_S / (self.ref_before + ref_after)
        self.ref_before = ref_after
        return res, speed

    def untraced(self, seconds: float, setup_s: float) -> dict:
        """Time ops on successive scenario seeds until ``seconds`` are
        spent."""
        walls, adj_walls, adj_rates = [], [], []
        while len(walls) < MIN_OPS or sum(walls) < seconds:
            res, speed = self.timed_op(self.seed + len(walls))
            walls.append(res["wall_s"])
            adj_walls.append(res["wall_s"] * speed)
            if res["rounds_per_s"] is not None:
                adj_rates.append(res["rounds_per_s"] / speed)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"median op wall time {statistics.median(walls):.4f} s unadjusted",
              file=sys.stderr)
        return {"setup_s": setup_s,
                "wall_adj_s": statistics.median(adj_walls),
                "sim_rounds_per_adj_s": statistics.median(adj_rates) if adj_rates else 0.0,
                "peak_rss_mb": peak_kb / 1024}

    def traced(self, seconds: float) -> dict:
        """Trace op 0 TRACED_OPS times, each between untraced runs of the
        same op, and keep timing op 0 untraced until ``seconds`` are spent.

        The tracer's own time in a traced op is its adjusted wall time
        minus the median adjusted untraced wall time. It is taken off the
        self times in the proportions calibrate() measures, so the corrected
        self times of an op add up to the untraced wall time. Self times are
        reported in adjusted seconds.
        """
        cost = calibrate()
        log = SpanLog()
        untraced_walls, traced, counts = [], [], []
        spent = 0.0
        while len(untraced_walls) <= TRACED_OPS or spent < seconds:
            res, speed = self.timed_op(self.seed)
            untraced_walls.append(res["wall_s"] * speed)
            spent += res["wall_s"]
            if len(traced) < TRACED_OPS:
                log.start_run()
                log.counts.clear()
                res, speed = self.timed_op(self.seed, log)
                traced.append((res["wall_s"], speed))
                counts.append(log.counts.copy())
                spent += res["wall_s"]
        untraced_wall = statistics.median(untraced_walls)
        columns = log.columns()
        totals = self_times(log.names, **columns)
        per_op = []
        for run, (c, (wall, speed)) in enumerate(zip(counts, traced)):
            m = layer_metrics(totals, run, c, cost, wall - untraced_wall / speed)
            per_op.append({k: v * speed if k.endswith(".self_s") else v
                           for k, v in m.items()})
        for run, m in enumerate(per_op[1:], start=1):
            differ = [k for k in COUNT_METRICS if m[k] != per_op[0][k]]
            if differ:
                self.failed += 1
                print(f"traced op {run}: counts differ from op 0: {differ}",
                      file=sys.stderr)
        traced_wall = statistics.median(w * speed for w, speed in traced)
        meta = {"workload": self.workload.name, "seed": self.seed,
                "tracer_cost_ns": dataclasses.asdict(cost),
                "untraced_wall_adj_s": untraced_wall,
                "traced_wall_s": [w for w, _ in traced],
                "traced_speed": [speed for _, speed in traced]}
        write_spans(str(self.out / f"spans-{self.workload.name}.bin.gz"),
                    log.names, columns, meta)
        metrics = {k: (per_op[0][k] if k in COUNT_METRICS
                       else statistics.median(m[k] for m in per_op))
                   for k in per_op[0]}
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        print(f"tracer cost per span: {cost.parent_ns:.0f} ns to the parent, "
              f"{cost.own_ns:.0f} ns to itself, {cost.counted_ns:.0f} ns per "
              f"counted call; op 0 untraced {untraced_wall:.4f} s, traced "
              f"{traced_wall:.4f} s (adjusted)", file=sys.stderr)
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        setup_s = bench.setup()
    except (SetupError, OSError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        values, units = bench.traced(args.seconds), PER_LAYER_UNITS
    else:
        values, units = bench.untraced(args.seconds, setup_s), END_TO_END_UNITS
    print(f"{args.workload} seed {args.seed}: {bench.attempted} ops, "
          f"{bench.failed} failed "
          f"(ops_failed_pct {100.0 * bench.failed / bench.attempted:.1f}), "
          f"{bench.golden_checked} checked against goldens", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
