#!/usr/bin/env python3
"""Recompute every pinned run under the interpreter that runs this script.

    python3 scripts/check_goldens.py

This file is where each pinned run is recorded and computed: seed 0 of
each workload in ``benchmarks/goldens.json`` (the benchmark's own
workloads and digest rule, read from ``benchmarks/``), and the runs
pinned by ``DEATH_RUN_DIGEST``, ``RECORDED_RUN_DIGEST``,
``MOBILITY_RUN_DIGEST``, ``POOLED_RUN_DIGEST``, ``STOPPED_RUN_DIGEST`` and
``STOPPED_RECORDED_RUN_DIGEST`` below. It uses the standard library only,
so any CPython that runs pitchsim can run it, with or without pytest. It prints one line per
digest and exits 1 if any differs.
``tests/test_goldens.py`` runs the same ``checks()`` in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import platform
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from pitchsim import cli, engine, report, scenario  # noqa: E402

MODULES = {"scenario": scenario, "engine": engine, "cli": cli, "report": report}


def _cli_digest(argv: list[str], out_dir: Path) -> str:
    """Digest of the reports that ``pitchsim argv`` writes to ``out_dir``."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return workloads.tree_digest(out_dir)[0] if code == 0 else f"exit code {code}"


def workload_digest(name: str, out_dir: Path) -> str:
    """Digest of the reports of op 0 of workload ``name``, as the benchmark
    checks them."""
    workload = workloads.WORKLOADS[name]
    results = []

    def run_match(*args, **kwargs):
        results.append(engine.run_match(*args, **kwargs))
        return results[-1]

    _, code = workload.run(workload.load(MODULES), 0, run_match, cli.main, out_dir)
    if code != 0:
        return f"exit code {code}"
    op = workloads.OpOutput(results, out_dir)
    return workloads.tree_digest(workload.report_dir(op, MODULES))[0]


# Recorded on the engine before the maintained alive list. With the default
# 0.025 J battery wstm loses all 22 nodes on both seeds (the first at rounds
# 10 and 30) and thefame loses a few late, so this pins the mid-round-death
# path that none of the 1000 J benchmark goldens reach.
DEATH_RUN_DIGEST = "9cee5d79879f63497c529533eec51187a33eb8f04bb56a993f7ab28351bd68ee"


def death_run_digest(out_dir: Path) -> str:
    """Digest of ``compare --seeds 0..1`` on the default scenario file."""
    return _cli_digest(["compare", "--scenario", str(ROOT / "scenarios" / "default.cfg"),
                        "--seeds", "0..1", "--out", str(out_dir)], out_dir)


# Recorded before the recording flags moved onto the world: the run's
# trajectory.csv and lactate.csv, next to its three usual reports, on the
# event-heavy preset cut to 200 rounds.
RECORDED_RUN_DIGEST = "151fc49466031367522e89ebfcfe2003cdf475ca34875f86d5e2de813ebcde23"


def _high_rate_200(out_dir: Path) -> str:
    """Path of the high-rate preset cut to 200 rounds, written under ``out_dir``."""
    short = out_dir / "short.cfg"
    short.write_text((ROOT / "scenarios" / "high-rate.cfg").read_text() + "rounds = 200\n")
    return str(short)


def recorded_run_digest(out_dir: Path) -> str:
    """Digest of ``run --dump-trajectory --dump-lactate`` on the high-rate
    preset cut to 200 rounds."""
    out = out_dir / "out"
    return _cli_digest(["run", "--scenario", _high_rate_200(out_dir), "--out", str(out),
                        "--dump-trajectory", "--dump-lactate"], out)


# Recorded before simulate_mobility ran on a world: every player's final
# position and distance, and every sprint episode, of seed 5 over 600 rounds.
MOBILITY_RUN_DIGEST = "78411694b62fff5aab6bb6f3555601690370aacab0a28ff762ed0977c4306132"


def mobility_run_digest(out_dir: Path) -> str:
    """Digest of ``simulate_mobility`` for 22 players, seed 5, 600 rounds."""
    run = engine.simulate_mobility(scenario.Scenario(players=22, rounds=600, seed=5))
    finals = [(k.x, k.y, k.cumulative_km) for k in run.players]
    sprints = [dataclasses.astuple(ep) for ep in run.sprints]
    return hashlib.sha256(repr((finals, sprints)).encode()).hexdigest()


# Recorded before summarize pooled its counters in one walk. Each protocol's
# pooled summary.csv row adds three runs, and wstm's pooled delay sum is
# 5.821474864456268 left to right but ...267 compensated, as the builtin
# sum() adds floats from Python 3.12 on; so this pins the adding order.
POOLED_RUN_DIGEST = "9ea69c14f6c66eb4975684090766660e6b7cd4767a6c2342aaf9ffab45cf6101"


def pooled_run_digest(out_dir: Path) -> str:
    """Digest of ``compare --seeds 0..2`` on the high-rate preset cut to
    200 rounds."""
    out = out_dir / "out"
    return _cli_digest(["compare", "--scenario", _high_rate_200(out_dir),
                        "--seeds", "0..2", "--out", str(out)], out)


# Recorded before padding rows were built positionally and before the run
# took its totals once: wstm on its preset, seed 0, loses its last node at
# round 180, so the run pads 5,220 all-dead rows and prints delivered=18.
# No fatigue event falls in those 180 rounds, so its events.csv is a header.
STOPPED_RUN_DIGEST = "3b417766a5b302c088748481e0dc87e0f967f6712778f8f3ce3973d29e1bf3f8"


def stopped_run_digest(out_dir: Path) -> str:
    """Digest of ``run --scenario scenarios/wstm.cfg --seed 0``."""
    return _cli_digest(["run", "--scenario", str(ROOT / "scenarios" / "wstm.cfg"),
                        "--seed", "0", "--out", str(out_dir)], out_dir)


# Recorded before the world played ahead of the match: the same stopped run
# with its trajectory.csv and lactate.csv, which hold rounds 1..180 only, the
# rounds the match played, though its world may have played further.
STOPPED_RECORDED_RUN_DIGEST = "bfcc7e81543146b313d0fe27ba8e5f2386bc24df826688c4bd1b039623a122f1"


def stopped_recorded_run_digest(out_dir: Path) -> str:
    """Digest of ``run --scenario scenarios/wstm.cfg --seed 0
    --dump-trajectory --dump-lactate``."""
    return _cli_digest(["run", "--scenario", str(ROOT / "scenarios" / "wstm.cfg"),
                        "--seed", "0", "--out", str(out_dir),
                        "--dump-trajectory", "--dump-lactate"], out_dir)


def checks() -> list[tuple[str, str, Callable[[Path], str]]]:
    """Every pinned run: (label, recorded digest, compute), where
    ``compute(out_dir)`` returns the run's digest, writing under the empty
    directory ``out_dir``."""
    goldens = workloads.load_goldens()
    return [(f"{name} seed 0", goldens[name]["0"], functools.partial(workload_digest, name))
            for name in sorted(goldens)] + [
        ("DEATH_RUN_DIGEST", DEATH_RUN_DIGEST, death_run_digest),
        ("RECORDED_RUN_DIGEST", RECORDED_RUN_DIGEST, recorded_run_digest),
        ("MOBILITY_RUN_DIGEST", MOBILITY_RUN_DIGEST, mobility_run_digest),
        ("POOLED_RUN_DIGEST", POOLED_RUN_DIGEST, pooled_run_digest),
        ("STOPPED_RUN_DIGEST", STOPPED_RUN_DIGEST, stopped_run_digest),
        ("STOPPED_RECORDED_RUN_DIGEST", STOPPED_RECORDED_RUN_DIGEST,
         stopped_recorded_run_digest)]


def main() -> int:
    all_checks, mismatches = checks(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, want, compute) in enumerate(all_checks):
            out_dir = Path(tmp) / str(i)
            out_dir.mkdir()
            got = compute(out_dir)
            if got == want:
                print(f"ok        {label}")
            else:
                mismatches += 1
                print(f"MISMATCH  {label}: got {got}, recorded {want}")
    print(f"{platform.python_implementation()} {platform.python_version()}: "
          f"{len(all_checks) - mismatches} of {len(all_checks)} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
