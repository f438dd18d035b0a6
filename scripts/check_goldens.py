#!/usr/bin/env python3
"""Recompute every pinned run under the interpreter that runs this script.

    python3 scripts/check_goldens.py

This file is where each pinned run is recorded and computed: seed 0 of
each workload in ``benchmarks/goldens.json`` (the benchmark's own
workloads and digest rule, read from ``benchmarks/``), each row of
``CLI_PINS`` (one ``pitchsim`` command, computed by ``cli_pin_digest``,
so a new pinned command is one new row), and ``MOBILITY_RUN_DIGEST``.
It uses the standard library only, so any CPython that runs pitchsim can
run it, with or without pytest. It prints one line per digest and exits 1
if any differs or fails to compute. ``tests/test_goldens.py`` runs the
same ``checks()`` in-process.
"""

from __future__ import annotations

import contextlib
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


def cli_pin_digest(preset: str | None, extra: str, args: tuple[str, ...], out_dir: Path) -> str:
    """Digest of the reports that ``pitchsim *args`` writes to ``out_dir/out``
    on the scenario file ``out_dir/scenario.cfg``: the text of
    ``scenarios/<preset>`` (none if ``preset`` is None) followed by ``extra``."""
    cfg, out = out_dir / "scenario.cfg", out_dir / "out"
    text = (ROOT / "scenarios" / preset).read_text() if preset is not None else ""
    cfg.write_text(text + extra)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*args, "--scenario", str(cfg), "--out", str(out)])
    return workloads.tree_digest(out)[0] if code == 0 else f"exit code {code}"


# One row per pinned command: (label, recorded digest, preset under
# scenarios/ or None, text appended to it, pitchsim arguments). A tuple, not
# a dict, so that a repeated label is still two rows.
CLI_PINS: tuple[tuple[str, str, str | None, str, tuple[str, ...]], ...] = (
    # Recorded on the engine before the maintained alive list. With the default
    # 0.025 J battery wstm loses all 22 nodes on both seeds (the first at rounds
    # 10 and 30) and thefame loses a few late, so this pins the mid-round-death
    # path that none of the 1000 J benchmark goldens reach.
    ("DEATH_RUN_DIGEST",
     "9cee5d79879f63497c529533eec51187a33eb8f04bb56a993f7ab28351bd68ee",
     "default.cfg", "", ("compare", "--seeds", "0..1")),
    # Recorded before the recording flags moved onto the world: the run's
    # trajectory.csv and lactate.csv, next to its three usual reports, on the
    # event-heavy preset cut to 200 rounds.
    ("RECORDED_RUN_DIGEST",
     "151fc49466031367522e89ebfcfe2003cdf475ca34875f86d5e2de813ebcde23",
     "high-rate.cfg", "rounds = 200\n", ("run", "--dump-trajectory", "--dump-lactate")),
    # Recorded before summarize pooled its counters in one walk. Each protocol's
    # pooled summary.csv row adds three runs, and wstm's pooled delay sum is
    # 5.821474864456268 left to right but ...267 compensated, as the builtin
    # sum() adds floats from Python 3.12 on; so this pins the adding order.
    ("POOLED_RUN_DIGEST",
     "9ea69c14f6c66eb4975684090766660e6b7cd4767a6c2342aaf9ffab45cf6101",
     "high-rate.cfg", "rounds = 200\n", ("compare", "--seeds", "0..2")),
    # Recorded before padding rows were built positionally and before the run
    # took its totals once: wstm on its preset, seed 0, loses its last node at
    # round 180, so the run pads 5,220 all-dead rows and prints delivered=18.
    # No fatigue event falls in those 180 rounds, so its events.csv is a header.
    ("STOPPED_RUN_DIGEST",
     "3b417766a5b302c088748481e0dc87e0f967f6712778f8f3ce3973d29e1bf3f8",
     "wstm.cfg", "", ("run", "--seed", "0")),
    # Recorded before the world played ahead of the match: the same stopped run
    # with its trajectory.csv and lactate.csv, which hold rounds 1..180 only, the
    # rounds the match played, though its world may have played further.
    ("STOPPED_RECORDED_RUN_DIGEST",
     "bfcc7e81543146b313d0fe27ba8e5f2386bc24df826688c4bd1b039623a122f1",
     "wstm.cfg", "", ("run", "--seed", "0", "--dump-trajectory", "--dump-lactate")),
    # Recorded before any preset reached it: with no sprints the sprint hazard
    # is 0, so schedule_mode must draw no sprint-onset number; one extra draw
    # shifts every later mode choice of a 600-round world.
    ("NO_SPRINTS_RUN_DIGEST",
     "c05175a4d03e4669fcd8876450dfc9badd06a53fc60af7f80d736070ddbbb662",
     None, "rounds = 600\nmobility.sprints_per_match = 0\n", ("compare", "--seeds", "0")),
    # Recorded before any preset reached it: with rest_multiple 0 a sprint is
    # followed by no recovery at all, not by a recovery of one second.
    ("NO_REST_RUN_DIGEST",
     "955b200ba9a49918362f53a09570eadea7df1797ec487b5f4251db89a1f1cbf6",
     None, "rounds = 600\nmobility.rest_multiple = 0\n", ("compare", "--seeds", "0")),
    # Recorded before the recovery became a flag: sprints of 1-2 s at half
    # their length give recoveries of 0.5 s and 1 s, which no preset reaches.
    # A 0.5 s recovery still walks the whole second after its sprint.
    ("SHORT_REST_RUN_DIGEST",
     "af348880ea00bc2f1e83428793e74c64f276b0d75d1ff3ee03e46893664b23f2",
     None, "rounds = 600\nmobility.sprint_min_s = 1\nmobility.sprint_max_s = 2\n"
     "mobility.rest_multiple = 0.5\n", ("compare", "--seeds", "0")),
    # Recorded before any preset reached it: the extended layout's apron on a
    # 70-yard field is (106 * 70) / 68, one ulp off 106 * (70 / 68). A 1 J
    # thefame run with early, frequent lactate events keeps that ulp in its
    # debits; the 1000 J high-rate run loses it in the residual sums.
    ("WIDE_EXTENDED_RUN_DIGEST",
     "d13f3a27c55df1303d8794fd04fd7d704fdb51a8749e2de2b949d00afdf316a1",
     None, "rounds = 300\nlactate.alpha = 0.05\nlactate.beta = 0.5\n"
     "fatigue.lactate_threshold = 1.2\nfield.width = 70\n"
     "field.sink_placement = extended\nenergy.initial_j = 1\n", ("run", "--seed", "0")),
    # The rows below were each recorded before any preset reached their value,
    # on 600-round compares of seed 0 with default settings otherwise. Every hop
    # delivered: here each wstm packet that leaves its origin arrives, so its
    # delivery_pct is exactly 100.
    ("LOSSLESS_RUN_DIGEST",
     "decea8ec73a246ec0aa0d9150c53fbee2d818b1722b2ad6d236c56addf474515",
     None, "rounds = 600\ndrop_probability = 0\n", ("compare", "--seeds", "0")),
    # Every hop dropped: packets are sent but none arrives, so throughput is 0
    # and the mean delay is blank.
    ("ALL_DROPPED_RUN_DIGEST",
     "1877465d6ef505fa631c9a4e25e5006defe3a21a8e69b0e0b3a7617b5f3058c8",
     None, "rounds = 600\ndrop_probability = 1\n", ("compare", "--seeds", "0")),
    # One player: a home side of one and no away side.
    ("ONE_PLAYER_RUN_DIGEST",
     "acbd93a28ab1e31e5f0989e286edc8b6c32ab1911c1de3d2f1b016ab52f88340",
     None, "rounds = 600\nplayers = 1\n", ("compare", "--seeds", "0")),
    # Two players: one goalkeeper per side, mirrored about the halfway line.
    ("TWO_PLAYER_RUN_DIGEST",
     "4d87cc1d159a11fc3088f5f4918c0fdc7687141b32858104ee0e9c9cefd75d82",
     None, "rounds = 600\nplayers = 2\n", ("compare", "--seeds", "0")),
    # The first-order radio: circuitry energy not scaled by distance, on both
    # the transmit and the relay-receive cost.
    ("FIRST_ORDER_RUN_DIGEST",
     "c621d75354cbdbcbf719cc08ebdc986ef12671bf9fba3bddc8d498a1d3f97bd6",
     None, "rounds = 600\nradio.form = first-order\n", ("compare", "--seeds", "0")),
    # A one-hop budget: wstm refuses every relayed route.
    ("ONE_HOP_RUN_DIGEST",
     "8de6eefc3831679e0d3df693196b881022e5497720970c202abbd2da02cd5b2b",
     None, "rounds = 600\nwstm.max_hops = 1\n", ("compare", "--seeds", "0")),
    # A zero walking speed: a walking player has no speed cap, so step_player
    # leaves it where it stands, though it still draws its deviation.
    ("ZERO_WALK_RUN_DIGEST",
     "44a95974081c7d571f66d64ead0c53ce9fa52a64abaa1c63b37cf09945f41f13",
     None, "rounds = 600\nmobility.v_walk = 0\n", ("compare", "--seeds", "0")),
)

# Recorded before simulate_mobility ran on a world: every player's final
# position and distance, and every sprint episode, of seed 5 over 600 rounds.
MOBILITY_RUN_DIGEST = "78411694b62fff5aab6bb6f3555601690370aacab0a28ff762ed0977c4306132"


def mobility_run_digest(out_dir: Path) -> str:
    """Digest of ``simulate_mobility`` for 22 players, seed 5, 600 rounds."""
    run = engine.simulate_mobility(scenario.Scenario(players=22, rounds=600, seed=5))
    finals = [(k.x, k.y, k.cumulative_km) for k in run.players]
    sprints = [tuple(ep) for ep in run.sprints]
    return hashlib.sha256(repr((finals, sprints)).encode()).hexdigest()


def checks() -> list[tuple[str, str, Callable[[Path], str]]]:
    """Every pinned run: (label, recorded digest, compute), where
    ``compute(out_dir)`` returns the run's digest, writing under the empty
    directory ``out_dir``."""
    goldens = workloads.load_goldens()
    return [(f"{name} seed 0", goldens[name]["0"], functools.partial(workload_digest, name))
            for name in sorted(goldens)] + [
        (label, want, functools.partial(cli_pin_digest, preset, extra, args))
        for label, want, preset, extra, args in CLI_PINS] + [
        ("MOBILITY_RUN_DIGEST", MOBILITY_RUN_DIGEST, mobility_run_digest)]


def main() -> int:
    all_checks, mismatches = checks(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, want, compute) in enumerate(all_checks):
            out_dir = Path(tmp) / str(i)
            out_dir.mkdir()
            try:
                got = compute(out_dir)
            except Exception as exc:
                mismatches += 1
                print(f"ERROR     {label}: {type(exc).__name__}: {exc}")
                continue
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
