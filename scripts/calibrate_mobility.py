#!/usr/bin/env python3
"""Print movement-calibration statistics over a batch of seeds.

    python3 scripts/calibrate_mobility.py --seeds 20 --rounds 5400

Used to keep the default parameters honest: per-player match distance
around 11 km and roughly 100 sprints of 2-5 s each with double-length
recoveries.
"""

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pitchsim.engine import simulate_mobility  # noqa: E402
from pitchsim.scenario import Scenario, ScenarioError  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--players", type=int, default=22)
    parser.add_argument("--rounds", type=int, default=5400)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    try:
        scenario = Scenario(players=args.players, rounds=args.rounds)
    except ScenarioError as exc:
        parser.error(str(exc))

    distances = []
    sprint_counts = []
    crossings = []
    for seed in range(args.seeds):
        run = simulate_mobility(scenario.with_seed(seed))
        per_player = {k.player_id: 0 for k in run.players}
        for ep in run.sprints:
            per_player[ep.player_id] += 1
        sprint_counts.extend(per_player.values())
        for k in run.players:
            distances.append(k.cumulative_km)
            if k.cumulative_km >= 11.0:
                crossings.append(k.player_id)

    print(f"seeds={args.seeds} players={args.players} rounds={args.rounds}")
    print(f"distance km: mean={statistics.mean(distances):.3f} "
          f"sd={statistics.pstdev(distances):.3f} "
          f"min={min(distances):.3f} max={max(distances):.3f}")
    print(f"crossed 11 km: {len(crossings)}/{len(distances)}")
    print(f"sprints per player: mean={statistics.mean(sprint_counts):.1f} "
          f"min={min(sprint_counts)} max={max(sprint_counts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
