#!/usr/bin/env python3
"""Print movement-calibration statistics over a batch of seeds.

Used to keep the default parameters honest: per-player match distance
around 11 km and roughly 100 sprints of 2-5 s each with double-length
recoveries.
"""

import argparse
import statistics
import sys

from pitchsim.engine import simulate_mobility
from pitchsim.scenario import Scenario


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--players", type=int, default=22)
    parser.add_argument("--rounds", type=int, default=5400)
    args = parser.parse_args(argv)

    distances = []
    sprint_counts = []
    crossings = []
    for seed in range(args.seeds):
        run = simulate_mobility(Scenario(players=args.players, rounds=args.rounds,
                                         seed=seed))
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
