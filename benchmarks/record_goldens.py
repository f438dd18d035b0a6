#!/usr/bin/env python3
"""Record the report digests the benchmark checks its ops against.

    python3 benchmarks/record_goldens.py --first 0 --last 63 [--workload NAME]

Runs one untraced op per scenario seed in the range and stores the sha256
of its reports in goldens.json, replacing the entries of the workloads it
ran. Record only on a commit whose outputs are known good; an op whose
conservation check fails is not recorded, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import Bench
from workloads import GOLDENS, WORKLOADS, load_goldens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--last", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    goldens = load_goldens()
    for name in args.workload or sorted(WORKLOADS):
        bench = Bench(WORKLOADS[name], args.first)
        bench.setup()
        bench.goldens = {}
        recorded = {}
        for seed in range(args.first, args.last + 1):
            res = bench.op(seed)
            if not res["ok"]:
                return 1
            recorded[str(seed)] = res["digest"]
        goldens[name] = recorded
        print(f"{name}: recorded seeds {args.first}..{args.last}", file=sys.stderr)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump({name: goldens[name] for name in sorted(goldens)}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
