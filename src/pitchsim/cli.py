"""Command-line front end: run, compare, validate.

Exit codes: 0 success, 1 scenario validation error, 2 runtime error,
64 usage error.

``compare`` checks the lowest seed and the report bounds of one run per
seed before it writes anything; validity reads a seed only for ``>= 0``
and a protocol only for membership, so each other pair is built in turn.
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys

from .engine import World, run_match
from .protocol import THEFAME, WSTM
from .report import emit_comparison_reports, emit_run_reports
from .scenario import Scenario, ScenarioError, check_report_bounds, parse_scenario

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 64

OUT_ENV = "PITCHSIM_OUT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_out() -> str:
    return os.environ.get(OUT_ENV) or "out"


def _build_parser() -> _Parser:
    parser = _Parser(prog="pitchsim",
                     description="Deterministic on-pitch sensor network simulator")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="simulate one protocol run")
    run.add_argument("--scenario", help="scenario file (defaults when omitted)")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--out", default=None, help=f"output directory (${OUT_ENV} or ./out)")
    run.add_argument("--dump-trajectory", action="store_true",
                     help="also write per-round player positions")
    run.add_argument("--dump-lactate", action="store_true",
                     help="also write per-round lactate levels")

    cmp_ = sub.add_parser("compare", help="paired thefame/wstm runs over a seed range")
    cmp_.add_argument("--scenario", help="scenario file (defaults when omitted)")
    cmp_.add_argument("--seeds", default="0..9",
                      help="inclusive seed range n..m or a single seed (default 0..9)")
    cmp_.add_argument("--out", default=None)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", help="scenario file (defaults when omitted)")
    return parser


def _load_scenario(path: str | None) -> Scenario:
    if path is None:
        return Scenario()
    return parse_scenario(path)


def _parse_seeds(spec: str) -> range:
    """``n..m`` or ``n``, each bound ASCII decimal digits only; a leading
    ``-`` is kept for the scenario's own non-negative seed check."""
    lo, dots, hi = spec.partition("..")
    bounds = (lo, hi if dots else lo)
    digits = [b.removeprefix("-") for b in bounds]
    text = reprlib.repr(spec)   # one short line, however long the spec
    if not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError(f"seed range {text} is not n..m or a single seed")
    too_large = ValueError(f"seed range {text} is too large to count")
    try:
        first, last = int(bounds[0]), int(bounds[1])
    except ValueError:   # past the int-string limit, as ``run --seed`` refuses too
        raise too_large from None
    if last < first:
        raise ValueError(f"empty seed range {text}")
    if last - first >= sys.maxsize:   # a range longer than sys.maxsize has no len()
        raise too_large
    return range(first, last + 1)


def _cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    if args.seed is not None:
        scenario = scenario.with_seed(args.seed)
    out_dir = args.out or _default_out()
    os.makedirs(out_dir, exist_ok=True)   # an unusable --out fails before the match
    world = World(scenario, record_trajectory=args.dump_trajectory,
                  record_lactate=args.dump_lactate)
    result = run_match(scenario, world=world)
    paths = emit_run_reports(result, out_dir)
    last = result.metrics.rounds[-1]
    print(f"{scenario.protocol} seed={scenario.seed}: "
          f"{len(result.metrics.rounds)} rounds, alive={last.alive}, "
          f"delivered={result.totals.received}")
    for p in paths:
        print(f"  wrote {p}")
    return EXIT_OK


def _paired_runs(fame: Scenario, wstm: Scenario):
    """Both protocols on one world: movement, lactate and fatigue events
    are computed once, and the world is dropped on return."""
    world = World(fame)
    return run_match(fame, world=world), run_match(wstm, world=world)


def _cmd_compare(args) -> int:
    scenario = _load_scenario(args.scenario)
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError as exc:
        print(f"pitchsim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    check_report_bounds(scenario.with_seed(seeds[0]), runs=len(seeds))
    fame, wstm = scenario.with_protocol(THEFAME), scenario.with_protocol(WSTM)
    out_dir = args.out or _default_out()
    paths = emit_comparison_reports(
        ((s, *_paired_runs(fame.with_seed(s), wstm.with_seed(s))) for s in seeds), out_dir)
    print(f"compared {len(seeds)} paired seeds ({2 * len(seeds)} runs)")
    print(f"  wrote {paths[-2]}")
    print(f"  wrote {paths[-1]}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    scenario = _load_scenario(args.scenario)
    print(f"ok: protocol={scenario.protocol} seed={scenario.seed} "
          f"rounds={scenario.rounds} players={scenario.players}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"pitchsim: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"pitchsim: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"pitchsim: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
