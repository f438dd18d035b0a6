"""The three benchmark workloads and the output check run after each op.

An op is one unit of user-visible work: one match through ``run_match``,
or one ``pitchsim compare`` over a single seed. Op ``i`` of a run with
workload seed ``n`` uses scenario seed ``n + i``, so every op of a run
simulates a different match.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
GOLDENS = BENCH_DIR / "goldens.json"
OUT = ROOT / ".bench_out"


@dataclasses.dataclass
class OpOutput:
    """What one op left behind for the check: the matches it simulated
    and the directory its CSV reports are in."""
    results: list
    out_dir: Path
    exit_code: int = 0


class Workload:
    name = ""
    scenario_file = ""
    matches_per_op = 1

    def scenario_path(self) -> Path:
        return SCENARIOS / self.scenario_file

    def load(self, pitchsim_modules: dict):
        """Parse this workload's scenario; return the base scenario."""
        return pitchsim_modules["scenario"].parse_scenario(str(self.scenario_path()))

    def scenario(self, base, seed: int):
        return base.with_seed(seed)

    def run(self, base, seed: int, run_match, cli_main,
            out_dir: Path) -> tuple[float, int]:
        """Run one op on scenario seed ``seed``, reaching the engine through
        ``run_match`` or the CLI through ``cli_main``, writing any reports
        under ``out_dir``. Returns (wall seconds, exit code)."""
        raise NotImplementedError

    def report_dir(self, op: OpOutput, pitchsim_modules: dict) -> Path:
        """Directory holding the op's CSV reports, written now if the op
        itself emits none."""
        return op.out_dir


class MatchWorkload(Workload):
    scenario_file = "default.cfg"

    def run(self, base, seed, run_match, cli_main, out_dir):
        scenario = self.scenario(base, seed)
        t0 = time.perf_counter()
        run_match(scenario)
        return time.perf_counter() - t0, 0

    def report_dir(self, op, pitchsim_modules):
        pitchsim_modules["report"].emit_run_reports(op.results[0], str(op.out_dir))
        return op.out_dir


class MatchThefame(MatchWorkload):
    """Mobility and physiology do the work; routing and channel are
    nearly idle."""
    name = "match-thefame"


class MatchWstm1000J(MatchWorkload):
    """wstm with 1000 J batteries plays all 5400 rounds: greedy routing
    and engine bookkeeping dominate."""
    name = "match-wstm-1000j"

    def scenario(self, base, seed):
        return dataclasses.replace(base, protocol="wstm", initial_energy_j=1000.0,
                                   seed=seed)


class CompareHighRate(Workload):
    """The only workload that parses a scenario file, pairs the protocols
    in the CLI and writes reports."""
    name = "compare-high-rate"
    scenario_file = "high-rate.cfg"
    matches_per_op = 2

    def run(self, base, seed, run_match, cli_main, out_dir):
        argv = ["compare", "--scenario", str(self.scenario_path()),
                "--seeds", str(seed), "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli_main(argv)
            wall = time.perf_counter() - t0
        return wall, code


WORKLOADS = {w.name: w for w in (MatchThefame(), MatchWstm1000J(), CompareHighRate())}


def tree_digest(directory: Path) -> tuple[str, int]:
    """sha256 over every file under ``directory`` (relative path, size and
    bytes, in sorted path order) and the total byte count."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rel = path.relative_to(directory).as_posix()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
        total += len(data)
    return h.hexdigest(), total


def conservation_problems(result, battery_cls) -> list[str]:
    """Criterion 5 identities on one match result.

    Per round every triggered packet is received, dropped on a hop or
    route-failed. Replaying each node's debit log on a fresh battery never
    debits a dead battery, kills exactly the nodes the log says died, and
    the replayed residuals sum to the final ``residual_j``.
    """
    problems = []
    m = result.metrics
    for rec in m.rounds:
        if rec.received + rec.hop_drops + rec.routing_failures != rec.triggered:
            problems.append(f"round {rec.round}: packets not conserved")
            break
    total = 0.0
    replay_dead = set()
    for pid, debits in m.debits.items():
        b = battery_cls(m.initial_energy_j)
        for amount in debits:
            if b.dead:
                problems.append(f"node {pid}: debit after death")
                break
            b.debit(amount)
        if b.residual != b.initial - b.consumed:
            problems.append(f"node {pid}: residual is not initial - consumed")
        if b.dead:
            replay_dead.add(pid)
        total += b.residual
    if replay_dead != {pid for pid, _ in m.deaths}:
        problems.append("replayed deaths differ from the death log")
    if total != m.rounds[-1].residual_j:
        problems.append(f"replayed residual {total!r} != final residual_j "
                        f"{m.rounds[-1].residual_j!r}")
    return [f"{result.scenario.protocol} seed {result.scenario.seed}: {p}"
            for p in problems]


def load_goldens() -> dict[str, dict[str, str]]:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def check_op(workload: Workload, op: OpOutput, golden: str | None,
             pitchsim_modules: dict) -> tuple[list[str], str]:
    """Check one op's output; returns (problems, report digest).

    The digest covers every CSV the op wrote (or, for a match, the reports
    its result gives) and must equal the golden when one is recorded for
    the seed. The conservation identities are checked for every seed.
    """
    problems = []
    if op.exit_code != 0:
        problems.append(f"exit code {op.exit_code}")
    if len(op.results) != workload.matches_per_op:
        problems.append(f"{len(op.results)} matches simulated, "
                        f"expected {workload.matches_per_op}")
    battery = pitchsim_modules["energy"].Battery
    for result in op.results:
        problems.extend(conservation_problems(result, battery))
    digest, size = tree_digest(workload.report_dir(op, pitchsim_modules))
    if size == 0:
        problems.append("no report written")
    if golden is not None and digest != golden:
        problems.append(f"report digest {digest} != golden {golden}")
    return problems, digest


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
