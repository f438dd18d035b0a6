#!/usr/bin/env python3
"""Recompute the golden digests under the interpreter that runs this script.

    python3 scripts/check_goldens.py

The script uses the standard library only, so any CPython that runs
pitchsim can run it, with or without pytest. It recomputes seed 0 of
each workload in ``benchmarks/goldens.json`` and the two-seed default
``compare`` pinned by ``DEATH_RUN_DIGEST`` in ``tests/test_goldens.py``.
It prints one line per digest and exits 1 if any differs. The workloads
and the digest rule are the benchmark's own, read from ``benchmarks/``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from pitchsim import cli, engine, report, scenario  # noqa: E402

MODULES = {"scenario": scenario, "engine": engine, "cli": cli, "report": report}
TEST_GOLDENS = ROOT / "tests" / "test_goldens.py"


def recorded_death_run_digest() -> str:
    """``DEATH_RUN_DIGEST`` as ``tests/test_goldens.py`` records it."""
    for node in ast.parse(TEST_GOLDENS.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "DEATH_RUN_DIGEST"):
            return ast.literal_eval(node.value)
    raise LookupError(f"no DEATH_RUN_DIGEST in {TEST_GOLDENS}")


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


def death_run_digest(out_dir: Path) -> str:
    """Digest of ``compare --seeds 0..1`` on the default scenario file."""
    argv = ["compare", "--scenario", str(ROOT / "scenarios" / "default.cfg"),
            "--seeds", "0..1", "--out", str(out_dir)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return f"exit code {code}"
    return workloads.tree_digest(out_dir)[0]


def main() -> int:
    goldens = workloads.load_goldens()
    checks = [(f"{name} seed 0", goldens[name]["0"],
               lambda out, name=name: workload_digest(name, out))
              for name in sorted(goldens)]
    checks.append(("DEATH_RUN_DIGEST", recorded_death_run_digest(), death_run_digest))
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, want, compute) in enumerate(checks):
            got = compute(Path(tmp) / str(i))
            if got == want:
                print(f"ok        {label}")
            else:
                mismatches += 1
                print(f"MISMATCH  {label}: got {got}, recorded {want}")
    print(f"{platform.python_implementation()} {platform.python_version()}: "
          f"{len(checks) - mismatches} of {len(checks)} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
