"""Cross-version determinism: each benchmark workload's reports at scenario
seed 0 must hash to the digest recorded in ``benchmarks/goldens.json``.

The workloads, the digest rule and the goldens are the benchmark's own,
loaded from ``benchmarks/workloads.py`` by path.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _load_workloads():
    """Import the file under the name the benchmark's scripts use."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


bench = _load_workloads()
MODULES = {name: importlib.import_module(f"pitchsim.{name}")
           for name in ("scenario", "engine", "cli", "report")}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_seed_zero_reports_match_golden(name, tmp_path):
    workload = bench.WORKLOADS[name]
    results = []

    def run_match(scenario, *args, **kwargs):
        results.append(MODULES["engine"].run_match(scenario, *args, **kwargs))
        return results[-1]

    base = workload.load(MODULES)
    _, code = workload.run(base, 0, run_match, MODULES["cli"].main, tmp_path)
    assert code == 0
    out_dir = workload.report_dir(bench.OpOutput(results, tmp_path), MODULES)
    digest, size = bench.tree_digest(out_dir)
    assert size > 0
    assert digest == bench.load_goldens()[name]["0"]
