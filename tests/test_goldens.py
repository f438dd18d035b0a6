"""Every pinned run matches its recorded digest, under the builtin ``sum()``
and under an emulation of CPython 3.12's.

The runs, their digests and the code that computes them are those of
``scripts/check_goldens.py``, loaded by path; ``tests/test_check_goldens.py``
runs the same script under other interpreters.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_goldens.py"
_spec = importlib.util.spec_from_file_location("check_goldens", SCRIPT)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)
# the whole import of pitchsim that the script runs on; the benchmark's
# self-tests import pitchsim afresh, so sys.modules may later hold another
PITCHSIM_MODULES = [m for name, m in sys.modules.items() if name.startswith("pitchsim.")]
CHECKS = goldens.checks()


def _sum_312(iterable, start=0):
    """CPython 3.12's builtin sum(): ints add exactly; once the total is a
    float, floats (and ints) add with Neumaier compensation, and the
    compensation is added at the end when it is finite."""
    items = iter(iterable)
    total = start
    for x in items:
        total = total + x
        if type(total) is float:
            break
    else:
        return total
    c = 0.0
    for x in items:
        if type(x) not in (float, int):
            raise TypeError(f"emulated sum() takes floats and ints, got {type(x)}")
        x = float(x)
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_sum_312_patches_the_import_the_script_runs_on():
    assert all(m in PITCHSIM_MODULES for m in goldens.MODULES.values())


def test_sum_312_compensates_floats_only():
    assert _sum_312([0.1] * 10) == 1.0      # left to right: 0.9999999999999999
    assert _sum_312([1e100, 1.0, -1e100]) == 1.0
    assert _sum_312([2**60, 1, -2**60]) == 1
    assert _sum_312([], 0.5) == 0.5


# Reports must not depend on how the running Python's sum() rounds floats.
@pytest.mark.parametrize("summer", [sum, _sum_312], ids=["builtin-sum", "sum-312"])
@pytest.mark.parametrize("check", CHECKS,
                         ids=[label.replace(" ", "-") for label, _, _ in CHECKS])
def test_pinned_run_matches_its_digest(check, summer, tmp_path, monkeypatch):
    _, want, compute = check
    for module in PITCHSIM_MODULES:
        monkeypatch.setattr(module, "sum", summer, raising=False)
    assert compute(tmp_path) == want
