"""Every pinned run matches its recorded digest under the running
interpreter.

The runs, their digests and the code that computes them are those of
``scripts/check_goldens.py``, loaded by path; ``tests/test_check_goldens.py``
tests the script's ``main()`` and runs the script under other interpreters.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_goldens.py"
_spec = importlib.util.spec_from_file_location("check_goldens", SCRIPT)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)
CHECKS = goldens.checks()


@pytest.mark.parametrize("check", CHECKS,
                         ids=[label.replace(" ", "-") for label, _, _ in CHECKS])
def test_pinned_run_matches_its_digest(check, tmp_path):
    _, want, compute = check
    assert compute(tmp_path) == want
