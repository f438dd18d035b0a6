"""Every pinned run matches its recorded digest under the running
interpreter.

The runs, their digests and the code that computes them are those of
``scripts/check_goldens.py``; ``tests/test_check_goldens.py`` tests the
script's ``main()`` and its table, and runs the script under other
interpreters.
"""

import pytest

import check_goldens as goldens

CHECKS = goldens.checks()


@pytest.mark.parametrize("check", CHECKS,
                         ids=[label.replace(" ", "-") for label, _, _ in CHECKS])
def test_pinned_run_matches_its_digest(check, tmp_path):
    _, want, compute = check
    assert compute(tmp_path) == want
