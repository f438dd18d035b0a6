"""Determinism across interpreters: ``scripts/check_goldens.py`` under the
interpreter running the tests and under every other CPython 3.10-3.13
found on PATH. One that is not found, cannot start, or is the running
interpreter again is skipped, and the skip reason names it."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_goldens.py"
OTHERS = ("python3.10", "python3.11", "python3.12", "python3.13")


def _check(executable):
    proc = subprocess.run([executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].endswith(": 6 of 6 digests match")


def test_goldens_hold_under_the_running_interpreter():
    _check(sys.executable)


@pytest.mark.parametrize("name", OTHERS)
def test_goldens_hold_under_another_interpreter(name):
    path = shutil.which(name)
    if path is None:
        pytest.skip(f"{name}: not found on PATH")
    probe = subprocess.run([path, "-c", "import sys; print(sys.executable)"],
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        pytest.skip(f"{name}: {path} does not start")
    if os.path.realpath(probe.stdout.strip()) == os.path.realpath(sys.executable):
        pytest.skip(f"{name}: the interpreter running the tests")
    _check(path)
