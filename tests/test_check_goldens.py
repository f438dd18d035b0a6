"""``scripts/check_goldens.py``: its ``main()`` in-process, and the script
under every other CPython 3.10-3.13 found on PATH. One that is not found,
cannot start, or is the running interpreter is skipped, and the skip
reason names it."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_goldens.py"
_spec = importlib.util.spec_from_file_location("check_goldens", SCRIPT)
goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(goldens)
OTHERS = ("python3.10", "python3.11", "python3.12", "python3.13")


def test_main_reports_a_mismatch_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(goldens, "checks", lambda: [
        ("kept", "aa", lambda out_dir: "aa"), ("changed", "bb", lambda out_dir: "cc")])
    assert goldens.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["ok        kept", "MISMATCH  changed: got cc, recorded bb"]
    assert lines[-1].endswith(": 1 of 2 digests match")


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
    proc = subprocess.run([path, str(SCRIPT)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = re.search(r": (\d+) of (\d+) digests match$", proc.stdout)
    assert counts and counts[1] == counts[2], proc.stdout
