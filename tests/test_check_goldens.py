"""``scripts/check_goldens.py``: its ``main()`` in-process, its table of
pins, and the script under every other CPython 3.10-3.13 found on PATH.
One that is not found, cannot start, or is the running interpreter is
skipped, and the skip reason names it."""

import os
import re
import shutil
import subprocess
import sys

import pytest

import check_goldens as goldens

SCRIPT = goldens.ROOT / "scripts" / "check_goldens.py"
OTHERS = ("python3.10", "python3.11", "python3.12", "python3.13")


def _raises(out_dir):
    raise ValueError("no such preset")


def test_main_reports_a_mismatch_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(goldens, "checks", lambda: [
        ("kept", "aa", lambda out_dir: "aa"), ("changed", "bb", lambda out_dir: "cc"),
        ("raised", "dd", _raises), ("after", "ee", lambda out_dir: "ee")])
    assert goldens.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["ok        kept", "MISMATCH  changed: got cc, recorded bb",
                         "ERROR     raised: ValueError: no such preset", "ok        after"]
    assert lines[-1].endswith(": 2 of 4 digests match")


# A label names its pin in the script's output and in the test ids of
# tests/test_goldens.py; a copied label would give two pins one name.
def test_pin_labels_are_unique():
    labels = [label for label, _, _ in goldens.checks()]
    assert not {label for label in labels if labels.count(label) > 1}


def test_pin_presets_exist():
    missing = [preset for _, _, preset, _, _ in goldens.CLI_PINS
               if preset is not None and not (goldens.ROOT / "scenarios" / preset).is_file()]
    assert not missing


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
