"""``scripts/check_goldens.py``: its ``main()`` in-process, its table of
pins, and the script under every other CPython 3.10-3.13 found on PATH,
and under each interpreter path listed in ``PITCHSIM_PYTHONS``
(separated by ``os.pathsep``). Interpreters are told apart by their
resolved ``sys.executable``. One found on PATH that cannot start is
skipped; a listed one that cannot start fails. One that is the running
interpreter, or one already checked under another name, is skipped, and
the skip reason names it."""

import functools
import os
import re
import shutil
import subprocess
import sys

import pytest

import check_goldens as goldens

SCRIPT = goldens.ROOT / "scripts" / "check_goldens.py"
OTHERS = ("python3.10", "python3.11", "python3.12", "python3.13")
LISTED = tuple(path for path in os.environ.get("PITCHSIM_PYTHONS", "").split(os.pathsep) if path)
CANDIDATES = [(name, False) for name in OTHERS] + [(path, True) for path in LISTED]


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


@functools.cache
def _executable(name: str, listed: bool) -> str | None:
    """The resolved ``sys.executable`` of interpreter ``name`` (a path when
    listed, else a name on PATH), or None if it is not found or does not
    start."""
    path = name if listed else shutil.which(name)
    if path is None:
        return None
    try:
        probe = subprocess.run([path, "-c", "import sys; print(sys.executable)"],
                               capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return os.path.realpath(probe.stdout.strip()) if probe.returncode == 0 else None


@pytest.mark.parametrize("name, listed", CANDIDATES, ids=[name for name, _ in CANDIDATES])
def test_goldens_hold_under_another_interpreter(name, listed):
    executable = _executable(name, listed)
    if executable is None:
        if listed:
            pytest.fail(f"{name}: listed in PITCHSIM_PYTHONS but does not start")
        pytest.skip(f"{name}: not found on PATH or does not start")
    if executable == os.path.realpath(sys.executable):
        pytest.skip(f"{name}: the interpreter running the tests")
    first = next(other for other, other_listed in CANDIDATES
                 if _executable(other, other_listed) == executable)
    if first != name:
        pytest.skip(f"{name}: the same interpreter as {first}")
    proc = subprocess.run([executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = re.search(r": (\d+) of (\d+) digests match$", proc.stdout)
    assert counts and counts[1] == counts[2], proc.stdout
