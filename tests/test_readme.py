"""The README's "Library use" section is the package's documented API: its
Python examples run as written, and every name it says ``pitchsim``
exports is there. It imports no pytest, so the goldens workflow runs the
examples through ``run_example`` under each supported Python with nothing
installed."""

import re
from pathlib import Path

import pitchsim

ROOT = Path(__file__).resolve().parents[1]
SECTION = re.search(r"^## Library use\n(.*?)(?=^## |\Z)",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL).group(1)
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", SECTION, re.MULTILINE | re.DOTALL)


def run_example(source):
    exec(compile(source, "README.md", "exec"), {})


def pytest_generate_tests(metafunc):
    if "source" in metafunc.fixturenames:
        metafunc.parametrize("source", EXAMPLES,
                             ids=[f"example{i}" for i in range(len(EXAMPLES))])


def test_the_section_has_its_examples():
    assert EXAMPLES   # else the examples' test below would run on none


def test_library_example_runs(source, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)   # the examples' paths are relative to the checkout
    run_example(source)
    assert capsys.readouterr().out


def test_every_listed_export_is_in_the_package():
    listed = re.match(r"\s*`pitchsim` exports \w+ names: (.*?)\.\n", SECTION, re.DOTALL).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) == 7
    assert [name for name in names if not hasattr(pitchsim, name)] == []
