"""pitchsim runs on the standard library alone: no module of the package
imports a third-party package, and the project declares no dependency."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "pitchsim").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_import_only_the_standard_library():
    assert SOURCES
    outside = {f"{path.name}: {name}" for path in SOURCES
               for name in _absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert not outside


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
