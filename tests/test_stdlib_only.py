"""pitchsim runs on the standard library alone: no module of the package
imports a third-party package, and the project declares no dependency.
The scripts and the benchmark harness import only the standard library,
pitchsim and the harness's own modules.
No module uses the builtin ``sum()``, and no module imports a private
(underscored) name from another, and no module imports ``enum``: a closed
set of values, such as an effort mode or a fatigue cause, is a set of
module string constants. A frozen dataclass validates its fields
in ``__post_init__``; a frozen record that validates nothing is a
``typing.NamedTuple``, read as the tuple it is, so no module names
``dataclasses.astuple`` or ``asdict``. Every other dataclass holds
mutable state and declares ``slots=True``. The package itself binds only
the library API that the README documents: six names imported from their
modules, plus ``__version__``, so every other name has one import path.
Each top-level function and class of the package is named by a module of
the package, the scripts or the benchmark harness, so no definition is
kept alive by tests alone. Every exception class the package defines is
``ScenarioError`` or a subclass of it, so a package-defined error is
always one that the CLI turns into exit 1.

This file imports only the standard library, so it also runs without
pytest, by calling each ``test_*`` function that ``runpy.run_path`` returns."""

import ast
import builtins
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "pitchsim").glob("*.py"))
# the README's "Library use" section, and what it returns and raises
API = {"Scenario", "parse_scenario", "ScenarioError", "World", "run_match", "MatchResult"}
# scripts/ and the benchmark harness run with nothing installed; they may
# import pitchsim and the harness's own modules.
SCRIPTS = sorted((ROOT / "scripts").glob("*.py")) + sorted(
    path for path in (ROOT / "benchmarks").glob("*.py") if not path.name.startswith("test_"))
SCRIPT_SIBLINGS = {"pitchsim", "workloads", "spans", "layers", "run"}


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


def test_scripts_import_only_the_standard_library_and_pitchsim():
    assert SCRIPTS
    outside = {f"{path.parent.name}/{path.name}: {name}" for path in SCRIPTS
               for name in _absolute_imports(path)
               if name not in sys.stdlib_module_names and name not in SCRIPT_SIBLINGS}
    assert not outside


def _names(node: ast.AST, names: set[str]) -> bool:
    """A use of one of ``names``: read or called, as an attribute
    (``builtins.sum``), or imported."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(alias.name in names for alias in node.names)
    return (isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names)


# From Python 3.12 on, the builtin sum() compensates float rounding, so a
# total through it would differ in its last bits between supported Pythons.
def test_sources_never_use_sum():
    uses = [f"{path.name}:{node.lineno}" for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if _names(node, {"sum"})]
    assert not uses


# A name with a leading underscore is its module's own; a caller that needs
# it needs a public name.
def test_sources_import_no_private_names():
    private = [f"{path.name}:{node.lineno}: {alias.name}" for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private


# One idiom per closed value set: a mode or a cause is a module string
# constant, compared with ==, so an equal string from a library caller
# behaves the same.
def test_sources_import_no_enum():
    enums = sorted(path.name for path in SOURCES if "enum" in _absolute_imports(path))
    assert not enums


def _dataclass_flags(node: ast.AST) -> set[str] | None:
    """The keywords set to True in ``node``'s ``@dataclass(...)``, or None
    if ``node`` is not a dataclass."""
    if not isinstance(node, ast.ClassDef):
        return None
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
            return {kw.arg for kw in getattr(dec, "keywords", [])
                    if getattr(kw.value, "value", False) is True}
    return None


# One idiom per kind of record: a frozen dataclass exists to validate, and a
# plain value record is a NamedTuple, whose fields need no deep copy to read.
def test_frozen_dataclasses_validate_and_no_module_copies_fields():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in SOURCES}
    unvalidated = [f"{name}: {node.name}" for name, tree in trees.items()
                   for node in ast.walk(tree) if "frozen" in (_dataclass_flags(node) or ())
                   and not any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
                               for item in node.body)]
    copies = [f"{name}:{node.lineno}" for name, tree in trees.items()
              for node in ast.walk(tree) if _names(node, {"astuple", "asdict"})]
    assert (unvalidated, copies) == ([], [])


# One form per kind of record: a dataclass is either a validated setting
# (frozen) or mutable state (slots), so no record takes a __dict__ by default.
def test_every_dataclass_is_frozen_or_slotted():
    loose = [f"{path.name}: {node.name}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if (flags := _dataclass_flags(node)) is not None
             and not flags & {"frozen", "slots"}]
    assert not loose


# One import path per name: pitchsim.engine.NextHops, say, not also
# pitchsim.NextHops, so an internal can change without an API change.
def test_package_binds_only_the_documented_api():
    init = ROOT / "src" / "pitchsim" / "__init__.py"
    imported, assigned, other = [], [], []
    for node in ast.parse(init.read_text(encoding="utf-8"), str(init)).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            assigned += [ast.unparse(target) for target in node.targets]
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            other.append(f"__init__.py:{node.lineno}")   # anything but the docstring
    assert (sorted(imported), assigned, other) == (sorted(API), ["__version__"], [])


def _loaded_names(path: Path) -> set[str]:
    """Every name ``path`` reads, as a name or an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


# One statement of each thing: a definition that no program path names is
# a copy or a leftover, however well its tests pass.
def test_every_definition_is_named_by_a_program_module():
    named = set().union(*map(_loaded_names, SOURCES + SCRIPTS))
    unnamed = [f"{path.name}: {node.name}" for path in SOURCES
               for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in named]
    assert not unnamed


# Outside input is checked once, by the scenario: an error the package
# defines is a ScenarioError, which the CLI turns into exit 1 and one line.
def test_every_package_exception_is_a_scenario_error():
    classes = {node.name: (path.name, [ast.unparse(base).split(".")[-1] for base in node.bases])
               for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
               if isinstance(node, ast.ClassDef)}

    def bases(name):
        return classes[name][1] if name in classes else []

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        return (isinstance(builtin, type) and issubclass(builtin, BaseException)
                or any(map(is_exception, bases(name))))

    def is_scenario_error(name):
        return name == "ScenarioError" or any(map(is_scenario_error, bases(name)))

    strays = [f"{module}: {name}" for name, (module, _) in classes.items()
              if is_exception(name) and not is_scenario_error(name)]
    assert not strays


def test_project_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
