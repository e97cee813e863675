"""Source hygiene: every name a divlab or test module imports is used
in it, every top-level function or class is referenced somewhere in the
package other than its own body (a public one may instead be exported or
traced by the benchmark), every name the package exports or the
benchmark's tracer rebinds exists, and a traced one is one object in
every module that binds its name, each layer imports only the layers
below it (algebra < factorization < sieve < {witnesses, diversity} <
cli), `import divlab.cli` loads no layer but algebra, no package module
reads the process environment or holds an `assert` statement, every
package dataclass is frozen, every package exception maps to an exit
code, and the CLI's table of the keys each run reads covers every key
and every run and matches README's.

Stdlib only.  The package's __init__.py is exempt from the import check,
since its imports are re-exports.
"""

import argparse
import ast
import importlib
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import divlab
from conftest import fresh_cli_run
from divlab.algebra import AlgebraError, LemmaViolation
from divlab.cli import _KEYS, _READS, ConfigError, build_parser

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "divlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def referenced_names(tree: ast.AST) -> Counter:
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of the top-level functions and classes, dunders
    aside, that no code outside their own definition refers to, across
    all the given modules."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((referenced_names(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("__")
                and total[node.name] == referenced_names(node)[node.name]
            ):
                out.append((module, node.name))
    return out


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """Top-level `_name` functions and classes that no code outside their
    own definition refers to, across all the given modules."""
    return [f"{module}: {name}" for module, name in unreferenced(sources) if name.startswith("_")]


def unreferenced_public(sources: dict[str, str], exempt: set[str]) -> list[str]:
    """Top-level public functions and classes that no code outside their
    own definition refers to, across all the given modules, apart from
    the `module: name` entries of exempt."""
    return [
        f"{module}: {name}"
        for module, name in unreferenced(sources)
        if not name.startswith("_") and f"{module}: {name}" not in exempt
    ]


def test_modules_found():
    assert len(MODULES) >= 6


# the layers, lowest first: each imports only from the ranks before its
# own, and two layers of one rank never import each other
LAYER_ORDER = (("algebra",), ("factorization",), ("sieve",), ("witnesses", "diversity"), ("cli",))


def upward_imports(sources: dict[str, str], order: tuple[tuple[str, ...], ...]) -> list[str]:
    """`module -> target (line n)` for each relative import, at any
    depth, whose target is not a layer of an earlier rank than the
    importing module's."""
    rank = {layer: i for i, group in enumerate(order) for layer in group}
    out = []
    for module, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            targets = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
            out += [
                f"{module} -> {target} (line {node.lineno})"
                for target in targets
                if rank.get(target, len(order)) >= rank[module]
            ]
    return out


def test_layers_import_downward():
    assert sorted(layer for group in LAYER_ORDER for layer in group) == [p.stem for p in MODULES]
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert upward_imports(sources, LAYER_ORDER) == []


def test_layer_detector():
    order = (("low",), ("mid",), ("left", "right"), ("top",))
    sources = {
        "low": "def f():\n    from .mid import g\n",
        "mid": "from .low import f\nfrom . import low\n",
        "left": "from .right import h\nfrom .low.sub import f\n",
        "right": "from . import stray\n",
        "top": "import os\nfrom os import sep\nfrom .left import g\nfrom .right import h\n",
    }
    assert upward_imports(sources, order) == [
        "left -> right (line 1)", "low -> mid (line 2)", "right -> stray (line 1)",
    ]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_name():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["line 2: Sequence"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private(sources) == []


def test_private_detector():
    a = (
        "def _used(n):\n    return n\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Orphan:\n    pass\n"
        "def _imported():\n    pass\n"
        "def public():\n    return _used(1)\n"
    )
    b = "from .a import _imported\n"
    assert unreferenced_private({"a.py": a, "b.py": b}) == ["a.py: _recursive", "a.py: _Orphan"]


ENVIRONMENT = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """Where the source reads the process environment: an `.environ` or
    `.getenv` attribute, or either name imported from os."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            out.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out += [(node.lineno, f"from os import {a.name}") for a in node.names if a.name in ENVIRONMENT]
    return [f"line {line}: {what}" for line, what in sorted(out)]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # a run's parameters come from its flags and config file alone
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_environment_detector():
    source = (
        "import os\n"
        "a = os.environ.get('A')\n"
        "b = os.getenv('B')\n"
        "from os import environ, sep\n"
        "c = os.path.join(os.sep, 'environ')\n"
    )
    assert environment_reads(source) == ["line 2: os.environ", "line 3: os.getenv", "line 4: from os import environ"]


def assert_statements(source: str) -> list[str]:
    """Where the source has an `assert` statement."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_module_asserts(path):
    # python -O strips assert statements, so every check must raise
    assert assert_statements(path.read_text(encoding="utf-8")) == []


def test_assert_detector():
    source = (
        "assert x, 'x'\n"
        "if not y:\n"
        "    raise AssertionError('assert y')\n"
        "def f(asserted):\n"
        "    assert (asserted, 'always true')\n"
    )
    assert assert_statements(source) == ["line 1", "line 5"]


def unfrozen_dataclasses(source: str) -> list[str]:
    """The classes the source decorates with `dataclass` without
    `frozen=True`."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                continue
            keywords = {kw.arg: kw.value for kw in call.keywords} if call else {}
            frozen = keywords.get("frozen")
            if not (isinstance(frozen, ast.Constant) and frozen.value is True):
                out.append(f"line {node.lineno}: {node.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    # records are built once and passed along; a changed field is a new
    # record made by dataclasses.replace
    assert unfrozen_dataclasses(path.read_text(encoding="utf-8")) == []


def test_frozen_detector():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(order=True)\nclass B:\n    x: int\n"
        "@dataclasses.dataclass(frozen=False)\nclass C:\n    x: int\n"
        "@dataclass(frozen=True)\nclass D:\n    x: int\n"
        "@dataclasses.dataclass(frozen=True)\nclass E:\n    x: int\n"
        "class F:\n    pass\n"
    )
    assert unfrozen_dataclasses(source) == ["line 4: A", "line 7: B", "line 10: C"]


def unmapped_exceptions(modules: list[types.ModuleType], bases: tuple[type, ...], exempt: set[str]) -> list[str]:
    """`module.Name` for each exception class a module defines that
    derives from none of bases, apart from the names in exempt."""
    return [
        f"{module.__name__}.{name}"
        for module in modules
        for name, obj in sorted(vars(module).items())
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        and not issubclass(obj, bases) and name not in exempt
    ]


def test_every_library_error_has_an_exit_code():
    # main turns a ConfigError into exit 1, an AlgebraError into 2 and a
    # LemmaViolation into 3; any other error would end in a traceback.
    # PolyParseError reaches main only as the ConfigError _load_cover
    # raises from it
    modules = [importlib.import_module(f"divlab.{p.stem}") for p in MODULES]
    bases = (ConfigError, AlgebraError, LemmaViolation)
    assert unmapped_exceptions(modules, bases, {"PolyParseError"}) == []


def test_exception_detector():
    module = types.ModuleType("fake")
    exec(
        "from json import JSONDecodeError\n"
        "class Base(ValueError): pass\n"
        "class Good(Base): pass\n"
        "class Bad(ValueError): pass\n"
        "class Exempt(RuntimeError): pass\n"
        "class Record: pass\n",
        vars(module),
    )
    assert unmapped_exceptions([module], (module.Base,), {"Exempt"}) == ["fake.Bad"]


def traced_names() -> list[str]:
    """The `layer.fn` keys of the TRACED table in perfbench/spans.py, read
    with ast: the tracer module itself is never imported here."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError("perfbench/spans.py has no TRACED table")


def test_traced_names_resolve():
    # `perfbench/run.py --trace 1` rebinds each of these by name, and a
    # missing one stops the traced run.  It rebinds every module's
    # binding that is the same object as the layer's, so a second
    # definition under the name would run untraced
    names = traced_names()
    assert names
    modules = [importlib.import_module(f"divlab.{p.stem}") for p in MODULES]
    missing, split = [], []
    for name in names:
        layer, fn = name.split(".")
        original = getattr(importlib.import_module(f"divlab.{layer}"), fn, None)
        if original is None:
            missing.append(name)
            continue
        split += [f"{m.__name__}.{fn}" for m in modules if getattr(m, fn, original) is not original]
    assert missing == []
    assert split == []


def test_no_unreferenced_public_definitions():
    # a public name is used in the package, exported, or traced by the
    # benchmark; __init__.py's re-exports are not uses, __all__ lists them
    exported = {f"{getattr(divlab, name).__module__.rsplit('.', 1)[1]}.py: {name}" for name in divlab.__all__}
    traced = {"{}.py: {}".format(*name.split(".")) for name in traced_names()}
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_public(sources, exported | traced) == []


def test_public_detector():
    a = (
        "def used(n):\n    return n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Orphan:\n    pass\n"
        "def imported():\n    pass\n"
        "def exempt():\n    pass\n"
        "def _private():\n    return used(1)\n"
    )
    b = "from .a import imported\n"
    assert unreferenced_public({"a.py": a, "b.py": b}, {"a.py: exempt"}) == ["a.py: recursive", "a.py: Orphan"]


def test_importing_the_cli_loads_only_algebra():
    # each subcommand imports the other layers it runs when it runs
    assert fresh_cli_run() == (None, {"divlab", "divlab.algebra", "divlab.cli"})


def test_exported_names_resolve():
    assert [name for name in divlab.__all__ if not hasattr(divlab, name)] == []


def test_every_key_is_read_by_some_run():
    assert set().union(*_READS.values()) == set(_KEYS)


def test_every_run_has_a_set_of_read_keys():
    # sieve and witness read different keys in paper and override mode
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    runs = {
        (command, mode)
        for command in sub.choices
        for mode in (("paper", "override") if command in ("sieve", "witness") else (None,))
    }
    assert set(_READS) == runs


def readme_reads_rows() -> list:
    """The rows of README's "keys it reads" table as ((command, mode),
    keys): a key is the backquoted name that starts an item of the
    comma-separated cell, so `x` (default limit) reads as x."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| run | keys it reads |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        m = re.fullmatch(r"\| `(\w+)`(?:, (\w+) mode)? \| (.*) \|", line)
        assert m, line
        command, mode, cell = m.groups()
        rows.append(((command, mode), {re.match(r"`(\w+)`", item).group(1) for item in cell.split(", ")}))
    return rows


def test_readme_key_table_matches_reads():
    rows = readme_reads_rows()
    assert len(rows) == len(dict(rows))
    assert dict(rows) == _READS
