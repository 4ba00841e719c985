"""Every name a module under ``src/repro`` imports is read by it.

An import nothing reads costs a load, hides a real dependency behind a
dead one, and survives every other test.  The check is syntactic: a
name counts as read where it appears as an expression name anywhere in
the module, including inside a string annotation.  ``__init__.py``
files re-export, so they are exempt, and so is a name a module lists in
``__all__``; ``from __future__`` imports are compiler directives.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read(tree: ast.Module) -> set[str]:
    """Every expression name of the module, string annotations parsed."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                quoted = ast.parse(const.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unread_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` never reads."""
    tree = ast.parse(source)
    imported = _imported(tree)
    spare = set(imported) - _read(tree) - _exported(tree)
    return sorted((imported[name], name) for name in spare)


MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def test_the_walk_sees_the_package():
    assert len(MODULES) > 50
    assert SRC / "distrib" / "costmodel.py" in MODULES


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text()) == []


class TestTheCheck:
    def test_an_unread_import_is_found_with_its_line(self):
        src = "import os\nfrom typing import Mapping, Sequence\nx: Mapping = {}\n"
        assert unread_imports(src) == [(1, "os"), (2, "Sequence")]

    def test_a_name_read_only_in_a_string_annotation_counts(self):
        src = (
            "from typing import TYPE_CHECKING, Optional\n"
            "if TYPE_CHECKING:\n"
            "    from m import Plan\n"
            "def f(p: Optional['Plan']) -> 'Plan':\n"
            "    return p\n"
        )
        assert unread_imports(src) == []

    def test_all_and_future_are_exempt_and_aliases_are_checked(self):
        src = (
            "from __future__ import annotations\n"
            "from m import a, b as c, d as e\n"
            "__all__ = ['a']\n"
            "print(e)\n"
        )
        assert unread_imports(src) == [(2, "c")]

    def test_a_dotted_import_binds_its_first_name(self):
        assert unread_imports("import os.path\nos.getcwd()\n") == []
        assert unread_imports("import os.path\n") == [(1, "os")]


# -- every top-level definition under src/repro is named somewhere -----------

ROOT = SRC.parent.parent
USER_DIRS = ("src", "tests", "benchmarks", "examples")


def _names(node: ast.AST) -> Counter:
    """How often ``node`` names each identifier: expression names,
    attribute names and string annotations.  An import is not a use, nor
    is a string, so an ``__init__`` re-export and ``__all__`` are none."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    for ann in _annotations(node):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                quoted = ast.parse(const.value, mode="eval")
                found.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return found


def unnamed_definitions(trees: dict[str, ast.Module], defined_in) -> list[str]:
    """``path:name`` of each top-level function or class of a module in
    ``defined_in`` that no tree of ``trees`` names outside its own body."""
    uses = Counter()
    for tree in trees.values():
        uses.update(_names(tree))
    out = []
    for path in defined_in:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if uses[node.name] == _names(node)[node.name]:
                    out.append(f"{path}:{node.name}")
    return out


def test_every_top_level_definition_is_named_outside_its_body():
    files = sorted(p for d in USER_DIRS for p in (ROOT / d).rglob("*.py"))
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text()) for p in files}
    src = [path for path in trees if path.startswith("src/repro/")]
    assert unnamed_definitions(trees, src) == []


def test_a_re_export_an_all_string_and_a_definitions_own_body_are_no_use():
    trees = {
        "src/repro/m.py": ast.parse(
            "def f():\n    return f()\n"
            "class C:\n    def g(self) -> 'C':\n        return C()\n"
            "def h():\n    pass\n"
        ),
        "src/repro/__init__.py": ast.parse(
            "from .m import f, C, h\n__all__ = ['f', 'C', 'h']\n"
        ),
        "tests/t.py": ast.parse("from repro.m import h\nh()\n"),
    }
    assert unnamed_definitions(trees, ["src/repro/m.py"]) == [
        "src/repro/m.py:f",
        "src/repro/m.py:C",
    ]
