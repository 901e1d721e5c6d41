"""The library is what its commands and scripts run: every top-level
definition in src/spencerlab is referenced from src/ or scripts/ outside
its own body.  A definition that only tests reach belongs in tests/."""

import ast
from collections import defaultdict
from pathlib import Path

import spencerlab

PACKAGE = Path(spencerlab.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"

# The DSL's printer has no command; the golden round-trip tests pin it.
ALLOWED = {"dsl.print_document"}


def _references(tree):
    """(name, enclosing top-level definition or None) for each name read
    in a module, as a bare name or as an attribute."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append((node.id, owner))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.append((node.attr, owner))
    return out


def unreferenced_definitions(package=PACKAGE, scripts=SCRIPTS):
    """module.name of each top-level def or class in package that no module
    of package or scripts reads outside the definition itself."""
    defined, readers = set(), defaultdict(set)
    for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem if path.parent == package else None
        for node in tree.body:
            if module and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
        for name, owner in _references(tree):
            readers[name].add((module, owner))
    return {f"{module}.{name}" for module, name in defined
            if readers[name] <= {(module, name)}}


def test_every_library_definition_is_reached_from_src_or_scripts():
    assert unreferenced_definitions() == ALLOWED
