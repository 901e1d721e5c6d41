"""The library is what its commands and scripts run: every top-level
definition in src/spencerlab, and every method of its classes, is
referenced from src/ or scripts/ outside its own body.  A definition that
only tests reach belongs in tests/.

A method counts as read only through an attribute (x.name) or through its
bare name in its own class body (as in __rmul__ = __mul__): a bare name
anywhere else is a local or global variable, however it is spelled."""

import ast
from collections import defaultdict
from pathlib import Path

import spencerlab

PACKAGE = Path(spencerlab.__file__).resolve().parent
SCRIPTS = PACKAGE.parent.parent / "scripts"

# The DSL's printer has no command; the golden round-trip tests pin it.
ALLOWED = {"dsl.print_document"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _owned_parts(top):
    """(owner, node) pairs covering one top-level statement: a method is its
    own owner, Class.method; the rest of a class belongs to the class, and
    module-level code to None."""
    if isinstance(top, ast.ClassDef):
        head = [(top.name, node) for node in top.bases + top.keywords + top.decorator_list]
        return head + [(f"{top.name}.{node.name}" if isinstance(node, DEFS) else top.name, node)
                       for node in top.body]
    return [(top.name if isinstance(top, DEFS) else None, top)]


def _references(tree):
    """(name, owner, attribute) for each name read in a module: attribute is
    True when it is read as x.name, False when as a bare name."""
    out = []
    for top in tree.body:
        for owner, part in _owned_parts(top):
            for node in ast.walk(part):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.append((node.id, owner, False))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    out.append((node.attr, owner, True))
    return out


def _definitions(tree):
    """The dotted path of each top-level def or class of a module, and of
    each method in a class body that is not a dunder."""
    for node in tree.body:
        if isinstance(node, DEFS + (ast.ClassDef,)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{fn.name}" for fn in node.body if isinstance(fn, DEFS)
                        and not (fn.name.startswith("__") and fn.name.endswith("__")))


def _inside(owner, path):
    return owner is not None and (owner == path or owner.startswith(path + "."))


def _reaches(module, path, reader, owner, attribute):
    """Whether a read of path's last name, in module reader at owner, can
    reach the definition module.path from outside its own body."""
    if reader == module and _inside(owner, path):
        return False
    cls, _, _ = path.rpartition(".")
    return not cls or attribute or (reader == module and owner == cls)


def unreferenced_definitions(package=PACKAGE, scripts=SCRIPTS):
    """module.path of each top-level def or class, or method, in package that
    no module of package or scripts reads outside the definition itself."""
    defined, readers = set(), defaultdict(set)
    for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem if path.parent == package else None
        if module:
            defined.update((module, name) for name in _definitions(tree))
        for name, owner, attribute in _references(tree):
            readers[name].add((module, owner, attribute))
    return {f"{module}.{path}" for module, path in defined
            if not any(_reaches(module, path, *reader)
                       for reader in readers[path.rpartition(".")[2]])}


def test_every_library_definition_is_reached_from_src_or_scripts():
    assert unreferenced_definitions() == ALLOWED
