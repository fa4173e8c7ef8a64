"""Source hygiene checks that need no linter: an AST scan of the library
modules for imported names that nothing reads, and for module-level
functions and classes that no library code uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "selfsim"
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """{bound name: line} for every import in the module, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read_names(tree):
    """Every name the module loads, annotations included (the modules
    write them as names, not strings)."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    unused = sorted(
        f"{path.name}:{line}: {name}"
        for name, line in _imported_names(tree).items()
        if name not in read
    )
    assert not unused, "imported but never read: " + ", ".join(unused)


def test_every_definition_is_used_in_src():
    # a name is used when some module loads it or reads it as an
    # attribute; the exports in __init__ do not count, so a function that
    # only tests call fails here (such oracles belong in brute_force.py)
    used = set()
    defined = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _read_names(tree)
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        defined += [
            (path.name, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
    unused = sorted(f"{name}:{line}: {fn}" for name, line, fn in defined if fn not in used)
    assert not unused, "defined but never used in src: " + ", ".join(unused)
