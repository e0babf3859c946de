"""No public name of the package exists only for the tests.

Every public top-level name a module of ``src/parapic`` defines must be
referenced by code outside ``tests/``: by the package beyond the
definition itself, by ``scripts/`` or by ``perfbench/``.  A reference
is a name read, an attribute read, an imported name or a string
constant equal to the name (`perfbench/spans.py` names the attributes it
rebinds that way).  The re-exports of ``parapic/__init__``, docstrings
and the README do not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "parapic"


def _docstrings(tree) -> set[int]:
    """The ids of the docstring constants of a module tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _referenced(node, docstrings: set[int]):
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings):
            yield n.value


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _tree(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_has_a_user_outside_the_tests():
    # (module, statement index) of each definition and of each reference,
    # so that a definition does not count as its own user
    defined: dict[str, tuple[str, int]] = {}
    users: dict[str, set[tuple[str, int]]] = {}
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    for path in modules:
        tree = _tree(path)
        docstrings = _docstrings(tree)
        for i, stmt in enumerate(tree.body):
            for name in _defined(stmt):
                if not name.startswith("_"):
                    defined[name] = (path.name, i)
            for name in _referenced(stmt, docstrings):
                users.setdefault(name, set()).add((path.name, i))
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = _tree(path)
            for name in _referenced(tree, _docstrings(tree)):
                users.setdefault(name, set()).add((str(path), -1))
    assert {"compute_cG", "AffineType", "DESCENDS", "SCHEMA_VERSION"} <= defined.keys()
    unused = sorted(f"{where[0]}: {name}" for name, where in defined.items()
                    if not users.get(name, set()) - {where})
    assert unused == []
