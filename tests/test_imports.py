"""Unused-import lint over the package, with the standard library's ``ast``.

Every module-level import of ``src/parapic/*.py`` is used in its module,
apart from ``__init__``'s re-exports.  The one exception is an import
marked ``# noqa: F401`` that ``perfbench/spans.py`` rebinds in that
module: the traced run wraps it there, so it must stay a module
attribute even where the module itself no longer calls it.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rebound() -> set[tuple[str, str]]:
    """The (module, attribute) pairs of the traced run's wrapper tables."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return {
        (node.elts[0].id, node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)
    }


def _unused_imports():
    """(module.name, marked) for each module-level import its module never reads."""
    for path in sorted((ROOT / "src" / "parapic").glob("*.py")):
        if path.stem == "__init__":
            continue
        source = path.read_text()
        lines, tree = source.splitlines(), ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield path.stem, name, "# noqa: F401" in lines[alias.lineno - 1]


def test_every_module_level_import_is_used():
    rebound = _rebound()
    unused = [(module, name) for module, name, marked in _unused_imports()
              if not (marked and (module, name) in rebound)]
    assert unused == []
    excused = sorted(f"{module}.{name}" for module, name, _ in _unused_imports())
    assert excused == ["descent.bundle_to_json", "descent.is_pic_delta",
                       "descent.pq_sets_for_points", "verlinde.compose"]
