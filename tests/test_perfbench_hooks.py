"""The package names the benchmark under ``perfbench/`` relies on.

`perfbench/spans.py` rebinds module attributes of the package by name,
and `perfbench/run.py` and `perfbench/checks.py` import and call
package names.  A removal that breaks one of them fails here, in the
test suite, and not only in a traced benchmark run.  The files under
``perfbench/`` are read, never changed.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

from parapic.descent import CGReport, DescentCertificate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_rebinds_attributes_that_exist():
    spans = _load("spans")
    assert spans.SPANNED and spans.COUNTED
    for module, attr, _name in spans.SPANNED + spans.COUNTED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _trees(path: Path):
    """The file's syntax tree, and those of the code it holds in strings
    (the set-up probe that a fresh process runs)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        code = node.value if isinstance(node, ast.Constant) else None
        if isinstance(code, str) and code.startswith(("import ", "from ")) \
                and "parapic" in code:
            yield ast.parse(code)


def _references(tree):
    """(module, attribute chain) for each package name the code uses:
    the package modules it imports by name, the names it imports from
    them, and the attributes it reads from the former."""
    modules = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "parapic":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"parapic.{alias.name}"
                refs.append((f"parapic.{alias.name}", []))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("parapic."):
            refs += [(node.module, [alias.name]) for alias in node.names]
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            refs.append((modules[node.id], chain))
    return refs


def test_run_and_checks_use_names_that_exist():
    seen = 0
    for name in ("run", "checks"):
        for tree in _trees(PERFBENCH / f"{name}.py"):
            for module, chain in _references(tree):
                obj = importlib.import_module(module)
                for attr in chain:
                    assert hasattr(obj, attr), f"{name}.py: {module}.{'.'.join(chain)}"
                    obj = getattr(obj, attr)
                seen += 1
    assert seen >= 8
    # the serializers the benchmark calls on what compute_cG and
    # certify_descent return
    assert callable(CGReport.to_json) and callable(DescentCertificate.to_json)
