"""Guard against API that only tests reach.

Every function, class and method defined in src/omegalie/ must be referenced
somewhere other than its own definition: elsewhere in src/, or in a bench/*.py
script (bench/pinned/ is a frozen copy of the library and does not count).
A reference is a name, an attribute, an imported name or a string constant
equal to the identifier, so the benchmark tracer's hook tables count.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "omegalie"

# names kept without a caller, each for a stated reason
ALLOWLIST = {
    # the one-call colon ideal I : f that the README documents; the library
    # itself goes through colon_of_meet to reuse an intersection it already has
    "colon",
}


def _definitions(tree):
    """(name, first line, last line) of module-level functions and classes and
    of the methods of module-level classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item.lineno, item.end_lineno) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return out


def _references(tree):
    """(identifier, line) for every name-like use in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _parsed(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}


def unreferenced_names():
    src = _parsed(sorted(SRC.glob("*.py")))
    bench = _parsed(sorted((ROOT / "bench").glob("*.py")))
    uses = defaultdict(list)  # identifier -> [(path, line)]
    for path, tree in {**src, **bench}.items():
        for ident, line in _references(tree):
            uses[ident].append((path, line))
    missing = []
    for path, tree in src.items():
        for name, first, last in _definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in ALLOWLIST:
                continue
            if all(other == path and first <= line <= last for other, line in uses[name]):
                missing.append(f"{path.name}:{first} {name}")
    return missing


def test_every_src_definition_has_a_src_or_bench_caller():
    assert unreferenced_names() == []
