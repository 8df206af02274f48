"""Guard against API that only tests reach.

Every function, class and method defined in src/omegalie/ must be referenced
somewhere other than its own definition: elsewhere in src/, or in a bench/*.py
script (bench/pinned/ is a frozen copy of the library and does not count).
A reference is a name, an attribute, an imported name or a string constant
equal to the identifier, so the benchmark tracer's hook tables count.

Likewise every defaulted parameter of a function in src/omegalie/ must be
passed, by keyword or by position, by some call in src/ or in a bench/*.py
script; a knob that only tests turn is a constant.  Calls are matched by the
callee's name, as references are.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "omegalie"

# defaulted parameters kept without a passing call, each for a stated reason
DEFAULT_ALLOWLIST = {
    # test_example51_sensitive_to_form_convention and the ideal golden pin the
    # paper's form convention through it
    ("x1_configuration_ideal", "omega_e_column"),
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
            if name.startswith("__") and name.endswith("__"):
                continue
            if all(other == path and first <= line <= last for other, line in uses[name]):
                missing.append(f"{path.name}:{first} {name}")
    return missing


def test_every_src_definition_has_a_src_or_bench_caller():
    assert unreferenced_names() == []


def _calls(trees):
    """callee name -> the calls of it, a callee being a name or an attribute."""
    out = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                out[name].append(node)
    return out


def _passes(call, index, arg):
    """Whether a call passes the parameter arg, at the call's positional index
    (None for a keyword-only one); a *args or **kwargs argument counts."""
    if any(k.arg in (arg, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_defaults():
    src = _parsed(sorted(SRC.glob("*.py")))
    bench = _parsed(sorted((ROOT / "bench").glob("*.py")))
    calls = _calls([*src.values(), *bench.values()])
    missing = []
    for path, tree in src.items():
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            # a call of a method leaves out self or cls; __init__ is called by
            # its class's name
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            shift = 1 if cls is not None and not static else 0
            callee = cls if fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            params = [(i - shift, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None]
            for index, arg in params:
                if (fn.name, arg) in DEFAULT_ALLOWLIST:
                    continue
                if not any(_passes(call, index, arg) for call in calls[callee]):
                    missing.append(f"{path.name}:{fn.lineno} {fn.name}({arg}=...)")
    return missing


def test_every_src_default_is_passed_by_a_src_or_bench_call():
    assert unpassed_defaults() == []
