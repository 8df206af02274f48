"""Spans and counters around omegalie's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper under every name
that refers to it: in its defining module and in every omegalie module that
imported it with ``from .x import``.  Methods are replaced on their class.
A wrapper records a span (name, start, end, parent) in memory; ``uninstall``
puts every original back and ``assert_removed`` proves it, so an untraced run
times the unmodified library.

Self time is a span's duration minus the durations of its direct children,
which are disjoint because the program is single-threaded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

MARK = "_bench_wrapper"

# (module, function name); the span is named "<module>.<function>"
FUNCTIONS = (
    ("groebner", "buchberger"), ("groebner", "normal_form"), ("groebner", "s_polynomial"),
    ("groebner", "intersect"), ("groebner", "reduce_basis"), ("groebner", "ideal_member"),
    ("groebner", "quotient_dimension"),
    ("variety", "verify_section3"), ("variety", "verify_example51"),
    ("variety", "defining_ideal"),
    ("classify3", "classify"), ("classify3", "iso_witness"),
    ("classify3", "verify_classification"), ("classify3", "c_pair_audit"),
    ("omega", "validate"), ("omega", "recover_omega"), ("omega", "transform"),
    ("omega", "change_basis"), ("omega", "in_stabilizer"), ("omega", "algebra_from_json"),
    ("omega", "derived_dimension"),
    ("linalg", "skew_congruence_reduce"), ("linalg", "solve"),
    ("fields", "quadratic_roots"), ("fields", "sqrt_or_extend"),
    ("cli", "main"),
)
# (module, class, method, span name)
METHODS = (
    ("linalg", "Matrix", "__mul__", "linalg.matmul"),
    ("linalg", "Matrix", "inverse", "linalg.inverse"),
    ("linalg", "Matrix", "det", "linalg.det"),
    ("linalg", "Matrix", "rank", "linalg.rank"),
    ("report", "ReportTable", "render", "report.render"),
)
ELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__")

# per-layer metrics: name -> (unit, how it is computed)
LAYER_METRICS = {
    "groebner.buchberger.calls": ("count", ("calls", "groebner.buchberger")),
    "groebner.buchberger.self_s": ("s", ("self", "groebner.buchberger")),
    "groebner.spairs_reduced": ("count", ("counter", "spairs_reduced")),
    "groebner.zero_reduction_frac": ("frac", ("ratio", "zero_reductions", "spairs_reduced")),
    "groebner.max_basis_len": ("count", ("counter", "max_basis_len")),
    "groebner.normal_form.calls": ("count", ("calls", "groebner.normal_form")),
    "groebner.normal_form.self_s": ("s", ("self", "groebner.normal_form")),
    "groebner.intersect.calls": ("count", ("calls", "groebner.intersect")),
    "groebner.intersect.total_s": ("s", ("total", "groebner.intersect")),
    "groebner.reduce_basis.self_s": ("s", ("self", "groebner.reduce_basis")),
    "groebner.ideal_member.total_s": ("s", ("total", "groebner.ideal_member")),
    "groebner.quotient_dimension.total_s": ("s", ("total", "groebner.quotient_dimension")),
    "variety.verify_section3.total_s": ("s", ("total", "variety.verify_section3")),
    "variety.verify_example51.total_s": ("s", ("total", "variety.verify_example51")),
    "variety.defining_ideal.total_s": ("s", ("total", "variety.defining_ideal")),
    "classify3.classify.calls": ("count", ("calls", "classify3.classify")),
    "classify3.classify.self_s": ("s", ("self", "classify3.classify")),
    "classify3.iso_witness.total_s": ("s", ("total", "classify3.iso_witness")),
    "classify3.trace_steps_mean": ("count", ("ratio", "trace_steps", "classify_results")),
    "classify3.extension_frac": ("frac", ("ratio", "extensions", "classify_results")),
    "classify3.verify_classification.total_s":
        ("s", ("total", "classify3.verify_classification")),
    "classify3.c_pair_audit.total_s": ("s", ("total", "classify3.c_pair_audit")),
    "omega.validate.calls": ("count", ("calls", "omega.validate")),
    "omega.validate.self_s": ("s", ("self", "omega.validate")),
    "omega.recover_omega.self_s": ("s", ("self", "omega.recover_omega")),
    "omega.transform.self_s": ("s", ("self", "omega.transform")),
    "omega.change_basis.self_s": ("s", ("self", "omega.change_basis")),
    "omega.in_stabilizer.self_s": ("s", ("self", "omega.in_stabilizer")),
    "omega.algebra_from_json.self_s": ("s", ("self", "omega.algebra_from_json")),
    "omega.derived_dimension.self_s": ("s", ("self", "omega.derived_dimension")),
    "linalg.skew_congruence_reduce.calls": ("count", ("calls", "linalg.skew_congruence_reduce")),
    "linalg.skew_congruence_reduce.self_s": ("s", ("self", "linalg.skew_congruence_reduce")),
    "linalg.matmul.calls": ("count", ("calls", "linalg.matmul")),
    "linalg.matmul.self_s": ("s", ("self", "linalg.matmul")),
    "linalg.matmul.scalar_mults": ("count", ("counter", "scalar_mults")),
    "linalg.solve.self_s": ("s", ("self", "linalg.solve")),
    "linalg.inverse.calls": ("count", ("calls", "linalg.inverse")),
    "linalg.det.self_s": ("s", ("self", "linalg.det")),
    "linalg.rank.self_s": ("s", ("self", "linalg.rank")),
    "fields.elem_ops": ("count", ("counter", "elem_ops")),
    "fields.quadratic_roots.calls": ("count", ("calls", "fields.quadratic_roots")),
    "fields.quadratic_roots.self_s": ("s", ("self", "fields.quadratic_roots")),
    "fields.sqrt_or_extend.calls": ("count", ("calls", "fields.sqrt_or_extend")),
    "fields.quadext_builds": ("count", ("counter", "quadext_builds")),
    "cli.main.calls": ("count", ("calls", "cli.main")),
    "cli.main.self_s": ("s", ("self", "cli.main")),
    "report.render.self_s": ("s", ("self", "report.render")),
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans = []        # [name, start, end, parent index, nested in same name]
        self.stack = []        # indices of open spans
        self.counters = Counter()
        self.patches = []      # (owner, attribute, original)
        self._pending_spair = None

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            nested = any(spans[i][0] == name for i in stack)
            idx = len(spans)
            span = [name, clock(), 0.0, parent, nested]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(parent, args, result)
            return result
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, key, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _matmul(self, fn):
        """Spans only matrix-by-matrix products; scalar products pass through."""
        traced = self._span("linalg.matmul", fn, self._on_matmul)
        matrix = self.lib.linalg.Matrix

        def wrapper(a, b):
            return traced(a, b) if isinstance(b, matrix) else fn(a, b)
        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- result hooks ----------------------------------------------------------

    def _parent_is(self, parent, name):
        return parent >= 0 and self.spans[parent][0] == name

    def _on_s_polynomial(self, parent, args, result):
        if self._parent_is(parent, "groebner.buchberger"):
            self.counters["spairs_reduced"] += 1
            self._pending_spair = parent

    def _on_normal_form(self, parent, args, result):
        # buchberger reduces each S-polynomial right after forming it
        if parent >= 0 and parent == self._pending_spair:
            self._pending_spair = None
            if result.is_zero():
                self.counters["zero_reductions"] += 1

    def _on_buchberger(self, parent, args, result):
        self.counters["max_basis_len"] = max(self.counters["max_basis_len"], len(result))

    def _on_classify(self, parent, args, result):
        self.counters["classify_results"] += 1
        self.counters["trace_steps"] += len(result.trace)
        self.counters["extensions"] += result.extension is not None

    def _on_matmul(self, parent, args, result):
        a, b = args
        self.counters["scalar_mults"] += a.rows * a.cols * b.cols

    # -- install / uninstall ---------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if (name == "omegalie" or name.startswith("omegalie.")) and m is not None]

    def _patch_everywhere(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_class(self, cls, attr, replacement):
        original = cls.__dict__[attr]
        self.patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def install(self):
        hooks = {"groebner.s_polynomial": self._on_s_polynomial,
                 "groebner.normal_form": self._on_normal_form,
                 "groebner.buchberger": self._on_buchberger,
                 "classify3.classify": self._on_classify}
        lib = self.lib
        for module_name, fn_name in FUNCTIONS:
            name = f"{module_name}.{fn_name}"
            original = getattr(getattr(lib, module_name), fn_name)
            self._patch_everywhere(original, self._span(name, original, hooks.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(getattr(lib, module_name), cls_name)
            original = cls.__dict__[attr]
            replacement = (self._matmul(original) if name == "linalg.matmul"
                           else self._span(name, original))
            self._patch_class(cls, attr, replacement)
        element = lib.fields.FieldElement
        for attr in ELEMENT_OPS:
            self._patch_class(element, attr, self._count("elem_ops", element.__dict__[attr]))
        quad = lib.fields.QuadExt
        self._patch_class(quad, "__init__", self._count("quadext_builds", quad.__dict__["__init__"]))

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def assert_removed(self):
        """Raise if any wrapper is still reachable from an omegalie module or
        one of its classes."""
        left = []
        for module in self._modules():
            for attr, value in vars(module).items():
                if getattr(value, MARK, False):
                    left.append(f"{module.__name__}.{attr}")
                if isinstance(value, type) and value.__module__ == module.__name__:
                    left += [f"{module.__name__}.{value.__name__}.{a}"
                             for a, v in vars(value).items() if getattr(v, MARK, False)]
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left}")

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        calls, total, child = Counter(), Counter(), Counter()
        for name, start, end, parent, nested in self.spans:
            calls[name] += 1
            if not nested:
                total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[idx]
        sources = {"calls": calls, "total": total, "self": self_time,
                   "counter": self.counters}
        out = {}
        for metric, (unit, how) in LAYER_METRICS.items():
            if how[0] == "ratio":
                den = self.counters[how[2]]
                value = self.counters[how[1]] / den if den else 0.0
            else:
                value = sources[how[0]][how[1]]
            out[metric] = (value, unit)
        return out

    def write_spans(self, path):
        """All spans as JSON lines [name, start, end, parent], gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")
