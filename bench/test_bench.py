"""Tests of the benchmark itself: hand counts for the traced counters, repeatable
counts, wrapper removal, and checks that reject wrong answers.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracer import MARK, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Tally, run_cli  # noqa: E402


def traced(lib, body):
    tracer = Tracer(lib)
    tracer.install()
    try:
        body()
    finally:
        tracer.uninstall()
    tracer.assert_removed()
    return {name: value for name, (value, _) in tracer.layer_metrics().items()}


class HandCounts(unittest.TestCase):
    def setUp(self):
        self.lib = run.load_library()
        self.assertFalse(self.lib.groebner.CHECK_POSTCONDITIONS)
        ring = self.lib.variety.structure_ring()
        self.ring = ring
        self.f1, self.f2, self.f3, _, _ = self.lib.variety.reference_polys(ring)

    def test_coprime_pair_reduces_nothing(self):
        m = traced(self.lib, lambda: self.lib.groebner.buchberger([self.f1, self.f2]))
        self.assertEqual(m["groebner.buchberger.calls"], 1)
        self.assertEqual(m["groebner.spairs_reduced"], 0)
        self.assertEqual(m["groebner.max_basis_len"], 2)

    def test_intersection_with_det_m(self):
        gb = self.lib.groebner
        p = gb.Ideal(self.ring, [self.f1, self.f2, self.f3])
        detm = gb.Ideal(self.ring, [gb.parse_polynomial(self.ring, self.lib.variety.DETM_TEXT)])
        m = traced(self.lib, lambda: gb.intersect(p, detm))
        self.assertEqual(m["groebner.intersect.calls"], 1)
        self.assertEqual(m["groebner.buchberger.calls"], 1)
        self.assertEqual(m["groebner.spairs_reduced"], 291)
        self.assertAlmostEqual(m["groebner.zero_reduction_frac"], 270 / 291)

    def test_classify_counters(self):
        c3 = self.lib.classify3
        alg = c3.canonical_algebra(c3.label_d(), self.lib.fields.QQ)
        m = traced(self.lib, lambda: c3.classify(alg))
        self.assertEqual(m["classify3.classify.calls"], 1)
        self.assertEqual(m["classify3.trace_steps_mean"], 0)  # already canonical
        self.assertEqual(m["classify3.extension_frac"], 0)

    def test_matmul_counts_matrix_products_only(self):
        linalg, field = self.lib.linalg, self.lib.fields.QQ
        a = linalg.Matrix.identity(field, 3)
        b = linalg.Matrix.zeros(field, 3, 2)
        m = traced(self.lib, lambda: (a * b, a * field.elem(2)))
        self.assertEqual(m["linalg.matmul.calls"], 1)
        self.assertEqual(m["linalg.matmul.scalar_mults"], 3 * 3 * 2)


class Tracing(unittest.TestCase):
    def test_every_wrapper_is_removed(self):
        lib = run.load_library()
        originals = (lib.groebner.normal_form, lib.variety.intersect, lib.cli.main,
                     lib.linalg.Matrix.__dict__["__mul__"],
                     lib.fields.FieldElement.__dict__["__add__"])
        tracer = Tracer(lib)
        tracer.install()
        try:
            self.assertTrue(getattr(lib.variety.intersect, MARK, False))
            self.assertTrue(getattr(lib.classify3.validate, MARK, False))
            with self.assertRaises(RuntimeError):
                tracer.assert_removed()
        finally:
            tracer.uninstall()
        tracer.assert_removed()
        self.assertEqual(originals, (lib.groebner.normal_form, lib.variety.intersect,
                                     lib.cli.main, lib.linalg.Matrix.__dict__["__mul__"],
                                     lib.fields.FieldElement.__dict__["__add__"]))

    def test_same_seed_same_counts(self):
        run.OUT.mkdir(exist_ok=True)
        for name in WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for _ in range(2):
                    workload, _ = run.set_up(WORKLOADS, name, 5, 1)
                    tally = Tally()
                    metrics, _ = run.trace(workload, tally,
                                           run.OUT / f"spans-test-{name}.jsonl.gz")
                    self.assertEqual(tally.failed, 0, tally.reasons)
                    runs.append({k: v for k, (v, unit) in metrics.items()
                                 if unit in ("count", "frac")})
                self.assertEqual(runs[0], runs[1])


class Twins(unittest.TestCase):
    """The pinned copy and the companion thread that time the library."""

    def test_pinned_copy_is_a_separate_package(self):
        lib, pinned = run.load_library(), run.load_pinned()
        self.assertEqual(lib.groebner.__name__, "omegalie.groebner")
        self.assertEqual(pinned.groebner.__name__, "omegalie_pinned.groebner")
        self.assertIsNot(lib.fields.QQ, pinned.fields.QQ)
        for library in (lib, pinned):
            workload = WORKLOADS["classify"](library, 4)
            for item in workload.items[:5]:
                item.check(item.call())

    def test_items_keep_their_place_across_seeds(self):
        lib = run.load_library()
        for name in ("classify", "forms"):
            with self.subTest(workload=name):
                kinds = [[item.kind for item in WORKLOADS[name](lib, seed).items]
                         for seed in (0, 1)]
                self.assertEqual(kinds[0], kinds[1])

    def test_companion_runs_both_sides_and_stops(self):
        companion = run.Companion()
        try:
            self.assertEqual(companion.together(lambda: 1, lambda: 2), (1, 2))
            with self.assertRaises(ZeroDivisionError):
                companion.together(lambda: 1, lambda: 1 / 0)
            lib, pinned = run.load_library(), run.load_pinned()
            outs = companion.together(
                lambda: run_cli(lib, ["canonical", "A", "--field", "Q"]),
                lambda: run_cli(pinned, ["canonical", "D", "--field", "Fp:101"]))
        finally:
            companion.close()
        self.assertFalse(companion.thread.is_alive())
        (code_a, text_a), (code_d, text_d) = outs
        self.assertEqual((code_a, code_d), (0, 0))
        self.assertEqual(json.loads(text_a)["field"], "Q")
        self.assertEqual(json.loads(text_d)["field"], "Fp:101")

    def test_scaling_by_the_twins(self):
        twins = [0.001 * (i + 1) for i in range(100)]
        raw = {"items": [2 * x for x in twins], "twins": twins,
               "pieces": [[3.0, 5.0]], "twin_pieces": [[2.0, 2.0]]}
        values, _ = run.end_to_end("classify", raw, [0.6, 0.9, 0.3], [0.3, 0.3, 0.3])
        reference = run.REFERENCE["classify"]
        for metric in ("job_s", "item_p50_ms", "item_p90_ms"):
            self.assertAlmostEqual(values[metric], 2 * reference[metric])
        self.assertAlmostEqual(values["suite_s"], 2 * reference["suite_s"])
        self.assertAlmostEqual(values["setup_s"], 2 * reference["setup_s"])

    def test_harrell_davis_percentile(self):
        self.assertAlmostEqual(run.quantile([7.0] * 50, 90), 7.0)
        self.assertAlmostEqual(run.quantile(list(range(1, 102)), 50), 51, places=6)
        self.assertAlmostEqual(run.quantile(list(range(1, 101)), 90), 90.5, delta=0.1)


class Checks(unittest.TestCase):
    """Each workload's check must reject a wrong answer."""

    def first(self, workload, prefix):
        return next(item for item in workload.items if item.kind.startswith(prefix))

    def test_classify_rejects_a_wrong_witness_or_label(self):
        workload, _ = run.set_up(WORKLOADS, "classify", 3, 1)
        c3, identity = workload.lib.classify3, workload.lib.omega.GroupElement.identity
        for item in workload.items:
            result = item.call()
            item.check(result)
            if item.kind.startswith("classify") and result.trace:
                break
        with self.assertRaises(CheckFailed):
            item.check(dataclasses.replace(result, witness=identity(result.field, 3)))
        wrong = c3.label_a() if result.label.kind != "A" else c3.label_d()
        with self.assertRaises(CheckFailed):
            item.check(dataclasses.replace(result, label=wrong))

    def test_forms_rejects_a_wrong_rank_or_form(self):
        workload, _ = run.set_up(WORKLOADS, "forms", 3, 1)
        reduce = next(i for i in workload.items
                      if i.kind.startswith("omega-reduce") and i.call().rank > 0)
        result = reduce.call()
        reduce.check(result)
        with self.assertRaises(CheckFailed):
            reduce.check(type(result)(q=result.q, rank=result.rank - 2))
        check = self.first(workload, "check family")
        ok, recovered = check.call()
        check.check((ok, recovered))
        with self.assertRaises(CheckFailed):
            check.check((ok, type(recovered)(recovered.matrix * 2)))

    def test_paper_rejects_a_wrong_membership(self):
        workload, _ = run.set_up(WORKLOADS, "paper", 3, 1)
        item = workload.items[0]
        answer = item.call()
        item.check(answer)
        with self.assertRaises(CheckFailed):
            item.check(not answer)


class Contract(unittest.TestCase):
    def test_fails_without_the_library(self):
        """Beside only BENCHMARK.json and the benchmark's files, a run exits
        nonzero and prints no result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        with self.assertRaises(ValueError):
            json.loads(last)

    def test_benchmark_json_lists_every_metric(self):
        from tracer import LAYER_METRICS
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual({m["name"] for m in spec["per_layer"]},
                         set(LAYER_METRICS) | {"trace.overhead_s"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
