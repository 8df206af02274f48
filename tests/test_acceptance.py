"""Acceptance suite: one timed pass/fail line per criterion.

Run with -s to see the lines as they complete.  The Groebner postcondition
re-checking that the rest of the suite enables is switched off here: the
runtime budgets refer to the default configuration.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout

import pytest

from omegalie import groebner as groebner_mod
from omegalie.cli import main as cli_main
from omegalie.fields import QQ, PrimeField
from omegalie.groebner import (
    Ideal,
    buchberger,
    colon_of_meet,
    ideal_equal,
    intersect,
    parse_polynomial,
    quotient_dimension,
    reduce_basis,
    s_polynomial,
)
from omegalie.linalg import (
    Matrix,
    SkewForm,
    skew_congruence_reduce,
    standard_j,
)
from omegalie.omega import (
    GroupElement,
    OmegaAlgebra,
    StructureConstants,
    change_basis,
    derived_dimension,
    in_stabilizer,
    recover_omega,
    transform,
    validate,
)
from omegalie.classify3 import (
    NonIsomorphic,
    c_pair_audit,
    c_pair_representative,
    canonical_algebra,
    classify,
    iso_witness,
    label_a,
    label_b,
    label_c,
    label_d,
    random_nonzero,
    random_stabilizer_element,
)
from omegalie.variety import verify_example51, x1_component_ideals

from helpers import (
    DELTA_TEXT,
    DETM_TEXT,
    F101,
    ideal_p,
    sc_polys,
    sc_ring,
)


@pytest.fixture(autouse=True, scope="module")
def _default_groebner_configuration():
    old = groebner_mod.CHECK_POSTCONDITIONS
    groebner_mod.CHECK_POSTCONDITIONS = False
    yield
    groebner_mod.CHECK_POSTCONDITIONS = old


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[FAIL] {number}. {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] {number}. {description} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s")


def test_criterion_1_generator_regeneration():
    with criterion(1, "defining ideal regenerates the reference generators", 1.0):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["variety", "--dim", "3", "--field", "Q"])
        assert code == 0
        lines = buf.getvalue().splitlines()
        gens = lines[2:5]  # after the section line and the ring header
        assert gens == [
            "x2*z1 + y3*z1 - x1*z2 - y1*z3",
            "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1",
            "x2*y1 - x1*y2 - y3*z2 + y2*z3",
        ]


def test_criterion_2_reference_basis():
    with criterion(2, "reduced basis matches the completed generator set", 1.0):
        ring = sc_ring()
        f1, f2, f3, g, h = sc_polys(ring)
        y1, z1, x2, x3 = (ring.var(v) for v in ("y1", "z1", "x2", "x3"))
        assert s_polynomial(f1, f3) == y1 * f1 - z1 * f3 == g
        assert s_polynomial(f2, f3) == x2 * f2 - x3 * f3 == h
        mine = reduce_basis(buchberger([f1, f2, f3]))
        assert mine == reduce_basis([f1, f2, f3, g, h])


def test_criterion_3_colon_identities():
    with criterion(3, "colon ideals fix both reference ideals", 5.0):
        ring = sc_ring()
        f1, f2, f3, g, h = sc_polys(ring)
        delta = parse_polynomial(ring, DELTA_TEXT)
        detm = parse_polynomial(ring, DETM_TEXT)
        i12 = Ideal(ring, [f1, f2])
        meet = intersect(i12, Ideal(ring, [delta]))
        assert ideal_equal(meet, Ideal(ring, [delta * f1, delta * f2]))
        assert ideal_equal(colon_of_meet(meet, delta), i12)
        p = ideal_p(ring)
        meet2 = intersect(p, Ideal(ring, [detm]))
        assert ideal_equal(meet2, Ideal(ring, [detm * q for q in (f1, f2, f3, g, h)]))
        assert ideal_equal(colon_of_meet(meet2, detm), p)


def test_criterion_4_quotient_dimension():
    with criterion(4, "structure ideal quotient has dimension 6", 1.0):
        assert quotient_dimension(ideal_p(sc_ring())) == 6


def _random_invertible(field, n, rng):
    while True:
        if isinstance(field, PrimeField):
            m = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)]
                                         for _ in range(n)])
        else:
            m = Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(n)]
                                         for _ in range(n)])
        if not m.det().is_zero():
            return m


def test_criterion_5_congruence_reduction_property():
    with criterion(5, "1000 planted-rank skew forms reduce to the block form", 10.0):
        rng = random.Random(2025)
        for trial in range(1000):
            field = F101 if trial % 2 else QQ
            n = rng.randrange(1, 9)
            rank = 2 * rng.randrange(0, n // 2 + 1)
            p = _random_invertible(field, n, rng)
            a = p.transpose() * standard_j(field, n, rank) * p
            form = SkewForm(a)
            res = skew_congruence_reduce(form)
            assert res.rank == rank
            assert res.rank == a.rank()
            assert res.q.transpose() * a * res.q == standard_j(field, n, rank)
            assert not res.q.det().is_zero()


def _roundtrip(field, rng, labels):
    label = (rng.choice(labels) if rng.random() < 0.5
             else label_c(random_nonzero(field, rng)))
    g = random_stabilizer_element(field, rng)
    moved = transform(g, canonical_algebra(label, field))
    res = classify(moved)
    want = (label if label.kind != "C"
            else label_c(c_pair_representative(label.alpha)))
    assert res.label == want, f"{label} came back as {res.label}"
    assert change_basis(res.witness, moved) == canonical_algebra(res.label, field)
    assert in_stabilizer(res.witness, moved.omega)


def test_criterion_6_classification():
    with criterion(6, "classification: self, orbits, separation, derived", 30.0):
        # (a) canonical algebras classify to themselves with verified witnesses
        for field in (QQ, F101):
            for label in (label_a(), label_b(), label_d(),
                          label_c(-field.one), label_c(-field.one / 2)):
                res = classify(canonical_algebra(label, field))
                assert res.label == label
                assert res.witness == GroupElement.identity(field, 3)
            for alpha_int in (2, 5, -7):
                alpha = field.elem(alpha_int)
                src = canonical_algebra(label_c(alpha), field)
                res = classify(src)
                assert res.label == label_c(c_pair_representative(alpha))
                assert change_basis(res.witness, src) \
                    == canonical_algebra(res.label, field)
        # (b) orbit roundtrips: 500 over the prime field, 100 over the rationals
        labels = [label_a(), label_b(), label_d()]
        rng = random.Random(4099)
        for _ in range(500):
            _roundtrip(F101, rng, labels)
        for _ in range(100):
            _roundtrip(QQ, rng, labels)
        # (c) separation: pairwise non-isomorphic except the documented pair
        reps = {
            "A": canonical_algebra(label_a(), QQ),
            "B": canonical_algebra(label_b(), QQ),
            "D": canonical_algebra(label_d(), QQ),
            "C(2)": canonical_algebra(label_c(QQ.elem(2)), QQ),
            "C(5)": canonical_algebra(label_c(QQ.elem(5)), QQ),
            "C(-1)": canonical_algebra(label_c(QQ.elem(-1)), QQ),
        }
        names = list(reps)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                out = iso_witness(reps[names[i]], reps[names[j]],
                                  allow_extension=True)
                assert isinstance(out, NonIsomorphic), (names[i], names[j])
        pair = iso_witness(canonical_algebra(label_c(QQ.elem(2)), QQ),
                           canonical_algebra(label_c(QQ.elem(-3)), QQ))
        assert isinstance(pair, GroupElement)  # the documented parameter pair
        # (d) derived-algebra dimensions
        assert derived_dimension(reps["D"].sc) == 2
        assert derived_dimension(reps["C(-1)"].sc) == 2
        for name in ("A", "B", "C(2)", "C(5)"):
            assert derived_dimension(reps[name].sc) == 3


def test_criterion_7_c_pair_audit():
    with criterion(7, "explicit pair map verifies on 50 parameters per field", 2.0):
        for field in (QQ, F101):
            report = c_pair_audit(field)
            assert report.ok, report.render()
            assert any("pair" in note for note in report.notes)


def test_criterion_8_subvariety_example():
    with criterion(8, "4-dimensional configuration ideal splits as computed", 10.0):
        report = verify_example51(QQ)
        assert report.ok, report.render()
        p1, p2 = x1_component_ideals(QQ)
        assert quotient_dimension(p1) == 4
        assert quotient_dimension(p2) == 3
        vi_ideal = Ideal(p1.ring, list(intersect(p1, p2).gens))
        assert quotient_dimension(vi_ideal) == 4


@pytest.mark.xfail(strict=True,
                   reason="the second component's quotient ring is a"
                          " polynomial ring in x3, x4, z3, so its dimension"
                          " is 3; the 4-dimensional count belongs to the union")
def test_criterion_8_literal_equal_component_dimensions():
    p1, p2 = x1_component_ideals(QQ)
    assert quotient_dimension(p1) == 4
    assert quotient_dimension(p2) == 4


def _x1_point_algebra_p1(field, rng):
    """Random 4-dimensional algebra on the first component."""
    x3, y1, y3, z3 = (field.elem(rng.randrange(field.p)) for _ in range(4))
    return _x1_algebra(field,
                       x_col=(field.zero, -z3, x3, -field.one),
                       y_col=(y1, z3, y3, field.one),
                       z_col=(field.zero, field.zero, z3, field.zero))


def _x1_point_algebra_p2(field, rng):
    """Random 4-dimensional algebra on the second component."""
    x3, x4, z3 = (field.elem(rng.randrange(field.p)) for _ in range(3))
    return _x1_algebra(field,
                       x_col=(field.zero, x4 * z3, x3, x4),
                       y_col=(field.zero, z3, field.zero, field.one),
                       z_col=(field.zero, field.zero, z3, field.zero))


def _x1_algebra(field, x_col, y_col, z_col):
    table = {
        (0, 1): (field.zero, field.one, field.zero, field.zero),
        (1, 2): (field.zero, field.zero, field.one, field.zero),
        (0, 3): x_col,
        (1, 3): y_col,
        (2, 3): z_col,
    }
    sc = StructureConstants(field, 4, table)
    return OmegaAlgebra(field, sc, SkewForm(standard_j(field, 4, 2)))


def test_criterion_9_form_recovery():
    with criterion(9, "the compatible form is skew and uniquely recovered", 5.0):
        rng = random.Random(51)
        # 3-dimensional: random orbit images of the canonical families
        labels = [label_a(), label_b(), label_d()]
        for _ in range(60):
            label = (rng.choice(labels) if rng.random() < 0.5
                     else label_c(random_nonzero(F101, rng)))
            g = random_stabilizer_element(F101, rng)
            alg = transform(g, canonical_algebra(label, F101))
            assert validate(alg).ok
            assert recover_omega(alg.sc) == alg.omega
        # 4-dimensional: random points on both components
        for _ in range(25):
            for builder in (_x1_point_algebra_p1, _x1_point_algebra_p2):
                alg = builder(F101, rng)
                assert validate(alg).ok
                assert recover_omega(alg.sc) == alg.omega
        # classical bracket: the recovered form vanishes
        heis = StructureConstants(QQ, 3, {(0, 1): [0, 0, 1]})
        assert recover_omega(heis).is_zero()


def test_criterion_10_action_laws():
    with criterion(10, "identity and compatibility of the action", 5.0):
        rng = random.Random(53)
        labels = [label_a(), label_b(), label_d()]
        eye = GroupElement.identity(F101, 3)
        for _ in range(1000):
            label = (rng.choice(labels) if rng.random() < 0.5
                     else label_c(random_nonzero(F101, rng)))
            alg = canonical_algebra(label, F101)
            g = random_stabilizer_element(F101, rng)
            h = random_stabilizer_element(F101, rng)
            assert transform(eye, alg) == alg
            assert transform(g.compose(h), alg) \
                == transform(g, transform(h, alg))
