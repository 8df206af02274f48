import random
from pathlib import Path

import pytest

from omegalie.fields import QQ, FieldElement, PrimeField
from omegalie.groebner import (
    buchberger,
    format_polynomial,
    ideal_equal,
    reduce_basis,
)
from omegalie.linalg import Matrix, SkewForm, solve_vector, standard_j
from omegalie.omega import OmegaAlgebra, StructureConstants, validate
from omegalie.variety import (
    defining_ideal,
    reference_polys,
    structure_ring,
    verify_example51,
    verify_section3,
    x1_component_ideals,
    x1_configuration_ideal,
)

from test_omega import algebra_c, algebra_d, heisenberg, random_g_omega
from omegalie.omega import transform

F101 = PrimeField(101)


def algebra_point(alg) -> dict:
    """The structure-constant coordinates of a 3-dimensional algebra."""
    return {f"{prefix}{i + 1}": alg.sc.bracket(*pair)[i]
            for prefix, pair in (("x", (0, 1)), ("y", (0, 2)), ("z", (1, 2)))
            for i in range(3)}


def evaluate(poly, point):
    """The value of a polynomial at a total assignment {variable name: scalar}."""
    vals = [point[v] for v in poly.ring.variables]
    acc = poly.ring.field.zero
    for m, payload in poly.terms.items():
        coeff = FieldElement(poly.ring.field, payload)
        for v, e in zip(vals, poly.ring.unpack(m)):
            for _ in range(e):
                coeff = coeff * v
        acc = acc + coeff
    return acc


def test_defining_ideal_is_reference_triple():
    for field in (QQ, F101):
        vi = defining_ideal(SkewForm(standard_j(field, 3, 2)))
        f1, f2, f3, _, _ = reference_polys(vi.ring)
        assert list(vi.generators) == [f1, f2, f3]


def test_defining_ideal_canonical_text():
    vi = defining_ideal(SkewForm(standard_j(QQ, 3, 2)))
    assert [format_polynomial(g) for g in vi.generators] == [
        "x2*z1 + y3*z1 - x1*z2 - y1*z3",
        "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1",
        "x2*y1 - x1*y2 - y3*z2 + y2*z3",
    ]


def test_reference_point_vanishes():
    vi = defining_ideal(SkewForm(standard_j(QQ, 3, 2)))
    point = algebra_point(algebra_d())
    for gen in vi.generators:
        assert evaluate(gen, point).is_zero()


def test_zero_form_gives_classical_relations():
    vi = defining_ideal(SkewForm(standard_j(QQ, 3, 0)))
    point = algebra_point(heisenberg())
    assert vi.generators  # three relations
    for gen in vi.generators:
        assert evaluate(gen, point).is_zero()
    # the affine relation with its constant term is now homogeneous
    texts = [format_polynomial(g) for g in vi.generators]
    assert "x3*y1 - x1*y3 + x3*z2 - x2*z3" in texts


def test_unsupported_dimension():
    with pytest.raises(ValueError, match="canonical block form on a 3-space"):
        defining_ideal(SkewForm(standard_j(QQ, 4, 2)))


def test_generator_normalization_independent_of_triple_order():
    # every ordering of the one triple gives the same 3 monic polys up to sign
    vi = defining_ideal(SkewForm(standard_j(QQ, 3, 2)))
    assert len(vi.generators) == 3


def test_soundness_randomized_orbit_points():
    rng = random.Random(61)
    vi = defining_ideal(SkewForm(standard_j(F101, 3, 2)))
    for _ in range(1000):
        g = random_g_omega(F101, rng)
        alg = transform(g, algebra_c(F101, rng.randrange(1, 100)))
        point = algebra_point(alg)
        for gen in vi.generators:
            assert evaluate(gen, point).is_zero()


def sample_variety_point(rng, field=F101):
    """Random solution of the three relations, solving for the z-block where
    the coefficient matrix is invertible."""
    while True:
        vals = {name: field.elem(rng.randrange(field.p))
                for name in ("x1", "x2", "x3", "y1", "y2", "y3")}
        m = Matrix.from_rows(field, [
            [vals["x2"] + vals["y3"], -vals["x1"], -vals["y1"]],
            [field.zero, vals["x3"], -vals["x2"]],
            [field.zero, -vals["y3"], vals["y2"]],
        ])
        if m.det().is_zero():
            continue
        rhs = (field.zero,
               -(vals["x3"] * vals["y1"] - vals["x1"] * vals["y3"] + field.one),
               -(vals["x2"] * vals["y1"] - vals["x1"] * vals["y2"]))
        z = solve_vector(m, rhs)
        vals["z1"], vals["z2"], vals["z3"] = z
        return vals


def point_algebra(point, field=F101):
    table = {
        (0, 1): [point["x1"], point["x2"], point["x3"]],
        (0, 2): [point["y1"], point["y2"], point["y3"]],
        (1, 2): [point["z1"], point["z2"], point["z3"]],
    }
    sc = StructureConstants(field, 3, table)
    return OmegaAlgebra(field, sc, SkewForm(standard_j(field, 3, 2)))


def test_completeness_randomized_points():
    rng = random.Random(67)
    vi = defining_ideal(SkewForm(standard_j(F101, 3, 2)))
    for _ in range(1000):
        point = sample_variety_point(rng)
        for gen in vi.generators:
            assert evaluate(gen, point).is_zero()
        assert validate(point_algebra(point)).ok


def test_verify_section3_passes_both_fields():
    for field in (QQ, F101):
        report = verify_section3(field)
        assert report.ok, report.render()


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
@pytest.mark.parametrize("suite, runs", [(verify_section3, 9), (verify_example51, 4)],
                         ids=["section3", "example51"])
def test_buchberger_runs_per_suite(monkeypatch, field, suite, runs):
    # each auxiliary t-ideal and each meet's basis is computed once
    from omegalie import groebner, variety
    calls = []
    real = groebner.buchberger

    def spy(gens):
        calls.append(gens)
        return real(gens)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(variety, "buchberger", spy)
    assert suite(field).ok
    assert len(calls) == runs


def test_mutated_generators_change_the_basis():
    ring = structure_ring(QQ)
    f1, f2, f3, g, h = reference_polys(ring)
    mutated = f2 - 1  # drop the constant term
    reference = reduce_basis([f1, f2, f3, g, h])
    got = reduce_basis(buchberger([f1, mutated, f3]))
    assert got != reference


def test_verify_example51_passes():
    report = verify_example51(QQ)
    assert report.ok, report.render()


def test_example51_ideal_structure():
    vi = x1_configuration_ideal(QQ)
    j = vi.ideal()
    p1, p2 = x1_component_ideals(QQ)
    for gen in j.gens:
        assert format_polynomial(gen)  # nonzero by construction
    meet_basis = j.groebner_basis()
    assert meet_basis  # nontrivial ideal


def test_example51_sensitive_to_form_convention():
    # moving the form value w(z, e) from 0 to 1 must break the equality
    vi = x1_configuration_ideal(QQ, omega_e_column=(0, 0, 1))
    from omegalie.groebner import ideal_equal, intersect
    p1, p2 = x1_component_ideals(QQ)
    assert not ideal_equal(vi.ideal(), intersect(p1, p2))


GOLDEN = Path(__file__).parent / "golden"


def _ideal_golden_lines(field):
    """Generators of the 3-dimensional ideal for the rank 0 and
    rank 2 forms, and of the 4-dimensional configuration ideal with the zero
    and a nonzero form column against the fourth vector."""
    ideals = [(f"defining_ideal rank={rank}",
               defining_ideal(SkewForm(standard_j(field, 3, rank))))
              for rank in (0, 2)]
    ideals += [(f"x1_configuration_ideal column={column}",
                x1_configuration_ideal(field, omega_e_column=column))
               for column in (None, (0, 0, 1), (1, 2, 3))]
    lines = []
    for name, vi in ideals:
        lines.append(name)
        lines += [f"gen {format_polynomial(g)}" for g in vi.generators]
    return lines


@pytest.mark.parametrize("field, name", [(QQ, "Q"), (F101, "Fp101")])
def test_ideal_golden(field, name):
    want = (GOLDEN / f"variety_ideals_{name}.txt").read_text().splitlines()
    assert _ideal_golden_lines(field) == want
