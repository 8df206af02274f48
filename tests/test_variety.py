import random
from itertools import product
from pathlib import Path

import pytest

from omegalie.fields import QQ, FieldElement, PrimeField
from omegalie.groebner import (
    Ideal,
    buchberger,
    colon_of_meet,
    format_polynomial,
    ideal_equal,
    intersect,
    parse_polynomial,
    reduce_basis,
)
from omegalie.linalg import Matrix, SkewForm, solve_vector, standard_j
from omegalie import variety
from omegalie.omega import OmegaAlgebra, StructureConstants, validate
from omegalie.variety import (
    defining_ideal,
    reference_polys,
    structure_ring,
    verify_example51,
    verify_section3,
    x1_component_ideals,
    x1_configuration_bracket,
    x1_configuration_ideal,
    x1_configuration_ring,
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


def _configuration_ideal_with_column(field, column):
    """The configuration ideal for the canonical rank-2 form with its values
    (w(x,e), w(y,e), w(z,e)) against the fourth vector set to column."""
    omega = standard_j(field, 4, 2)
    for row, value in enumerate(column):
        v = field.elem(value)
        omega = omega.with_entry(row, 3, v).with_entry(3, row, -v)
    ring = x1_configuration_ring(field)
    return variety._identity_ideal(ring, x1_configuration_bracket(ring), SkewForm(omega))


def test_example51_sensitive_to_form_convention():
    # moving the form value w(z, e) from 0 to 1 must break the equality
    vi = _configuration_ideal_with_column(QQ, (0, 0, 1))
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
    ideals.append(("x1_configuration_ideal column=None", x1_configuration_ideal(field)))
    ideals += [(f"x1_configuration_ideal column={column}",
                _configuration_ideal_with_column(field, column))
               for column in ((0, 0, 1), (1, 2, 3))]
    lines = []
    for name, vi in ideals:
        lines.append(name)
        lines += [f"gen {format_polynomial(g)}" for g in vi.generators]
    return lines


@pytest.mark.parametrize("field, name", [(QQ, "Q"), (F101, "Fp101")])
def test_ideal_golden(field, name):
    want = (GOLDEN / f"variety_ideals_{name}.txt").read_text().splitlines()
    assert _ideal_golden_lines(field) == want


# ---------------------------------------------------------------------------
# primality certificates: the structure ideal P and the two components
# ---------------------------------------------------------------------------
# P = <f1, f2, f3> is linear in z with a coefficient matrix M over k[x, y].
# When det M is nonzero and a non-zero-divisor mod P (P : det M = P), R/P
# embeds in its localization at det M, which Cramer's rule identifies with the
# domain k[x, y]_{det M}; so P is prime.  A component that is a graph (each
# generator a variable minus a polynomial in the variables no generator
# solves) has a polynomial ring as its quotient, so it is prime too.

def _variables_of(poly):
    ring, used = poly.ring, 0
    for m in poly.terms:
        used |= ring.support(m)
    return {v for i, v in enumerate(ring.variables) if used >> i & 1}


def _cofactor_det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _colon(ideal, f):
    return colon_of_meet(intersect(ideal, Ideal(ideal.ring, [f])), f)


def _cramer_colon(gens, m):
    """The colon of the ideal of the three generators by det m, when each
    gens[i] - m[i] . z and each entry of the coefficient rows m is free of z1,
    z2, z3 and det m is nonzero; None otherwise.  The certificate holds when
    it is the ideal itself."""
    ring = gens[0].ring
    z = [ring.var(f"z{i}") for i in (1, 2, 3)]
    rests = [g - (row[0] * z[0] + row[1] * z[1] + row[2] * z[2]) for g, row in zip(gens, m)]
    det = _cofactor_det(m)
    if det.is_zero() or any(_variables_of(p) & {"z1", "z2", "z3"}
                            for p in rests + [c for row in m for c in row]):
        return None
    return _colon(Ideal(ring, gens), det)


def _structure_matrix(ring):
    x1, x2, x3, y1, y2, y3 = (ring.var(v) for v in ("x1", "x2", "x3", "y1", "y2", "y3"))
    zero = ring.zero()
    return [[x2 + y3, -x1, -y1], [zero, x3, -x2], [zero, -y3, y2]]


def test_structure_ideal_is_linear_in_z_with_determinant_detm():
    ring = structure_ring(QQ)
    f1, f2, f3, _, _ = reference_polys(ring)
    m = _structure_matrix(ring)
    assert _cofactor_det(m) == parse_polynomial(ring, variety.DETM_TEXT)
    assert ideal_equal(_cramer_colon([f1, f2, f3], m), Ideal(ring, [f1, f2, f3]))


def test_the_certificate_refuses_x1_times_the_structure_ideal():
    # x1 * P is linear in z with the matrix x1 * M, of determinant x1^3 det M;
    # its colon by that is P, not x1 * P, while its colon by det M alone is
    # x1 * P again
    ring = structure_ring(QQ)
    x1 = ring.var("x1")
    gens = [x1 * f for f in reference_polys(ring)[:3]]
    m = [[x1 * c for c in row] for row in _structure_matrix(ring)]
    detm = parse_polynomial(ring, variety.DETM_TEXT)
    assert _cofactor_det(m) == x1 * x1 * x1 * detm
    p, x1p = Ideal(ring, reference_polys(ring)[:3]), Ideal(ring, gens)
    colon = _cramer_colon(gens, m)
    assert ideal_equal(colon, p) and not ideal_equal(colon, x1p)
    assert ideal_equal(_colon(x1p, detm), x1p)


def _graph_free_variables(gens):
    """The variables left free when each generator solves one variable, as
    c * v + h with c a nonzero constant and h free of every solved variable;
    None when no choice of one solved variable per generator does that."""
    ring = gens[0].ring
    rests = []  # per generator: {candidate variable: h}
    for g in gens:
        options = {}
        for v in ring.variables:
            c = g.terms.get(next(iter(ring.var(v).terms)))
            if c is not None:
                h = g - ring.var(v) * FieldElement(ring.field, c)
                if v not in _variables_of(h):
                    options[v] = h
        rests.append(options)
    for solved in product(*rests):
        if len(set(solved)) == len(gens) and not any(
                _variables_of(options[v]) & set(solved) for options, v in zip(rests, solved)):
            return sorted(set(ring.variables) - set(solved))
    return None


def test_both_components_are_graphs_of_dimensions_4_and_3():
    p1, p2 = x1_component_ideals(QQ)
    assert _graph_free_variables(list(p1.gens)) == ["x3", "y1", "y3", "z3"]
    assert _graph_free_variables(list(p2.gens)) == ["x3", "x4", "z3"]


def test_a_component_that_is_not_a_graph_is_refused():
    ring = x1_configuration_ring(QQ)
    gens = [parse_polynomial(ring, t.replace("z1", "z1*z3")) for t in variety.P1_TEXTS]
    assert _graph_free_variables(gens) is None
