import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from omegalie.fields import QQ
from omegalie.groebner import (
    Ideal,
    PolyRing,
    Polynomial,
    _assert_groebner,
    buchberger,
    colon_of_meet,
    contract,
    elimination_ideal,
    exact_divide,
    format_polynomial,
    ideal_equal,
    ideal_member,
    intersect,
    normal_form,
    parse_polynomial,
    quotient_dimension,
    read_ideal_text,
    reduce_basis,
    s_polynomial,
    write_ideal_text,
)

from helpers import (
    DELTA_TEXT,
    DETM_TEXT,
    F101,
    G_TEXT,
    H_TEXT,
    RING_VARS,
    ideal_p,
    sc_polys,
    sc_ring,
)


def _mono(ring, text):
    return parse_polynomial(ring, text)


def test_grevlex_golden_comparisons():
    ring = sc_ring()
    key = lambda t: ring.sort_key(_mono(ring, t).lm())
    # degree dominates
    assert key("x1^2") > key("z3")
    # equal degree: the last variable in which the exponents differ decides,
    # and the smaller exponent there wins
    assert key("x1^2") > key("x1*x2")
    assert key("x1") > key("x2") > key("z3")
    assert key("x2*z1") > key("y3*z1") > key("x1*z2") > key("y1*z3")
    assert key("x1") == key("x1")


def test_grevlex_sort_key_comparisons():
    ring = PolyRing(QQ, RING_VARS, order="grevlex")
    key = lambda t: ring.sort_key(_mono(ring, t).lm())
    assert key("x1^2") > key("x1*x2")
    assert key("x1*x2") < key("x1^2")
    assert key("x1*x2") == key("x1*x2")
    assert key("z3") < key("x1^2")
    # agreement with the grevlex definition on random pairs: total degree
    # first, then the last differing variable, the smaller exponent winning
    rng = random.Random(3)
    for _ in range(300):
        e1 = tuple(rng.randrange(3) for _ in range(9))
        e2 = tuple(rng.randrange(3) for _ in range(9))
        k1, k2 = ring.sort_key(e1), ring.sort_key(e2)
        diffs = [(a, b) for a, b in zip(reversed(e1), reversed(e2)) if a != b]
        if sum(e1) != sum(e2):
            want = sum(e1) > sum(e2)
        elif diffs:
            want = diffs[0][0] < diffs[0][1]
        else:
            assert k1 == k2
            continue
        assert (k1 > k2) == want and (k1 < k2) == (not want)


def test_leading_monomials_of_reference_polynomials():
    ring = sc_ring()
    f1, f2, f3, g, h = sc_polys(ring)
    assert format_polynomial(f1).startswith("x2*z1")
    assert format_polynomial(f2).startswith("x3*y1")
    assert format_polynomial(f3).startswith("x2*y1")
    assert format_polynomial(g).startswith("x1*y2*z1")
    assert format_polynomial(h).startswith("x1*x3*y2")


def test_s_polynomial_goldens():
    ring = sc_ring()
    f1, f2, f3, g, h = sc_polys(ring)
    y1, z1 = ring.var("y1"), ring.var("z1")
    x2, x3 = ring.var("x2"), ring.var("x3")
    assert s_polynomial(f1, f3) == y1 * f1 - z1 * f3 == g
    assert s_polynomial(f2, f3) == x2 * f2 - x3 * f3 == h
    assert s_polynomial(f1, f1).is_zero()


def test_s_polynomial_rejects_zero():
    ring = sc_ring()
    with pytest.raises(ValueError):
        s_polynomial(ring.zero(), ring.one())


def test_normal_form_goldens():
    ring = sc_ring()
    f1, f2, f3, g, h = sc_polys(ring)
    basis = [f1, f2, f3]
    assert normal_form(g, basis) == g
    assert normal_form(f1, [f1]).is_zero()
    full = [f1, f2, f3, g, h]
    assert normal_form(s_polynomial(f1, g), full).is_zero()


def test_regular_sequence_normal_forms():
    ring = sc_ring()
    f1, f2, f3, _, _ = sc_polys(ring)
    assert not normal_form(f2, [f1]).is_zero()
    assert normal_form(f3, [f1, f2]) == f3


def test_buchberger_reference_basis():
    for field in (QQ, F101):
        ring = sc_ring(field)
        f1, f2, f3, g, h = sc_polys(ring)
        gb = buchberger([f1, f2, f3])
        assert reduce_basis(gb) == reduce_basis([f1, f2, f3, g, h])


def test_f1_f2_already_groebner():
    ring = sc_ring()
    f1, f2, _, _, _ = sc_polys(ring)
    assert buchberger([f1, f2]) == [f1, f2]
    assert reduce_basis([f1, f2]) == [f1, f2]


def test_single_generator():
    ring = sc_ring()
    x1 = ring.var("x1")
    assert buchberger([x1]) == [x1]
    assert reduce_basis([x1 + 1]) == [x1 + 1]


def test_reduce_basis_dedup_and_monic():
    ring = sc_ring()
    f1, f2, _, _, _ = sc_polys(ring)
    assert reduce_basis([f1, 2 * f1, f2]) == [f1, f2]


def test_reduce_basis_order_independent():
    ring = sc_ring()
    f1, f2, f3, _, _ = sc_polys(ring)
    reference = reduce_basis(buchberger([f1, f2, f3]))
    for perm in permutations((f1, f2, f3)):
        assert reduce_basis(buchberger(list(perm))) == reference


def test_reduce_basis_rejects_non_groebner():
    ring = sc_ring()
    f1, _, f3, _, _ = sc_polys(ring)
    with pytest.raises(AssertionError,
                       match="S-polynomial of elements 0 and 1 does not reduce to zero"):
        _assert_groebner([f1, f3])


def test_membership_goldens():
    ring = sc_ring()
    f1, f2, f3, g, h = sc_polys(ring)
    p = ideal_p(ring)
    assert ideal_member(g, p)
    assert ideal_member(h, p)
    assert not ideal_member(ring.var("x1"), p)
    assert normal_form(ring.var("x1"), p.groebner_basis()) == ring.var("x1")


def test_ideal_equal_permutation():
    ring = sc_ring()
    f1, f2, f3, _, _ = sc_polys(ring)
    assert ideal_equal(Ideal(ring, [f1, f2, f3]), Ideal(ring, [f3, f2, f1]))


def test_intersection_with_principal_ideal():
    ring = sc_ring()
    f1, f2, _, _, _ = sc_polys(ring)
    delta = parse_polynomial(ring, DELTA_TEXT)
    meet = intersect(Ideal(ring, [f1, f2]), Ideal(ring, [delta]))
    assert ideal_equal(meet, Ideal(ring, [delta * f1, delta * f2]))


def test_intersection_p_with_detm():
    ring = sc_ring()
    f1, f2, f3, g, h = sc_polys(ring)
    detm = parse_polynomial(ring, DETM_TEXT)
    meet = intersect(ideal_p(ring), Ideal(ring, [detm]))
    expected = Ideal(ring, [detm * f for f in (f1, f2, f3, g, h)])
    assert ideal_equal(meet, expected)


def test_intersection_self():
    ring = sc_ring()
    p = ideal_p(ring)
    assert ideal_equal(intersect(p, p), p)


@pytest.mark.parametrize("names, aux, basis", [
    ("txy", "t0", ["t*x*y - x*y^2", "t^3 - t^2*y - t*x + x*y"]),
    ("uxy", "t", ["u*x*y - x*y^2", "u^3 - u^2*y - u*x + x*y"]),
    (("t", "t0", "x"), "t1", ["t*t0*x - t0^2*x", "t^3 - t^2*t0 - t*x + t0*x"]),
], ids=["t-taken", "t-free", "t-and-t0-taken"])
def test_intersect_picks_a_fresh_auxiliary_variable(names, aux, basis):
    # <a^2 - x, x*b> cap <a - b>, with a and b the ring's two variables other
    # than x: the auxiliary variable skips the names the ring already has
    ring = PolyRing(QQ, names)
    a, b = (v for v in ring.variables if v != "x")
    i1 = Ideal(ring, [parse_polynomial(ring, f"{a}^2 - x"), parse_polynomial(ring, f"x*{b}")])
    i2 = Ideal(ring, [parse_polynomial(ring, f"{a} - {b}")])
    assert elimination_ideal(i1, i2).ring.variables[0] == aux
    assert [format_polynomial(p) for p in intersect(i1, i2).groebner_basis()] == basis


def test_colon_goldens():
    ring = sc_ring()
    f1, f2, f3, _, _ = sc_polys(ring)
    delta = parse_polynomial(ring, DELTA_TEXT)
    i12 = Ideal(ring, [f1, f2])
    assert ideal_equal(colon_of_meet(intersect(i12, Ideal(ring, [delta])), delta), i12)
    detm = parse_polynomial(ring, DETM_TEXT)
    p = ideal_p(ring)
    assert ideal_equal(colon_of_meet(intersect(p, Ideal(ring, [detm])), detm), p)
    assert ideal_equal(colon_of_meet(intersect(p, Ideal(ring, [ring.one()])), ring.one()), p)


def test_colon_contains_ideal_property():
    ring = sc_ring(F101)
    rng = random.Random(23)
    f1, f2, _, _, _ = sc_polys(ring)
    for _ in range(5):
        f = _random_poly(ring, rng)
        if f.is_zero():
            continue
        i12 = Ideal(ring, [f1, f2])
        quot = colon_of_meet(intersect(i12, Ideal(ring, [f])), f)
        for gen in i12.gens:
            assert ideal_member(gen, quot)


def test_exact_divide():
    ring = sc_ring()
    f1, f2, _, _, _ = sc_polys(ring)
    delta = parse_polynomial(ring, DELTA_TEXT)
    assert exact_divide(delta * f1, delta) == f1
    # the message is the remainder, here all of f1
    with pytest.raises(ValueError, match=r"^x2\*z1 \+ y3\*z1 - x1\*z2 - y1\*z3$"):
        exact_divide(f1, delta)


def test_quotient_dimension_goldens():
    ring = sc_ring()
    assert quotient_dimension(ideal_p(ring)) == 6
    assert quotient_dimension(Ideal(ring, [])) == 9
    assert quotient_dimension(Ideal(ring, [ring.zero()])) == 9
    with pytest.raises(ValueError, match="the ideal is the whole ring"):
        quotient_dimension(Ideal(ring, [ring.one()]))


def test_quotient_dimension_p1_example():
    ring = PolyRing(QQ, [f"{b}{i}" for b in "xyz" for i in range(1, 5)])
    gens = [parse_polynomial(ring, t) for t in
            ("x1", "x2 + z3", "x4 + 1", "y2 - z3", "y4 - 1", "z1", "z2", "z4")]
    assert quotient_dimension(Ideal(ring, gens)) == 4


def _random_poly(ring, rng, nterms=4, max_deg=2):
    out = ring.zero()
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        coeff = ring.field.elem(rng.randrange(1, 101))
        from omegalie.groebner import Polynomial
        out = out + Polynomial(ring, {tuple(exps): coeff})
    return out


def test_division_invariant_randomized():
    ring = sc_ring(F101)
    rng = random.Random(29)
    f1, f2, f3, _, _ = sc_polys(ring)
    gb = ideal_p(ring).groebner_basis()
    for _ in range(25):
        f = _random_poly(ring, rng)
        r = normal_form(f, gb)
        assert normal_form(f - r, gb).is_zero()


def test_buchberger_postcondition_checked_in_tests():
    from omegalie import groebner as gmod
    assert gmod.CHECK_POSTCONDITIONS


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
def test_a_long_line_parses_to_its_terms_summed_one_by_one(field):
    # term k has the monomial x^(k%3)*y^(k%5)*z^(k%4), which is fixed by k % 60:
    # 540 terms repeat each of the 60 monomials nine times, and subtracting
    # every term with k % 60 < 10 cancels ten monomials exactly
    ring = PolyRing(field, ("x", "y", "z"))
    rng = random.Random(31)
    texts = [f"{rng.randint(1, 9)}/{rng.randint(1, 4)}*x^{k % 3}*y^{k % 5}*z^{k % 4}"
             for k in range(540)]
    cancelled = [t for k, t in enumerate(texts) if k % 60 < 10]
    p = parse_polynomial(ring, " + ".join(texts) + " - " + " - ".join(cancelled))
    one_by_one = ring.zero()
    for t in texts:
        one_by_one = one_by_one + parse_polynomial(ring, t)
    for t in cancelled:
        one_by_one = one_by_one - parse_polynomial(ring, t)
    assert p == one_by_one
    assert not {(k % 3, k % 5, k % 4) for k in range(10)} & set(map(ring.unpack, p.terms))


def test_text_roundtrip():
    for field in (QQ, F101):
        ring = sc_ring(field)
        for p in sc_polys(ring):
            assert parse_polynomial(ring, format_polynomial(p)) == p
    ring = sc_ring()
    ide = Ideal(ring, list(sc_polys(ring)))
    again = read_ideal_text(write_ideal_text(ide))
    assert again.ring == ring
    assert list(again.gens) == list(ide.gens)


def test_ideal_reader_refuses_non_identifier_variables():
    # with a variable named 1, the constant polynomial 1 would be written as
    # "1" and read back as that variable
    with pytest.raises(ValueError, match="variable names must be identifiers: '1'"):
        read_ideal_text("ring 1 x over Q\n2/2\n")


def test_reference_polynomial_texts_are_canonical():
    ring = sc_ring()
    f1, f2, f3, g, h = sc_polys(ring)
    assert format_polynomial(f1) == "x2*z1 + y3*z1 - x1*z2 - y1*z3"
    assert format_polynomial(f2) == "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1"
    assert format_polynomial(f3) == "x2*y1 - x1*y2 - y3*z2 + y2*z3"
    assert format_polynomial(g) == G_TEXT
    assert format_polynomial(h) == H_TEXT


def test_elimination_ideal_members():
    # h1 and h2 live in the auxiliary ideal t*<f1,f2> + (1-t)*<Delta>
    ring = sc_ring()
    f1, f2, _, _, _ = sc_polys(ring)
    delta = parse_polynomial(ring, DELTA_TEXT)
    aux = elimination_ideal(Ideal(ring, [f1, f2]), Ideal(ring, [delta]))
    ext = aux.ring
    assert ext == PolyRing(QQ, ("t",) + ring.variables, order="elim1")
    h1 = parse_polynomial(ext, "t*x1*x2 + t*x1*y3 - t*x3*z2 + t*x2*z3"
                               " - x1*x2 - x3*y1 - t")
    h2 = parse_polynomial(ext, "t*x1^2*z2 - t*x3*z1*z2 + t*x1*y1*z3 - t*y3*z1*z3"
                               " + t*x1*z2*z3 + t*y1*z3^2 - x1*x2*z1 - x3*y1*z1"
                               " - t*z1")
    assert ideal_member(h1, aux)
    assert ideal_member(h2, aux)


# ---------------------------------------------------------------------------
# Gebauer-Moeller pair criteria
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"


def _xyz_ring():
    return PolyRing(QQ, ("x", "y", "z"))


def _reduced_pairs(monkeypatch, gens):
    """Run buchberger and return (basis, index pairs whose S-polynomial was
    reduced).  The postcondition check is off here so that its exhaustive
    S-polynomials are not counted; the basis is certified afterwards, with
    every patch undone, so no spy counts that check either."""
    from omegalie import groebner as gmod
    monkeypatch.setattr(gmod, "CHECK_POSTCONDITIONS", False)
    seen = []
    real = gmod.s_polynomial

    def spy(f, g):
        seen.append((f, g))
        return real(f, g)

    monkeypatch.setattr(gmod, "s_polynomial", spy)
    basis = buchberger(gens)
    index = {id(p): i for i, p in enumerate(basis)}
    pairs = [(index[id(f)], index[id(g)]) for f, g in seen]
    monkeypatch.undo()
    _assert_groebner(basis)
    return basis, pairs


@pytest.mark.parametrize("texts, want", [
    # coprime leads: the only pair is dropped
    (("x*y", "z^2"), []),
    # (0, 2) and (1, 2) share the lcm x*y*z: only (0, 2) is kept
    (("x*y", "y*z", "x*z"), [(0, 1), (0, 2)]),
    # lcm(1, 2) = x*y*z properly divides lcm(0, 2) = x*y*z^2: (0, 2) never forms
    (("x*z^2", "y*z", "x*y"), [(1, 2), (0, 1)]),
    # lm(x*y) divides lcm(0, 1) = x^2*y^2*z but equals neither x^2*y*z nor
    # x*y^2*z: the old pair (0, 1) is cancelled
    (("x^2*z", "y^2*z", "x*y"), [(1, 2), (0, 2)]),
])
def test_criteria_on_monomial_ideals(monkeypatch, texts, want):
    ring = _xyz_ring()
    gens = [parse_polynomial(ring, t) for t in texts]
    basis, reduced = _reduced_pairs(monkeypatch, gens)
    assert reduced == want
    assert basis == gens
    assert reduce_basis(basis) == sorted(gens, key=lambda g: ring.sort_key(g.lm()))


def test_monomial_heavy_ideal(monkeypatch):
    ring = _xyz_ring()
    gens = [parse_polynomial(ring, t) for t in ("x*y", "y*z", "x*z", "x^2 - y")]
    basis, reduced = _reduced_pairs(monkeypatch, gens)
    assert [format_polynomial(g) for g in basis[4:]] == ["y^2"]
    # pairs with a coprime lcm, or an lcm divisible by another new pair's, never form
    assert reduced == [(0, 1), (0, 2), (2, 3), (0, 3), (1, 4), (0, 4)]
    assert [format_polynomial(g) for g in reduce_basis(basis)] == [
        "y*z", "x*z", "y^2", "x*y", "x^2 - y"]


def test_new_lead_dividing_an_older_lead_shrinks_the_active_list(monkeypatch):
    ring = _xyz_ring()
    gens = [parse_polynomial(ring, t) for t in ("x^2*y - z", "x*y + z", "x^2 + z")]
    basis, reduced = _reduced_pairs(monkeypatch, gens)
    # lm(x*y + z) divides lm(x^2*y - z): element 0 pairs with element 1, then
    # leaves the active list, so x^2 + z pairs with element 1 on the shared
    # lcm x^2*y and element 0 forms no further pair
    assert [format_polynomial(g) for g in basis[3:]] == ["x*z + z", "y*z - z^2", "z^2 + z"]
    assert reduced == [(0, 1), (1, 3), (1, 4), (2, 3), (4, 5), (3, 5), (1, 2)]
    assert [format_polynomial(g) for g in reduce_basis(basis)] == [
        "z^2 + z", "y*z + z", "x*z + z", "x*y + z", "x^2 + z"]


@pytest.mark.parametrize("texts", [
    ("x*y", "y*z", "x*z", "x^2 - y"),
    ("x^2*y - z", "x*y^2 - z", "x*y - 1"),
    ("x^2*y - z", "x*y + z", "x^2 + z"),
])
def test_reduced_basis_independent_of_generator_order(texts):
    ring = _xyz_ring()
    gens = [parse_polynomial(ring, t) for t in texts]
    reference = reduce_basis(buchberger(gens))
    for perm in permutations(gens):
        assert reduce_basis(buchberger(list(perm))) == reference


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
def test_intersection_with_det_m_trajectory(monkeypatch, field):
    # the pair selection and reduction order behind intersect(P, <det M>):
    # 70 S-pairs reduced, 49 of them to zero, and 25 basis elements
    from omegalie import groebner as gmod
    ring = sc_ring(field)
    aux = elimination_ideal(ideal_p(ring), Ideal(ring, [parse_polynomial(ring, DETM_TEXT)]))
    remainders = []
    real = gmod.normal_form

    def spy(f, basis):
        r = real(f, basis)
        remainders.append(r)
        return r

    monkeypatch.setattr(gmod, "normal_form", spy)
    basis, reduced = _reduced_pairs(monkeypatch, list(aux.gens))
    # buchberger reduces each generator, then one S-polynomial per pair
    spair_remainders = remainders[len(aux.gens):]
    assert len(reduced) == len(spair_remainders) == 70
    assert sum(r.is_zero() for r in spair_remainders) == 49
    assert len(basis) == 25


@pytest.mark.parametrize("field, name", [(QQ, "Q"), (F101, "Fp101")])
def test_elimination_basis_golden(field, name):
    # t*<f1, f2, f3> + (1 - t)*<det M>, the ideal behind intersect(P, <det M>)
    ring = sc_ring(field)
    detm = parse_polynomial(ring, DETM_TEXT)
    aux = elimination_ideal(ideal_p(ring), Ideal(ring, [detm]))
    got = [format_polynomial(g) for g in aux.groebner_basis()]
    want = (GOLDEN / f"elimination_basis_{name}.txt").read_text().splitlines()
    assert len(want) == 25
    assert got == want


@pytest.mark.parametrize("build", [
    lambda ring: Polynomial(ring, {(1, 0): F101.elem(3)}),
    lambda ring: ring.const(F101.elem(3)),
    lambda ring: ring.var("x") * F101.elem(3),
    lambda ring: F101.elem(3) * ring.var("x"),
    lambda ring: ring.var("x") + F101.elem(3),
], ids=["constructor", "const", "scalar-mul", "scalar-rmul", "scalar-add"])
def test_coefficient_of_another_field_is_refused(build):
    with pytest.raises(ValueError, match="mixed fields: Q and F_101"):
        build(PolyRing(QQ, "xy"))


def _square(p):
    return p * p


@pytest.mark.parametrize("build", [
    lambda ring: parse_polynomial(ring, "x^9223372036854775808*y - 1"),
    lambda ring: Polynomial(ring, {(2 ** 63, 0): 1}),
    # past the guard bit too: such a field would carry into the next one
    lambda ring: parse_polynomial(ring, "x^18446744073709551617"),
    lambda ring: Polynomial(ring, {(2 ** 200, 0): 1}),
    lambda ring: Polynomial(ring, {(-1, 0): 1}),
    lambda ring: Polynomial(ring, {(Fraction(3, 2), 0): 1}),
    lambda ring: _square(parse_polynomial(ring, "x^4611686018427387904")),
    lambda ring: _square(parse_polynomial(ring, "x^4611686018427387904 + y")),
], ids=["parse", "constructor", "parse-past-guard", "constructor-past-guard", "negative",
        "non-integer", "square", "square-of-sum"])
def test_an_exponent_past_the_packed_field_is_refused_by_name(build):
    with pytest.raises(ValueError, match=r"^the exponent of 'x' is outside 0 \.\. 2\^63 - 1$"):
        build(PolyRing(QQ, "xy"))


B = 2 ** 63 - 1  # the largest exponent a packed field holds


@pytest.mark.parametrize("variables, order, build", [
    ("xy", "grevlex", lambda ring: Polynomial(ring, {(2 ** 62, 2 ** 62): 1})),
    ("xy", "grevlex", lambda ring: parse_polynomial(ring, "x^4611686018427387904")
     * parse_polynomial(ring, "y^4611686018427387904")),
    # each exponent fits, but the block's degree reaches 2^64: it would carry
    # past the degree field's guard bit (under elim1, into t's field)
    ("xyz", "grevlex", lambda ring: Polynomial(ring, {(B, B, 2): 1})),
    ("xyz", "grevlex", lambda ring: parse_polynomial(ring, f"x^{B}*y^{B}*z^2")),
    ("txyz", "elim1", lambda ring: Polynomial(ring, {(0, B, B, 2): 1})),
    ("txyz", "elim1", lambda ring: parse_polynomial(ring, f"t*x^{B}*y^{B}*z^2")),
], ids=["constructor", "product", "carry", "carry-parse", "elim1-carry", "elim1-carry-parse"])
def test_a_degree_past_the_packed_field_is_refused(variables, order, build):
    with pytest.raises(ValueError, match=r"^the total degree is outside 0 \.\. 2\^63 - 1$"):
        build(PolyRing(QQ, variables, order=order))


def test_a_reduction_past_the_packed_field_is_refused():
    # under elim1 a tail term may outweigh the lead in the tail variables:
    # reducing x*y^(2^62) by x - y^(2^62) yields y^(2^63)
    ring = PolyRing(QQ, "xy", order="elim1")
    f = parse_polynomial(ring, "x*y^4611686018427387904")
    g = parse_polynomial(ring, "x - y^4611686018427387904")
    with pytest.raises(ValueError, match=r"^the exponent of 'y' is outside 0 \.\. 2\^63 - 1$"):
        normal_form(f, [g])


def test_a_large_exponent_below_the_bound_computes():
    ring = PolyRing(F101, "xy")
    p = parse_polynomial(ring, "x^100000000000*y - 1")
    assert p.lm() == (10 ** 11, 1)
    assert format_polynomial(p * p) == "x^200000000000*y^2 + 99*x^100000000000*y + 1"
    assert normal_form(p * p, [p]).is_zero()


def test_terms_hold_payloads_and_lc_wraps():
    ring = PolyRing(QQ, "xy")
    p = parse_polynomial(ring, "1/2*x^2 - 3*y")
    assert {ring.unpack(m): c for m, c in p.terms.items()} == {
        (2, 0): Fraction(1, 2), (0, 1): Fraction(-3)}
    assert p.lc() == QQ.elem(Fraction(1, 2)) and p.lc().field == QQ
    assert Polynomial(ring, {(2, 0): Fraction(1, 2), (0, 1): -3, (1, 1): 0}) == p


def _meets(field):
    """(name, I1, I2) for the paper's three intersections over field."""
    from omegalie.variety import x1_component_ideals
    ring = sc_ring(field)
    f1, f2, _, _, _ = sc_polys(ring)
    delta, detm = (parse_polynomial(ring, t) for t in (DELTA_TEXT, DETM_TEXT))
    p1, p2 = x1_component_ideals(field)
    return [("f1,f2 cap Delta", Ideal(ring, [f1, f2]), Ideal(ring, [delta])),
            ("P cap det M", ideal_p(ring), Ideal(ring, [detm])),
            ("P1 cap P2", p1, p2)]


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
def test_meet_carries_its_reduced_basis(monkeypatch, field):
    from omegalie import groebner as gmod
    for name, i1, i2 in _meets(field):
        meet = intersect(i1, i2)
        calls = []
        real = gmod.buchberger
        monkeypatch.setattr(gmod, "buchberger", lambda gens: calls.append(1) or real(gens))
        basis = meet.groebner_basis()
        monkeypatch.setattr(gmod, "buchberger", real)
        assert calls == [], name
        assert list(meet.gens) == basis, name
        assert basis == reduce_basis(buchberger(list(meet.gens))), name


def test_contract_refuses_another_ring():
    ring = sc_ring()
    aux = elimination_ideal(ideal_p(ring), Ideal(ring, [ring.var("x1")]))
    for other in (sc_ring(F101), PolyRing(QQ, ring.variables[1:]),
                  PolyRing(QQ, ring.variables, order="elim1")):
        with pytest.raises(ValueError, match="not an elimination ideal over this ring"):
            contract(aux, other)
    with pytest.raises(ValueError, match="not an elimination ideal over this ring"):
        contract(ideal_p(ring), ring)


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
def test_fraction_scalars_in_polynomial_arithmetic(field):
    ring = PolyRing(field, "xy")
    x, half = ring.var("x"), Fraction(1, 2)
    c = ring.const(half)
    assert x + half == half + x == x + c
    assert x - half == x - c and half - x == c - x
    assert x * half == half * x == x * c
    if field == F101:
        bad = Fraction(1, 202)
        for op in (lambda: ring.const(bad), lambda: x + bad, lambda: x - bad,
                   lambda: x * bad, lambda: bad * x):
            with pytest.raises(ZeroDivisionError, match="denominator divisible by 101"):
                op()
