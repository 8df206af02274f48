"""Differential test: reduced grevlex bases against sympy's groebner()."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from omegalie.fields import QQ
from omegalie.groebner import (
    PolyRing,
    Polynomial,
    buchberger,
    format_polynomial,
    reduce_basis,
)

from helpers import F101, sc_polys, sc_ring


def _to_sympy(polys, symbols):
    out = []
    for p in polys:
        expr = 0
        for m, c in p.terms.items():  # c is a Fraction or an int payload
            term = sympy.Rational(str(c))
            for s, e in zip(symbols, p.ring.unpack(m)):
                term *= s ** e
            expr += term
        out.append(expr)
    return out


def _from_sympy(basis, ring):
    """sympy's basis as monic omegalie polynomials, ascending in the ring order."""
    field = ring.field
    out = []
    for g in basis.polys:
        terms = {}
        for exps, c in g.terms():
            if field is QQ:
                terms[exps] = field.elem(Fraction(int(c.numerator), int(c.denominator)))
            else:
                terms[exps] = field.elem(int(c) % field.p)  # symmetric residues
        out.append(Polynomial(ring, terms).monic())  # sympy's Poly is monic in lex
    return sorted(out, key=lambda p: ring.sort_key(p.lm()))


def _assert_matches_sympy(gens):
    ring = gens[0].ring
    symbols = sympy.symbols(ring.variables)
    kwargs = {} if ring.field is QQ else {"modulus": ring.field.p}
    theirs = sympy.groebner(_to_sympy(gens, symbols), *symbols, order="grevlex",
                            **kwargs)
    ours = reduce_basis(buchberger(gens))
    assert ([format_polynomial(g) for g in ours]
            == [format_polynomial(g) for g in _from_sympy(theirs, ring)])


@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
def test_structure_ideal_matches_sympy(field):
    ring = sc_ring(field)
    f1, f2, f3, _, _ = sc_polys(ring)
    _assert_matches_sympy([f1, f2, f3])


def _random_ideal(rng, field):
    """2-4 generators of 1-3 terms in 3-4 variables, each term of degree 1-3
    (no constant term, so never the unit ideal)."""
    nvars = rng.randint(3, 4)
    ring = PolyRing(field, "abcd"[:nvars])

    def term():
        exps = [0] * nvars
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(nvars)] += 1
        return tuple(exps), field.elem(rng.choice((-3, -2, -1, 1, 2, 3)))

    return [Polynomial(ring, dict(term() for _ in range(rng.randint(1, 3))))
            for _ in range(rng.randint(2, 4))]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("field", [QQ, F101], ids=["Q", "Fp101"])
def test_random_small_ideals_match_sympy(field, seed):
    _assert_matches_sympy(_random_ideal(random.Random(seed), field))
