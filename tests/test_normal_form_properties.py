"""Differential property test of the heap reduction loop: normal_form and
exact_divide against the max-scan division loops they replaced, kept here as
the oracle, over Q, F_101 and Q(sqrt 2), in grevlex and elim1 order, with
non-monic and non-Groebner divisor lists whose order matters; and the packed
monomials under it against their exponent tuples and sort_key."""

from fractions import Fraction
from itertools import combinations
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, FieldElement, PrimeField, parse_descriptor
from omegalie.groebner import (
    Ideal,
    Polynomial,
    PolyRing,
    exact_divide,
    format_polynomial,
    normal_form,
    parse_polynomial,
    quotient_dimension,
)

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

FIELDS = (QQ, PrimeField(101), parse_descriptor("QuadExt:Q:-2,0"))
ORDERS = ("grevlex", "elim1")
VARIABLES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# the oracle: the division loops before the heap, on FieldElement arithmetic,
# taking the next term by a max scan over the whole remainder
# ---------------------------------------------------------------------------

def elements(p):
    """The terms of p, packed monomials to raw payloads, as exponent tuples to
    FieldElements."""
    return {p.ring.unpack(m): FieldElement(p.ring.field, c) for m, c in p.terms.items()}


def max_scan_normal_form(f, basis, log=None):
    """log, when given, receives ("computed", m) for every monomial a
    reduction step computes and ("recreated", m) when that monomial had
    cancelled earlier and is not in the remainder."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis or f.is_zero():
        return f
    ring = f.ring
    key = ring.sort_key
    data = [(g.lm(), g.lc(), elements(g)) for g in basis]
    work = elements(f)
    cancelled = set()
    out = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for glm, glc, gterms in data:
            if all(a <= b for a, b in zip(glm, m)):
                q = tuple(a - b for a, b in zip(m, glm))
                factor = c / glc
                for e, a in gterms.items():
                    if e == glm:
                        continue
                    me = tuple(a + b for a, b in zip(e, q))
                    acc = work.get(me)
                    if log is not None:
                        log.append(("computed", me))
                        if acc is None and me in cancelled:
                            log.append(("recreated", me))
                    delta = factor * a
                    acc = -delta if acc is None else acc - delta
                    if acc.is_zero():
                        work.pop(me, None)
                        cancelled.add(me)
                    else:
                        work[me] = acc
                break
        else:
            out[m] = c
    return Polynomial(ring, out)


def max_scan_exact_divide(f, g):
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    key = ring.sort_key
    glm, glc = g.lm(), g.lc()
    work = elements(f)
    quot = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        if not all(a <= b for a, b in zip(glm, m)):
            raise ValueError(format_polynomial(Polynomial(ring, work)))
        q = tuple(a - b for a, b in zip(m, glm))
        factor = c / glc
        quot[q] = factor
        for e, a in elements(g).items():
            me = tuple(a + b for a, b in zip(e, q))
            acc = work.get(me)
            delta = factor * a
            acc = -delta if acc is None else acc - delta
            if acc.is_zero():
                work.pop(me, None)
            else:
                work[me] = acc
    return Polynomial(ring, quot)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def scalars(field):
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if field.depth:
        return st.tuples(small, small)
    return small


@st.composite
def rings(draw):
    return PolyRing(draw(st.sampled_from(FIELDS)), VARIABLES,
                    order=draw(st.sampled_from(ORDERS)))


@st.composite
def polynomials(draw, ring, max_terms=5):
    exps = st.tuples(*(st.integers(0, 3) for _ in VARIABLES))
    terms = draw(st.dictionaries(exps, scalars(ring.field), max_size=max_terms))
    return Polynomial(ring, {e: ring.field.elem(c) for e, c in terms.items()})


def same_outcome(new, old):
    """Both return the same polynomial, or both raise ValueError with the
    same message."""
    try:
        want = old()
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            new()
        assert str(got.value) == str(exc)
        return None
    assert new() == want
    return want


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(st.data())
def test_normal_form_matches_the_max_scan_oracle(data):
    ring = data.draw(rings())
    f = data.draw(polynomials(ring, max_terms=8))
    basis = data.draw(st.lists(polynomials(ring), max_size=4))
    want = max_scan_normal_form(f, basis)
    got = normal_form(f, basis)
    assert got == want
    assert format_polynomial(got) == format_polynomial(want)
    # the divisor order matters for the remainder: both loops take the first
    # divisor whose lead divides, so the reversed list must agree as well
    assert normal_form(f, basis[::-1]) == max_scan_normal_form(f, basis[::-1])


@PROPERTY
@given(st.data())
def test_exact_divide_matches_the_max_scan_oracle(data):
    ring = data.draw(rings())
    g = data.draw(polynomials(ring).filter(lambda p: not p.is_zero()))
    h = data.draw(polynomials(ring))
    f = g * h
    if data.draw(st.booleans()):
        f = f + data.draw(polynomials(ring, max_terms=2))
    got = same_outcome(lambda: exact_divide(f, g), lambda: max_scan_exact_divide(f, g))
    if got is not None:
        assert got * g == f


# Reducing this f creates a remainder term, cancels it and creates it again
# before it is popped, in both orders and over all three fields: the heap then
# holds a stale entry for it next to a live one.
RECREATE = ("-x^2*y^2*z^2 + 2*x^2*y*z^2 - x^2*y^2 - 2*y^2 + 3*y*z - y",
            ("x^2*z^2 - x^2*y + x^2", "-x*z + x", "3*x^2*y*z + 3*y^2"))


@pytest.mark.parametrize("field", FIELDS, ids=("Q", "Fp101", "QuadExt"))
@pytest.mark.parametrize("order", ORDERS)
def test_a_cancelled_term_created_again(field, order):
    ring = PolyRing(field, VARIABLES, order=order)
    f_text, basis_texts = RECREATE
    f = parse_polynomial(ring, f_text)
    basis = [parse_polynomial(ring, t) for t in basis_texts]
    log = []
    want = max_scan_normal_form(f, basis, log)
    assert "recreated" in {event for event, _ in log}
    assert normal_form(f, basis) == want


BOUND = (1 << 63) - 1  # the largest exponent a packed field holds
# the bound itself often: three of it overflow the grevlex degree field
EXPONENTS = st.one_of(st.integers(0, 3), st.just(BOUND), st.integers(0, BOUND))


def monomial_vectors(n):
    return st.tuples(*(EXPONENTS for _ in range(n)))


def packs(ring, exps):
    """Whether exps lies in range for ring.pack: each exponent, and the
    degree of the grevlex block, at most BOUND."""
    block = exps if ring.order == "grevlex" else exps[1:]
    return max(exps) <= BOUND and sum(block) <= BOUND


@PROPERTY
@given(st.data())
def test_packed_monomials_match_their_exponent_tuples(data):
    ring = data.draw(rings())
    a, b = data.draw(monomial_vectors(3)), data.draw(monomial_vectors(3))
    for e in (a, b):
        if not packs(ring, e):
            with pytest.raises(ValueError, match="outside 0 .. 2\\^63 - 1"):
                ring.pack(e)
    assume(packs(ring, a) and packs(ring, b))
    pa, pb = ring.pack(a), ring.pack(b)
    assert (ring.unpack(pa), ring.unpack(pb)) == (a, b)
    # the packed order, which sorted_terms and the heap use, is sort_key's order
    if a != b:
        two = Polynomial(ring, {a: 1, b: 1})
        assert two.lm() == max(a, b, key=ring.sort_key)
        assert [ring.unpack(m) for m, _ in two.sorted_terms()] == sorted(
            (a, b), key=ring.sort_key, reverse=True)
    # the borrow test is componentwise <=, and a quotient is a difference
    assert ring.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    if ring.divides(pa, pb):
        assert ring.unpack(pb - pa) == tuple(y - x for x, y in zip(a, b))
    # coprime leads have disjoint supports
    assert (ring.support(pa) & ring.support(pb) == 0) == all(
        x == 0 or y == 0 for x, y in zip(a, b))
    # the lcm is the max and the product is the sum, or both are refused
    lcm, product = tuple(map(max, a, b)), tuple(map(add, a, b))
    if packs(ring, lcm):
        assert ring.lcm(pa, pb) == ring.pack(lcm)
    else:
        with pytest.raises(ValueError, match="outside 0 .. 2\\^63 - 1"):
            ring.lcm(pa, pb)
    one = ring.field.one
    fa, fb = Polynomial(ring, {a: one}), Polynomial(ring, {b: one})
    if packs(ring, product):
        assert (fa * fb).terms == {pa + pb: one.value}
        assert (fa * fb).lm() == product
    else:
        with pytest.raises(ValueError, match="outside 0 .. 2\\^63 - 1"):
            fa * fb


@PROPERTY
@given(st.data())
def test_elim1_lift_and_contract_are_inverse_on_t_free_monomials(data):
    field = data.draw(st.sampled_from(FIELDS))
    ring = PolyRing(field, VARIABLES)
    ext = PolyRing(field, ("t",) + VARIABLES, order="elim1")
    e = data.draw(monomial_vectors(3))
    k = data.draw(EXPONENTS)
    assume(packs(ring, e))
    m = ring.pack(e)
    # contract keeps a t-free monomial as it is, and lifting by t^k is an OR
    assert ext.pack((0,) + e) == m and ext.unpack(m) == (0,) + e
    lifted = ext.pack((k,) + e)
    assert lifted == m | ext.pack((k, 0, 0, 0))
    assert ring.unpack(lifted & ~ext.pack((k, 0, 0, 0))) == e
    # the t-free monomials are those below t
    assert (lifted < ext.pack((1, 0, 0, 0))) == (k == 0)


@PROPERTY
@given(st.lists(st.tuples(*(st.integers(0, 2) for _ in range(5))), min_size=1, max_size=5))
def test_quotient_dimension_matches_a_scan_of_every_variable_subset(leads):
    assume(all(any(e) for e in leads))  # a constant generates the whole ring
    ring = PolyRing(QQ, "abcde")
    ideal = Ideal(ring, [Polynomial(ring, {e: 1}) for e in leads])
    supports = [{i for i, x in enumerate(g.lm()) if x} for g in ideal.groebner_basis()]
    want = max(size for size in range(6) for subset in combinations(range(5), size)
               if not any(sup <= set(subset) for sup in supports))
    assert quotient_dimension(ideal) == want


def test_the_ring_holds_no_cache():
    for order in ORDERS:
        ring = PolyRing(QQ, VARIABLES, order=order)
        f_text, basis_texts = RECREATE
        normal_form(parse_polynomial(ring, f_text),
                    [parse_polynomial(ring, t) for t in basis_texts])
        assert not hasattr(ring, "__dict__")
        dicts = [s for s in PolyRing.__slots__ if isinstance(getattr(ring, s), dict)]
        assert dicts == ["_var_index"]
        assert ring._var_index == {v: i for i, v in enumerate(VARIABLES)}
