"""Differential property test of the heap reduction loop: normal_form and
exact_divide against the max-scan division loops they replaced, kept here as
the oracle, over Q, F_101 and Q(sqrt 2), in grevlex and elim1 order, with
non-monic and non-Groebner divisor lists whose order matters."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, FieldElement, PrimeField, parse_descriptor
from omegalie.groebner import (
    InexactDivision,
    Polynomial,
    PolyRing,
    exact_divide,
    format_polynomial,
    normal_form,
    parse_polynomial,
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
    """The terms of p, whose values are raw payloads, as FieldElements."""
    return {e: FieldElement(p.ring.field, c) for e, c in p.terms.items()}


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
            raise InexactDivision(format_polynomial(Polynomial(ring, work)))
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
    """Both return the same polynomial, or both raise InexactDivision with
    the same message."""
    try:
        want = old()
    except InexactDivision as exc:
        with pytest.raises(InexactDivision) as got:
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


def test_key_cache_holds_one_entry_per_monomial_seen():
    ring = PolyRing(QQ, VARIABLES)
    f_text, basis_texts = RECREATE
    f = parse_polynomial(ring, f_text)
    basis = [parse_polynomial(ring, t) for t in basis_texts]
    assert not ring._key_cache
    normal_form(f, basis)
    cached = dict(ring._key_cache)
    log = []
    max_scan_normal_form(f, basis, log)
    seen = set(f.terms).union(*(g.terms for g in basis), (m for _, m in log))
    assert set(cached) == seen
    # one flat heap key per monomial, ending with the monomial itself
    assert all(type(k) is tuple and k[-1] is m for m, k in cached.items())
    # no second per-ring cache: every dict on the ring is one of these two
    assert not hasattr(ring, "__dict__")
    dicts = [s for s in PolyRing.__slots__ if isinstance(getattr(ring, s), dict)]
    assert dicts == ["_var_index", "_key_cache"]
