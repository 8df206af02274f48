"""Property tests for the bracket identity: validate against a brute-force loop
over every ordered basis triple, and recover_omega against validate, on
arbitrary brackets and skew forms."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, PrimeField
from omegalie.linalg import Matrix, SkewForm
from omegalie.omega import (
    NoSolution,
    OmegaAlgebra,
    StructureConstants,
    recover_omega,
    validate,
)

F101 = PrimeField(101)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
# mostly zeros, so that some drawn brackets satisfy the identity for some form
scalars = st.one_of(st.just(0), st.just(0), st.integers(min_value=-3, max_value=3))


@st.composite
def algebras(draw):
    field = draw(st.sampled_from([QQ, F101]))
    n = draw(st.integers(min_value=3, max_value=5))
    table = {(i, j): [draw(scalars) for _ in range(n)]
             for i in range(n) for j in range(i + 1, n)}
    upper = {(i, j): draw(scalars) for i in range(n) for j in range(i + 1, n)}
    rows = [[upper[i, j] if i < j else -upper[j, i] if j < i else 0
             for j in range(n)] for i in range(n)]
    return OmegaAlgebra(field, StructureConstants(field, n, table),
                        SkewForm(Matrix.from_rows(field, rows)))


def bracket(sc, u, v):
    """[u, v] for coefficient vectors, by bilinearity over every ordered pair
    of basis vectors."""
    out = [sc.field.zero] * sc.dim
    for a in range(sc.dim):
        for b in range(sc.dim):
            coeff = u[a] * v[b]
            if coeff.is_zero():
                continue
            for k, c in enumerate(sc.bracket(a, b)):
                out[k] = out[k] + coeff * c
    return tuple(out)


def brute_force_failures(alg):
    """The identity checked on all n^3 ordered triples with basis vectors:
    [[e_i,e_j],e_k] + cyclic - (w(e_i,e_j) e_k + cyclic), nonzero ones kept."""
    n, field, sc = alg.dim, alg.field, alg.sc
    basis = [tuple(field.one if t == m else field.zero for t in range(n))
             for m in range(n)]
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out = [field.zero] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    term = bracket(sc, bracket(sc, basis[a], basis[b]), basis[c])
                    out = [x + y for x, y in zip(out, term)]
                    out[c] = out[c] - alg.omega(a, b)
                if any(not x.is_zero() for x in out):
                    failures.append(((i, j, k), tuple(out)))
    return failures


@PROPERTY
@given(algebras())
def test_validate_matches_brute_force(alg):
    report = validate(alg)
    want = brute_force_failures(alg)
    assert report.failures == want
    assert report.ok == (not want)
    assert len(report.messages) == (1 if want else 0)


@PROPERTY
@given(algebras())
def test_recover_omega_agrees_with_validate(alg):
    try:
        form = recover_omega(alg.sc)
    except NoSolution:
        # no form at all works, the drawn one included
        assert not validate(alg).ok
        return
    assert validate(OmegaAlgebra(alg.field, alg.sc, form)).ok
    assert validate(alg).ok == (form == alg.omega)
