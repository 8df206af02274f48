"""Property tests for the dense kernel: products, solve, det, rank and the
congruence reduction of arbitrary skew forms."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, PrimeField
from omegalie.linalg import Matrix, SkewForm, skew_congruence_reduce, solve, standard_j

F101 = PrimeField(101)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
fields = st.sampled_from([QQ, F101])
sizes = st.integers(min_value=1, max_value=5)
scalars = st.integers(min_value=-6, max_value=6)


@st.composite
def matrices(draw, field, rows, cols):
    return Matrix.from_rows(field, [[draw(scalars) for _ in range(cols)]
                                    for _ in range(rows)])


@st.composite
def skew_forms(draw):
    field = draw(fields)
    n = draw(st.integers(min_value=1, max_value=8))
    upper = {(i, j): draw(scalars) for i in range(n) for j in range(i + 1, n)}
    rows = [[upper[i, j] if i < j else -upper[j, i] if j < i else 0
             for j in range(n)] for i in range(n)]
    return SkewForm(Matrix.from_rows(field, rows))


@PROPERTY
@given(st.data(), fields, sizes, sizes, sizes, sizes)
def test_product_is_associative(data, field, n, k, m, p):
    a = data.draw(matrices(field, n, k))
    b = data.draw(matrices(field, k, m))
    c = data.draw(matrices(field, m, p))
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(st.data(), fields, sizes, sizes)
def test_solve_solves(data, field, n, k):
    a = data.draw(matrices(field, n, n))
    assume(not a.det().is_zero())
    b = data.draw(matrices(field, n, k))
    assert a * solve(a, b) == b


@PROPERTY
@given(st.data(), fields, sizes)
def test_det_is_multiplicative(data, field, n):
    a = data.draw(matrices(field, n, n))
    b = data.draw(matrices(field, n, n))
    assert (a * b).det() == a.det() * b.det()


@PROPERTY
@given(st.data(), fields, sizes, sizes, sizes)
def test_second_compound_is_multiplicative(data, field, n, k, m):
    # Cauchy-Binet: every 2x2 minor of ab sums products of minors of a and b
    a = data.draw(matrices(field, n, k))
    b = data.draw(matrices(field, k, m))
    assert (a * b).second_compound() == a.second_compound() * b.second_compound()
    if n == m == 2:
        assert a.second_compound() * b.second_compound() == Matrix(field, 1, 1, [(a * b).det()])


@PROPERTY
@given(st.data(), fields, sizes, sizes)
def test_rank_of_transpose(data, field, n, m):
    a = data.draw(matrices(field, n, m))
    assert a.rank() == a.transpose().rank()


@PROPERTY
@given(skew_forms())
def test_congruence_reduces_any_skew_form(form):
    a = form.matrix
    res = skew_congruence_reduce(form)
    assert res.rank == a.rank()
    assert res.q.transpose() * a * res.q == standard_j(form.field, form.dim, res.rank)
    assert not res.q.det().is_zero()
