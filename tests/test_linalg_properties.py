"""Property tests for the dense kernel: products, solve, det, rank and the
congruence reduction of arbitrary skew forms, and the shared elimination loop
behind det, rank and solve against three separate reference loops."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, FieldElement, PrimeField, QuadExt
from omegalie.linalg import (
    Matrix,
    SkewForm,
    skew_congruence_reduce,
    solve,
    solve_vector,
    standard_j,
)

F101 = PrimeField(101)
Q_EXT = QuadExt(QQ, 2, 0)

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


# ---------------------------------------------------------------------------
# det, rank and solve share one Gauss-Jordan loop; the reference below keeps
# three separate loops: forward elimination for det, Gauss-Jordan with
# unscaled pivots for rank, and Gauss-Jordan with pivot rows scaled to 1 for
# solve.  All three work on payload rows, as the kernel does.
# ---------------------------------------------------------------------------

def _rows(m):
    p, c = m.payloads, m.cols
    return [list(p[i * c:(i + 1) * c]) for i in range(m.rows)]


def reference_det(a):
    field = a.field
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    n = a.rows
    m = _rows(a)
    det = field.one.value
    for c in range(n):
        piv = next((r for r in range(c, n) if not is_zero(m[r][c])), None)
        if piv is None:
            return field.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = neg(det)
        det = mul(det, m[c][c])
        inv = field.inv(m[c][c])
        for r in range(c + 1, n):
            if not is_zero(m[r][c]):
                f = neg(mul(m[r][c], inv))
                for k in range(c, n):
                    m[r][k] = add(m[r][k], mul(f, m[c][k]))
    return FieldElement(field, det)


def reference_rank(a):
    field = a.field
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    m = _rows(a)
    rank = 0
    for c in range(a.cols):
        piv = next((r for r in range(rank, a.rows) if not is_zero(m[r][c])), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = field.inv(m[rank][c])
        for r in range(a.rows):
            if r != rank and not is_zero(m[r][c]):
                f = neg(mul(m[r][c], inv))
                for k in range(c, a.cols):
                    m[r][k] = add(m[r][k], mul(f, m[rank][k]))
        rank += 1
        if rank == a.rows:
            break
    return rank


def reference_solve(a, b):
    if a.rows != b.rows:
        raise ValueError("row mismatch between matrix and right-hand side")
    field = a.field
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    n, m, k = a.rows, a.cols, b.cols
    aug = [ra + rb for ra, rb in zip(_rows(a), _rows(b))]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if not is_zero(aug[i][c])), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = field.inv(aug[r][c])
        aug[r] = pivot_row = [mul(x, inv) for x in aug[r]]
        for i in range(n):
            if i != r and not is_zero(aug[i][c]):
                f = neg(aug[i][c])
                aug[i] = [add(x, mul(f, y)) for x, y in zip(aug[i], pivot_row)]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if any(not is_zero(x) for x in aug[i][m:]):
            raise ValueError("no solution")
    if len(pivots) < m:
        raise ValueError("solution is not unique")
    out = [None] * (m * k)
    for row_idx, c in enumerate(pivots):
        out[c * k:(c + 1) * k] = aug[row_idx][m:]
    return Matrix(field, m, k, out)


def reference_inverse(a):
    if a.rows != a.cols:
        raise ValueError("non-square matrix")
    return reference_solve(a, Matrix.identity(a.field, a.rows))


def outcome(f, *args):
    """f(*args), or the type and text of the exception it raised."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


ORACLE_FIELDS = {"Q": QQ, "F101": F101, "Q(t)": Q_EXT}
oracle_sizes = st.integers(min_value=0, max_value=4)


@st.composite
def low_rank_matrices(draw, field, rows, cols):
    """A rows x cols matrix, often singular: the product of a rows x r and an
    r x cols factor for a drawn r, or a free matrix; over Q(t) the entries use
    t."""
    def entry():
        x = draw(st.integers(min_value=-3, max_value=3))
        return (x, draw(st.integers(min_value=-1, max_value=1))) if field.depth else x

    if draw(st.booleans()):
        return Matrix(field, rows, cols, [entry() for _ in range(rows * cols)])
    r = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    return (Matrix(field, rows, r, [entry() for _ in range(rows * r)])
            * Matrix(field, r, cols, [entry() for _ in range(r * cols)]))


@pytest.mark.parametrize("name", ORACLE_FIELDS)
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_det_rank_solve_match_the_reference_loops(name, data):
    field = ORACLE_FIELDS[name]
    n, m, k = data.draw(oracle_sizes), data.draw(oracle_sizes), data.draw(oracle_sizes)
    a = data.draw(low_rank_matrices(field, n, m))
    assert a.rank() == reference_rank(a)
    assert outcome(a.inverse) == outcome(reference_inverse, a)
    if n == m:
        assert a.det() == reference_det(a)
    else:
        with pytest.raises(ValueError):
            a.det()
    # a right-hand side in the column space (consistent) or a free one, which
    # for a singular or tall matrix is most often inconsistent
    if data.draw(st.booleans()):
        b = a * data.draw(low_rank_matrices(field, m, k))
    else:
        b = data.draw(low_rank_matrices(field, n, k))
    assert outcome(solve, a, b) == outcome(reference_solve, a, b)
    if k:
        want = outcome(reference_solve, a, Matrix(field, n, 1, b.col(0)))
        got = outcome(solve_vector, a, b.col(0))
        assert got == (want.col(0) if isinstance(want, Matrix) else want)

