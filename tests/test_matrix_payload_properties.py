"""Property tests for Matrix, which stores raw payloads: every accessor and
entrywise operation must agree with a reference matrix kept here as plain
rows of FieldElements and computed with FieldElement arithmetic only."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, FieldElement, PrimeField, QuadExt
from omegalie.linalg import Matrix

F101 = PrimeField(101)
Q_EXT = QuadExt(QQ, 1, 1)
F101_EXT = QuadExt(F101, 25, 1)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# few values, so that equal matrices and zero matrices are drawn often
small = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
FIELDS = {
    "Q": (QQ, small),
    "F101": (F101, small),
    "Q(t)": (Q_EXT, st.tuples(small, small)),
    "F101(t)": (F101_EXT, st.tuples(small, small)),
}
BASES = {"Q": Q_EXT, "F101": F101_EXT}


def draw_rows(data, field, values, rows, cols):
    """A reference matrix: rows of FieldElements."""
    return [[field.elem(data.draw(values)) for _ in range(cols)] for _ in range(rows)]


def entries(m):
    """Every entry of m through [i, j], checked to be a FieldElement of m's field."""
    out = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    for row in out:
        for x in row:
            assert isinstance(x, FieldElement) and x.field == m.field
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_accessors_and_builders_match_the_reference(name, data, rows, cols):
    field, values = FIELDS[name]
    ref = draw_rows(data, field, values, rows, cols)
    flat = [x for row in ref for x in row]
    m = Matrix.from_rows(field, ref)
    assert entries(m) == ref
    assert entries(Matrix(field, rows, cols, flat)) == ref
    # raw scalars are coerced into the field at build time
    raw = Matrix.from_rows(field, [[x.value for x in row] for row in ref])
    assert raw == m and hash(raw) == hash(m)
    for i in range(rows):
        assert m.row(i) == tuple(ref[i])
    for j in range(cols):
        assert m.col(j) == tuple(ref[i][j] for i in range(rows))
    assert entries(m.transpose()) == [[ref[i][j] for i in range(rows)] for j in range(cols)]
    assert m.is_zero() == all(x.is_zero() for x in flat)

    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    v = field.elem(data.draw(values))
    changed = [list(row) for row in ref]
    changed[i][j] = v
    assert entries(m.with_entry(i, j, v)) == changed
    assert entries(m) == ref  # with_entry leaves m alone


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_entrywise_arithmetic_matches_the_reference(name, data, rows, cols):
    field, values = FIELDS[name]
    ra = draw_rows(data, field, values, rows, cols)
    rb = draw_rows(data, field, values, rows, cols)
    a, b = Matrix.from_rows(field, ra), Matrix.from_rows(field, rb)
    assert entries(a - b) == [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
    s = field.elem(data.draw(values))
    scaled = [[x * s for x in p] for p in ra]
    assert entries(a * s) == entries(s * a) == scaled
    k = data.draw(st.integers(-3, 3))
    assert entries(a * k) == entries(k * a) == [[x * k for x in p] for p in ra]


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data(), rows=st.integers(1, 3), cols=st.integers(1, 3))
def test_equality_and_hash_match_the_reference(name, data, rows, cols):
    field, values = FIELDS[name]
    ra = draw_rows(data, field, values, rows, cols)
    rb = draw_rows(data, field, values, rows, cols)
    a, b = Matrix.from_rows(field, ra), Matrix.from_rows(field, rb)
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)
    # equal payloads in another shape or over another field are not equal
    if rows > 1:
        assert a != Matrix(field, 1, rows * cols, [x for row in ra for x in row])
    other = F101 if field == QQ else QQ
    if field.depth == 0:
        assert a != Matrix.from_rows(other, [[x.value for x in row] for row in ra])


@pytest.mark.parametrize("name", sorted(BASES))
@PROPERTY
@given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
def test_embed_matches_the_reference(name, data, rows, cols):
    field, values = FIELDS[name]
    ext = BASES[name]
    ref = draw_rows(data, field, values, rows, cols)
    m = Matrix.from_rows(field, ref).embed(ext)
    assert m.field == ext
    assert entries(m) == [[ext.embed(x) for x in row] for row in ref]
    assert m == Matrix.from_rows(ext, [[ext.embed(x) for x in row] for row in ref])
