import random
from fractions import Fraction
from pathlib import Path

import pytest

from omegalie.fields import QQ, PrimeField, QuadExt
from omegalie.linalg import (
    Matrix,
    SkewForm,
    _from_payloads,
    _payload_rows,
    skew_congruence_reduce,
    solve_vector,
    standard_j,
)

F101 = PrimeField(101)


def _rand_matrix(field, n, rng, lo=-5, hi=5):
    if isinstance(field, PrimeField):
        return Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(n)]
                                        for _ in range(n)])
    return Matrix.from_rows(field, [[rng.randint(lo, hi) for _ in range(n)]
                                    for _ in range(n)])


def _rand_invertible(field, n, rng):
    while True:
        m = _rand_matrix(field, n, rng)
        if not m.det().is_zero():
            return m


def test_identity_det():
    assert Matrix.identity(QQ, 3).det() == QQ.one


def test_inverse_roundtrip_f101():
    rng = random.Random(2)
    for _ in range(20):
        m = _rand_invertible(F101, 5, rng)
        assert m * m.inverse() == Matrix.identity(F101, 5)


def test_solve_and_errors():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    x = solve_vector(a, (QQ.elem(5), QQ.elem(6)))
    assert a * Matrix(QQ, 2, 1, x) == Matrix.from_rows(QQ, [[5], [6]])
    singular = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="^no solution$"):
        solve_vector(singular, (QQ.elem(1), QQ.elem(0)))
    with pytest.raises(ValueError, match="^solution is not unique$"):
        solve_vector(singular, (QQ.elem(1), QQ.elem(2)))
    with pytest.raises(ValueError, match="^no solution$"):
        singular.inverse()


def test_mixed_field_product_raises():
    with pytest.raises(ValueError, match="mixed fields: Q and F_101"):
        Matrix.identity(QQ, 2) * Matrix.identity(F101, 2)


def test_foreign_entry_raises():
    # an F_101 entry is refused when a Q matrix is built, not at first use
    with pytest.raises(ValueError, match="mixed fields: Q and F_101"):
        Matrix(QQ, 2, 2, [QQ.one, F101.one, QQ.zero, QQ.one])
    with pytest.raises(ValueError, match="mixed fields: Q and F_101"):
        Matrix.from_rows(QQ, [[QQ.one, F101.one], [QQ.zero, QQ.one]])
    with pytest.raises(ValueError, match="mixed fields: Q and F_101"):
        Matrix.identity(QQ, 2).with_entry(0, 1, F101.one)


def test_rank():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert m.rank() == 2


def test_translation_system_determinant():
    # coefficient matrix of the translation system; its determinant is
    # (s1 s4 - s2 s3)(b1 c2 - b2 c1) * d for the generic block element
    rng = random.Random(3)
    for field in (QQ, F101):
        for _ in range(40):
            b = [field.elem(rng.randint(-6, 6)) for _ in range(3)]
            c = [field.elem(rng.randint(-6, 6)) for _ in range(3)]
            s1, s2, s3 = (field.elem(rng.randint(-4, 4)) for _ in range(3))
            if s1.is_zero():
                s1 = field.one
            s4 = (field.one + s2 * s3) / s1
            d = field.elem(rng.randint(1, 6))
            t = Matrix.from_rows(field, [
                [s3 * b[0] + s4 * c[0], -(s1 * b[0] + s2 * c[0]), field.zero],
                [s3 * b[1] + s4 * c[1], -(s1 * b[1] + s2 * c[1]), field.zero],
                [s3 * b[2] + s4 * c[2], -(s1 * b[2] + s2 * c[2]), d],
            ])
            delta = b[0] * c[1] - b[1] * c[0]
            assert t.det() == delta * d


def test_skewform_invariants():
    with pytest.raises(ValueError, match=r"entry \(0,1\) is not the negative of \(1,0\)"):
        SkewForm(Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
    with pytest.raises(ValueError, match=r"nonzero diagonal entry at \(0,0\)"):
        SkewForm(Matrix.from_rows(QQ, [[1, 0], [0, 0]]))


def test_congruence_2x2_base_case():
    a = QQ.elem(Fraction(7, 2))
    form = SkewForm(Matrix.from_rows(QQ, [[QQ.zero, a], [-a, QQ.zero]]))
    res = skew_congruence_reduce(form)
    assert res.rank == 2
    assert res.q == Matrix.from_rows(QQ, [[QQ.one, QQ.zero],
                                          [QQ.zero, a.inverse()]])
    assert res.q.transpose() * form.matrix * res.q == standard_j(QQ, 2, 2)


def test_congruence_zero_matrix():
    form = SkewForm(Matrix.zeros(QQ, 4, 4))
    res = skew_congruence_reduce(form)
    assert res.rank == 0
    assert res.q == Matrix.identity(QQ, 4)


def _planted_skew(field, n, rank, rng):
    j = standard_j(field, n, rank)
    p = _rand_invertible(field, n, rng)
    return SkewForm(p.transpose() * j * p)


GOLDEN = Path(__file__).parent / "golden"


def _congruence_golden_lines(field, seed):
    """One line per form: two seeded planted forms and standard_j for every
    n = 1..10 and every even rank, with the form and its reduction Q."""
    rng = random.Random(seed)
    lines = []
    for n in range(1, 11):
        for rank in range(0, n + 1, 2):
            forms = [_planted_skew(field, n, rank, rng) for _ in range(2)]
            forms.append(SkewForm(standard_j(field, n, rank)))
            for form in forms:
                res = skew_congruence_reduce(form)
                lines.append(f"n={n} rank={res.rank} A={form.matrix!r} Q={res.q!r}")
    return lines


@pytest.mark.parametrize("field, name, seed", [(QQ, "Q", 31), (F101, "Fp101", 32)])
def test_congruence_golden(field, name, seed):
    want = (GOLDEN / f"congruence_{name}.txt").read_text().splitlines()
    assert len(want) == 105
    assert _congruence_golden_lines(field, seed) == want


def test_congruence_planted_rank():
    rng = random.Random(5)
    for field in (QQ, F101):
        for _ in range(15):
            n = rng.randrange(2, 7)
            rank = 2 * rng.randrange(0, n // 2 + 1)
            form = _planted_skew(field, n, rank, rng)
            res = skew_congruence_reduce(form)
            assert res.rank == rank == form.matrix.rank()
            assert res.q.transpose() * form.matrix * res.q == standard_j(field, n, rank)
            assert not res.q.det().is_zero()


def _reference_congruence_reduce(form):
    """The congruence reduction with the plain rank-2 update: every row of A
    and Q updated, each entry through normalising add and mul.  The oracle for
    skew_congruence_reduce, whose update skips rows with a zero pivot pair and
    computes each other entry as one dot."""
    field = form.field
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    zero = field.zero.value
    n = form.dim
    m = _payload_rows(form.matrix, field)
    q = _payload_rows(Matrix.identity(field, n), field)
    offset = 0
    while offset < n - 1:
        piv = next(((i, j) for i in range(offset, n) for j in range(offset, n)
                    if not is_zero(m[i][j])), None)
        if piv is None:
            break
        i, j = piv
        for src, dst in ((i, offset), (j, offset + 1)):
            if src != dst:
                m[src], m[dst] = m[dst], m[src]
                for row in m + q:
                    row[src], row[dst] = row[dst], row[src]
        a = m[offset][offset + 1]
        if a != field.one.value:
            s = field.inv(a)
            m[offset + 1] = [mul(x, s) for x in m[offset + 1]]
            for row in m + q:
                row[offset + 1] = mul(row[offset + 1], s)
        rest = range(offset + 2, n)
        u0 = {c: m[offset + 1][c] for c in rest}
        u1 = {c: neg(m[offset][c]) for c in rest}
        for row in m + q:
            r0, r1 = row[offset], row[offset + 1]
            for c in rest:
                row[c] = add(row[c], add(mul(u0[c], r0), mul(u1[c], r1)))
        for c in rest:
            m[c][offset] = m[c][offset + 1] = zero
        offset += 2
    return _from_payloads(field, n, n, [x for row in q for x in row]), offset


def _without_rows(form, indices):
    """form with the rows and columns at indices set to zero: still skew."""
    m = form.matrix
    for i in indices:
        for j in range(form.dim):
            m = m.with_entry(i, j, 0).with_entry(j, i, 0)
    return SkewForm(m)


Q_SQRT_M2 = QuadExt(QQ, 2, 0)


@pytest.mark.parametrize("field", [QQ, F101, Q_SQRT_M2], ids=["Q", "F101", "Q(t)"])
def test_congruence_update_matches_the_add_mul_loop(field):
    rng = random.Random(15)

    def entry():
        if field is Q_SQRT_M2:
            return field.elem((rng.randint(-4, 4), rng.randint(-4, 4)))
        return rng.randint(-5, 5)

    def planted(n, rank):
        while True:
            p = Matrix.from_rows(field, [[entry() for _ in range(n)] for _ in range(n)])
            if not p.det().is_zero():
                return SkewForm(p.transpose() * standard_j(field, n, rank) * p)

    for n in range(2, 11):
        for rank in range(0, n + 1, 2):
            form = planted(n, rank)
            cut = _without_rows(form, rng.sample(range(n), rng.randint(1, n - 1)))
            for f in (form, cut, SkewForm(standard_j(field, n, rank))):
                res = skew_congruence_reduce(f)
                want_q, want_rank = _reference_congruence_reduce(f)
                assert res.q.payloads == want_q.payloads
                assert res.rank == want_rank == f.matrix.rank()
                assert res.q.transpose() * f.matrix * res.q == standard_j(field, n, res.rank)
                assert not res.q.det().is_zero()
