"""Property tests for the product kernel: each field's dot against a fold of
its own add and mul, and the bracket action of transform against its
definition [x, y] -> g[g^-1 x, g^-1 y], written out with plain loops."""

from fractions import Fraction
from functools import reduce

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, PrimeField, QuadExt
from omegalie.linalg import Matrix, SkewForm
from omegalie.omega import GroupElement, OmegaAlgebra, StructureConstants, transform

F101 = PrimeField(101)
F_MERSENNE = PrimeField(2 ** 61 - 1)
# the first two minimal polynomials have a nonzero linear term, so both terms
# of t^2 = -c1 t - c0 are used; t^2 = 2 has c1 = 0, so the reduction term that
# QuadExt.dot folds into its t part is zero there
Q_EXT = QuadExt(QQ, 1, 1)
F101_EXT = QuadExt(F101, 25, 1)
Q_SQRT_M2 = QuadExt(QQ, -2, 0)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

rationals = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 15)))


def residues(p):
    return st.one_of(st.just(0), st.integers(0, p - 1))


PAYLOADS = {
    "Q": (QQ, rationals),
    "F101": (F101, residues(101)),
    "F_2^61-1": (F_MERSENNE, residues(2 ** 61 - 1)),
    "Q(t)": (Q_EXT, st.tuples(rationals, rationals)),
    "F101(t)": (F101_EXT, st.tuples(residues(101), residues(101))),
    "QuadExt:Q:-2,0": (Q_SQRT_M2, st.tuples(rationals, rationals)),
}


@pytest.mark.parametrize("name", sorted(PAYLOADS))
@PROPERTY
@given(data=st.data())
def test_dot_matches_fold_of_add_and_mul(name, data):
    field, payloads = PAYLOADS[name]
    n = data.draw(st.integers(0, 10))
    xs = data.draw(st.lists(payloads, min_size=n, max_size=n))
    ys = data.draw(st.lists(payloads, min_size=n, max_size=n))
    want = reduce(field.add, map(field.mul, xs, ys), field.zero.value)
    got = field.dot(xs, ys)
    assert got == want
    assert type(got) is type(want)


small = st.integers(-3, 3)
ACTION_FIELDS = {
    "Q": (QQ, small),
    "F101": (F101, small),
    "F101(t)": (F101_EXT, st.tuples(small, small)),
}


@pytest.mark.parametrize("name", sorted(ACTION_FIELDS))
@PROPERTY
@given(data=st.data())
def test_transform_is_the_moved_bracket(name, data):
    field, scalars = ACTION_FIELDS[name]
    n = data.draw(st.integers(3, 5))

    def draw_matrix():
        return Matrix.from_rows(field, [[data.draw(scalars) for _ in range(n)]
                                        for _ in range(n)])
    g = draw_matrix()
    assume(not g.det().is_zero())
    table = {(i, j): [data.draw(scalars) for _ in range(n)]
             for i in range(n) for j in range(i + 1, n)}
    upper = {(i, j): data.draw(scalars) for i in range(n) for j in range(i + 1, n)}
    rows = [[upper[i, j] if i < j else -field.elem(upper[j, i]) if j < i else 0
             for j in range(n)] for i in range(n)]
    alg = OmegaAlgebra(field, StructureConstants(field, n, table),
                       SkewForm(Matrix.from_rows(field, rows)))

    moved = transform(GroupElement(g), alg)

    gi = g.inverse()
    zero = field.zero
    for i in range(n):
        for j in range(i + 1, n):
            # [g^-1 e_i, g^-1 e_j] by bilinearity over every basis pair
            inner = [zero] * n
            for a in range(n):
                for b in range(n):
                    coeff = gi[a, i] * gi[b, j]
                    for k, c in enumerate(alg.sc.bracket(a, b)):
                        inner[k] = inner[k] + coeff * c
            want = []
            for r in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + g[r, k] * inner[k]
                want.append(acc)
            assert moved.sc.bracket(i, j) == tuple(want)
    assert moved.omega == alg.omega
