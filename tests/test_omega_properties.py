"""Property tests for the bracket identity: validate against a brute-force loop
over every ordered basis triple, recover_omega against validate, on arbitrary
brackets and skew forms, recover_omega against a reference that solves
the linear system the identity imposes on the form, and validate and the
cyclic sums, each coordinate one field dot, against the dense field-element
kernel that evaluates every triple."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from itertools import combinations, permutations

from omegalie.classify3 import (
    canonical_algebra,
    label_a,
    label_b,
    label_c,
    label_d,
)
from omegalie.fields import QQ, PrimeField, parse_descriptor
from omegalie.linalg import (
    Matrix,
    SkewForm,
    solve,
    standard_j,
)
from omegalie.omega import (
    GroupElement,
    OmegaAlgebra,
    StructureConstants,
    change_basis,
    recover_omega,
    validate,
)

F101 = PrimeField(101)
Q_SQRT2 = parse_descriptor("QuadExt:Q:-2,0")

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)
# ---------------------------------------------------------------------------
# the dense kernel on field elements, kept as an oracle for the payload one
# ---------------------------------------------------------------------------

def full_bracket_table(upper: dict, zero, n: int) -> list:
    """The n x n table whose entry [a][b] holds the coordinates of [e_a, e_b],
    built from its strictly upper half {(a, b): coordinates}: missing pairs
    are zero and the lower half is derived by sign."""
    zero_vec = (zero,) * n
    full = [[zero_vec] * n for _ in range(n)]
    for (a, b), vec in upper.items():
        full[a][b] = tuple(vec)
        full[b][a] = tuple(-v for v in vec)
    return full


def cyclic_bracket_sum(full: list, zero, i: int, j: int, k: int) -> list:
    """Coordinates of [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j],
    each double bracket expanded as [[e_a, e_b], e_c] = sum_m c_ab^m [e_m, e_c]."""
    out = [zero] * len(full)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, w in enumerate(full[a][b]):
            if w.is_zero():
                continue
            for t, v in enumerate(full[m][c]):
                if not v.is_zero():
                    out[t] = out[t] + w * v
    return out


def jacobi_defects(full: list, form, zero):
    """((i, j, k), defect) for every ordered triple of distinct basis indices,
    in lexicographic order: the cyclic bracket sum minus
    form(i, j) e_k + form(j, k) e_i + form(k, i) e_j, each triple evaluated
    on its own."""
    for triple in permutations(range(len(full)), 3):
        i, j, k = triple
        defect = cyclic_bracket_sum(full, zero, i, j, k)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            w = form(a, b)
            if not w.is_zero():
                defect[c] = defect[c] - w
        yield triple, tuple(defect)


def oracle_failures(alg):
    """The ordered triples the dense kernel finds violated, with residuals."""
    zero = alg.field.zero
    full = full_bracket_table(alg.sc.entries(), zero, alg.dim)
    return [(triple, res) for triple, res in jacobi_defects(full, alg.omega, zero)
            if any(not x.is_zero() for x in res)]


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
    except ValueError:
        # no form at all works, the drawn one included
        assert not validate(alg).ok
        return
    assert validate(OmegaAlgebra(alg.field, alg.sc, form)).ok
    assert validate(alg).ok == (form == alg.omega)


def reference_recover_omega(sc):
    """The form as the solution of the n*C(n,3) x C(n,2) linear system that the
    identity imposes on the unknown form values: one row per increasing triple
    and output coordinate, solved by Gauss-Jordan elimination."""
    n = sc.dim
    if n < 3:
        raise ValueError("no meaningful form below dimension 3")
    field = sc.field
    unknowns = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pair: t for t, pair in enumerate(unknowns)}

    def coeff_of(a, b):
        """(unknown index, sign) for omega(e_a, e_b)."""
        if a < b:
            return index[(a, b)], field.one
        return index[(b, a)], -field.one

    rows = []
    rhs = []
    full = full_bracket_table(sc.entries(), field.zero, n)
    for i, j, k in combinations(range(n), 3):
        jac = cyclic_bracket_sum(full, field.zero, i, j, k)
        for m in range(n):
            row = [field.zero] * len(unknowns)
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                if c == m:
                    t, sign = coeff_of(a, b)
                    row[t] = row[t] + sign
            rows.append(row)
            rhs.append(jac[m])
    try:
        sol = solve(Matrix.from_rows(field, rows), Matrix(field, len(rhs), 1, rhs))
    except ValueError as exc:
        if str(exc) == "no solution":
            raise ValueError("no compatible bilinear form exists") from None
        raise ValueError(f"underdetermined form system: {exc}") from None
    m = Matrix.zeros(field, n, n)
    for (i, j), t in index.items():
        m = m.with_entry(i, j, sol[t, 0]).with_entry(j, i, -sol[t, 0])
    return SkewForm(m)


DIFFERENTIAL = settings(max_examples=250, deadline=None, database=None, derandomize=True)
small = st.integers(min_value=-3, max_value=3)


@st.composite
def field_scalars(draw, field):
    """Small integers, and over the extension field also a multiple of t."""
    x = field.elem(draw(small))
    if field.depth and draw(st.booleans()):
        x = x + field.elem(draw(small)) * field.parse("[0,1]")
    return x


@st.composite
def consistent_algebras(draw, field):
    """An algebra satisfying the identity: a 3-dimensional canonical family,
    a point on either component of the 4-dimensional configuration variety,
    or a Heisenberg bracket plus an abelian summand (zero form) up to
    dimension 6."""
    kind = draw(st.sampled_from(("canonical", "configuration", "heisenberg")))
    zero, one = field.zero, field.one
    if kind == "canonical":
        label = draw(st.sampled_from((label_a(), label_b(), label_d(), None)))
        try:
            return canonical_algebra(label or label_c(draw(field_scalars(field))), field)
        except ValueError:  # a zero C parameter
            assume(False)
    if kind == "configuration":
        x3, x4, y1, y3, z3 = (draw(field_scalars(field)) for _ in range(5))
        if draw(st.booleans()):
            cols = ((zero, -z3, x3, -one), (y1, z3, y3, one), (zero, zero, z3, zero))
        else:
            cols = ((zero, x4 * z3, x3, x4), (zero, z3, zero, one), (zero, zero, z3, zero))
        table = {(0, 1): (zero, one, zero, zero), (1, 2): (zero, zero, one, zero),
                 (0, 3): cols[0], (1, 3): cols[1], (2, 3): cols[2]}
        return OmegaAlgebra(field, StructureConstants(field, 4, table),
                            SkewForm(standard_j(field, 4, 2)))
    n = draw(st.integers(min_value=3, max_value=6))
    table = {(0, 1): [zero, zero, one] + [zero] * (n - 3)}
    return OmegaAlgebra(field, StructureConstants(field, n, table),
                        SkewForm(Matrix.zeros(field, n, n)))


@st.composite
def differential_brackets(draw):
    """Brackets of dimension 2 to 6: random ones, sparse or dense, which are
    mostly inconsistent, and consistent ones moved by a random base change
    and, half the time, with one coefficient changed."""
    field = draw(st.sampled_from((QQ, PrimeField(7), F101, Q_SQRT2)))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=6))
        dense = draw(st.booleans())
        # sparse brackets often read a consistent form off the three pairs
        # of every triple and fail only on a coordinate outside the triple
        table = {}
        for pair in combinations(range(n), 2):
            if dense or draw(st.integers(0, 3)) == 0:
                table[pair] = [draw(field_scalars(field))
                               if dense or draw(st.integers(0, 2)) == 0 else field.zero
                               for _ in range(n)]
        return StructureConstants(field, n, table)
    alg = draw(consistent_algebras(field))
    n = alg.dim
    # unit lower times unit upper triangular: always invertible
    lower = [[field.one if i == j else draw(field_scalars(field)) if i > j else field.zero
              for j in range(n)] for i in range(n)]
    upper = [[field.one if i == j else draw(field_scalars(field)) if i < j else field.zero
              for j in range(n)] for i in range(n)]
    g = Matrix.from_rows(field, lower) * Matrix.from_rows(field, upper)
    sc = change_basis(GroupElement(g), alg).sc
    if draw(st.booleans()):
        table = {pair: list(sc.bracket(*pair)) for pair in combinations(range(n), 2)}
        pair = draw(st.sampled_from(sorted(table)))
        table[pair][draw(st.integers(0, n - 1))] += field.one
        sc = StructureConstants(field, n, table)
    return sc


def _outcome(fn, sc):
    try:
        return "form", fn(sc).matrix.payloads
    except ValueError as exc:
        return "refused", str(exc)


@DIFFERENTIAL
@given(differential_brackets())
def test_recover_omega_matches_the_linear_system(sc):
    assert _outcome(recover_omega, sc) == _outcome(reference_recover_omega, sc)


@st.composite
def sparse_algebras(draw):
    """Sparse brackets of dimension 3 to 6 over Q, F_101 and Q(sqrt -2), with
    half the time the form recover_omega reads off them (when one exists),
    else a sparse random skew form."""
    field = draw(st.sampled_from((QQ, F101, Q_SQRT2)))
    n = draw(st.integers(min_value=3, max_value=6))
    table = {}
    for pair in combinations(range(n), 2):
        if draw(st.integers(0, 2)) == 0:
            table[pair] = [draw(field_scalars(field)) if draw(st.integers(0, 3)) == 0
                           else field.zero for _ in range(n)]
    sc = StructureConstants(field, n, table)
    if draw(st.booleans()):
        try:
            return OmegaAlgebra(field, sc, recover_omega(sc))
        except ValueError:
            pass
    m = Matrix.zeros(field, n, n)
    for i, j in combinations(range(n), 2):
        if draw(st.integers(0, 3)) == 0:
            w = draw(field_scalars(field))
            m = m.with_entry(i, j, w).with_entry(j, i, -w)
    return OmegaAlgebra(field, sc, SkewForm(m))


@DIFFERENTIAL
@given(sparse_algebras())
def test_validate_matches_the_dense_kernel(alg):
    report = validate(alg)
    want = oracle_failures(alg)
    assert report.ok == (not want)
    assert len(report.failures) == len(want)
    for (triple, residual), (want_triple, want_residual) in zip(report.failures, want):
        assert triple == want_triple
        assert all(x.field == alg.field for x in residual)
        assert [x.encode() for x in residual] == [x.encode() for x in want_residual]
        assert residual == want_residual


@DIFFERENTIAL
@given(st.one_of(differential_brackets(), sparse_algebras().map(lambda alg: alg.sc)))
def test_cyclic_sums_match_the_dense_kernel(sc):
    n, zero = sc.dim, sc.field.zero
    full = full_bracket_table(sc.entries(), zero, n)
    sums = sc._payload_sums()
    assert list(sums) == sorted(sums)
    for triple in combinations(range(n), 3):
        want = cyclic_bracket_sum(full, zero, *triple)
        got = sums.get(triple, {})
        assert not any(map(sc.field.is_zero, got.values()))
        assert [got.get(t, zero.value) for t in range(n)] == [x.value for x in want]
