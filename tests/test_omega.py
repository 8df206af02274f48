import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from omegalie.fields import QQ, PrimeField, QuadExt
from omegalie.linalg import Matrix, SkewForm, standard_j
from omegalie.omega import (
    GroupElement,
    OmegaAlgebra,
    StructureConstants,
    algebra_from_json,
    algebra_to_json,
    change_basis,
    derived_dimension,
    in_stabilizer,
    recover_omega,
    transform,
    validate,
)

F101 = PrimeField(101)


def canonical_omega(field, n=3):
    return SkewForm(standard_j(field, n, 2))


def make_algebra(field, brackets, omega=None):
    """brackets: {(i,j): coefficient list} with i<j, 0-indexed."""
    sc = StructureConstants(field, 3, brackets)
    return OmegaAlgebra(field, sc, omega or canonical_omega(field))


def algebra_d(field=QQ):
    # [x,y]=y, [x,z]=0, [y,z]=z
    return make_algebra(field, {(0, 1): [0, 1, 0], (1, 2): [0, 0, 1]})


def algebra_c(field, alpha):
    # [x,y]=z, [x,z]=alpha x, [y,z]=-(alpha+1) y
    a = alpha if not isinstance(alpha, int) else field.elem(alpha)
    return make_algebra(field, {
        (0, 1): [field.zero, field.zero, field.one],
        (0, 2): [a, field.zero, field.zero],
        (1, 2): [field.zero, -(a + 1), field.zero],
    })


def zero_form(field=QQ, n=3):
    return SkewForm(Matrix.zeros(field, n, n))


def heisenberg(field=QQ):
    return make_algebra(field, {(0, 1): [0, 0, 1]}, omega=zero_form(field))


def abelian(field=QQ):
    return make_algebra(field, {}, omega=zero_form(field))


def random_g_omega(field, rng, n=3):
    """Random block element: SL2 block, translation row, nonzero scalar."""
    while True:
        s = [field.elem(rng.randint(-5, 5) if field is QQ else rng.randrange(field.p))
             for _ in range(3)]
        s1, s2, s3 = s
        if not s1.is_zero():
            s4 = (field.one + s2 * s3) / s1
            break
    t1, t2 = (field.elem(rng.randint(-5, 5) if field is QQ else rng.randrange(field.p))
              for _ in range(2))
    while True:
        d = field.elem(rng.randint(-5, 5) if field is QQ else rng.randrange(field.p))
        if not d.is_zero():
            break
    m = Matrix.from_rows(field, [[s1, s3, field.zero],
                                 [s2, s4, field.zero],
                                 [t1, t2, d]])
    return GroupElement(m)


def test_jacobi_residual_on_d_vanishes():
    report = validate(algebra_d())
    assert report.ok
    assert report.failures == [] and report.messages == []


def test_jacobi_residual_abelian_zero_form():
    assert validate(abelian()).failures == []
    assert recover_omega(abelian().sc).is_zero()


def test_jacobi_residual_detects_missing_form():
    # the C_1 bracket with the zero form: the z-term of the identity is missing
    alg = algebra_c(QQ, 1)
    report = validate(OmegaAlgebra(QQ, alg.sc, zero_form()))
    assert not report.ok
    # every ordered triple of distinct indices fails, with its permutation's sign
    signs = [1, -1, -1, 1, 1, -1]
    assert report.failures == [
        (t, (QQ.zero, QQ.zero, QQ.elem(s)))
        for t, s in zip([(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)],
                        signs)]
    assert not recover_omega(alg.sc).is_zero()


def test_validate_canonical_families():
    for field in (QQ, F101):
        assert validate(algebra_d(field)).ok
        for alpha in (1, 2, -1, 7):
            assert validate(algebra_c(field, alpha)).ok


def test_validate_flags_wrong_form_value():
    field = QQ
    wrong = Matrix.zeros(field, 3, 3)
    wrong = wrong.with_entry(0, 1, field.elem(2)).with_entry(1, 0, field.elem(-2))
    alg = OmegaAlgebra(field, algebra_d().sc, SkewForm(wrong))
    report = validate(alg)
    assert not report.ok
    assert ((0, 1, 2), (QQ.zero, QQ.zero, QQ.elem(-1))) in report.failures


def test_validate_classical_lie_with_zero_form():
    assert validate(heisenberg()).ok
    assert validate(abelian()).ok


def test_recover_omega_on_d():
    form = recover_omega(algebra_d().sc)
    assert form == canonical_omega(QQ)


def test_recover_omega_heisenberg_zero():
    assert recover_omega(heisenberg().sc).is_zero()
    assert recover_omega(abelian().sc).is_zero()


def test_recover_omega_dimension_guard():
    sc = StructureConstants(QQ, 2, {})
    with pytest.raises(ValueError, match="no meaningful form below dimension 3"):
        recover_omega(sc)


def test_non_lie_iff_nonzero_form():
    rng = random.Random(31)
    for _ in range(40):
        g = random_g_omega(F101, rng)
        alg = transform(g, algebra_c(F101, rng.randrange(1, 100)))
        assert validate(alg).ok
        assert not validate(OmegaAlgebra(F101, alg.sc, zero_form(F101))).ok
        assert not recover_omega(alg.sc).is_zero()
    assert validate(OmegaAlgebra(QQ, heisenberg().sc, zero_form())).ok
    assert recover_omega(heisenberg().sc).is_zero()


def test_structure_constants_refuse_elements_of_another_field():
    with pytest.raises(ValueError, match=r"bracket \(0,1\): mixed fields: Q and F_101"):
        StructureConstants(QQ, 3, {(0, 1): (F101.zero, F101.zero, F101.one)})
    with pytest.raises(ValueError, match=r"bracket \(1,2\): mixed fields: F_101 and Q"):
        StructureConstants(F101, 3, {(0, 1): (0, 0, 1), (1, 2): (QQ.one, 0, 0)})
    # ints and Fractions are still coerced into the field
    sc = StructureConstants(F101, 3, {(0, 1): (0, Fraction(1, 2), 1)})
    assert sc.bracket(0, 1) == (F101.zero, F101.elem(51), F101.one)


class CountingField(PrimeField):
    """F_101 that counts its is_zero calls."""

    calls = 0

    def is_zero(self, a):
        self.calls += 1
        return a == 0


def _single_bracket(field, n):
    """[e_0, e_1] = e_{n-1} and nothing else, with the zero form."""
    sc = StructureConstants(field, n, {(0, 1): [0] * (n - 1) + [1]})
    return OmegaAlgebra(field, sc, SkewForm(Matrix.zeros(field, n, n)))


def test_identity_work_stays_below_n_per_increasing_triple():
    # counts rather than times: evaluating all n(n-1)(n-2) ordered triples,
    # each as a dense n-vector, needs far more than 2 n C(n,3) zero tests
    n = 24
    budget = 2 * n * comb(n, 3)
    field = CountingField(101)
    alg = _single_bracket(field, n)
    field.calls = 0
    assert validate(alg).ok
    assert field.calls <= budget
    alg = _single_bracket(field, n)  # a fresh bracket, so nothing is reused
    field.calls = 0
    assert recover_omega(alg.sc).is_zero()
    assert field.calls <= budget


def test_validate_reads_only_the_stored_pairs():
    # counts rather than times: an antisymmetry check over every pair reads
    # both n-vectors of each, about n^3 zero tests; over the stored pairs
    # validate stays within a few n^2
    n = 160
    field = CountingField(101)
    alg = _single_bracket(field, n)
    field.calls = 0
    assert validate(alg).ok
    assert field.calls <= 3 * n * n


def _count_combinations(monkeypatch) -> list:
    """Count, in the returned one-item list, the tuples omega's combinations
    yields from now on."""
    enumerated = [0]

    def counting_combinations(items, r):
        for combo in combinations(items, r):
            enumerated[0] += 1
            yield combo

    monkeypatch.setattr("omegalie.omega.combinations", counting_combinations)
    return enumerated


def test_recover_omega_enumerates_no_triples(monkeypatch):
    # the form is read off the stored sums and checked by identity_defects;
    # a walk over every triple would enumerate C(160, 3) = 669,920 of them
    n = 160
    alg = _single_bracket(F101, n)
    alg.sc._payload_sums()
    enumerated = _count_combinations(monkeypatch)
    assert recover_omega(alg.sc).is_zero()
    assert enumerated[0] <= n * n


def test_validate_enumerates_only_the_triples_through_pairs(monkeypatch):
    # [e_0, e_1] = e_{n-2} has no nonzero cyclic sum, and the one-pair form
    # w(e_3, e_4) = 1 breaks the identity on the n - 2 triples through (3, 4)
    # only; walking every triple for the sums and again for the defects
    # would enumerate 2 C(160, 3) = 1,339,840 of them
    n = 160
    sc = StructureConstants(F101, n, {(0, 1): [0] * (n - 2) + [1, 0]})
    form = SkewForm(Matrix.zeros(F101, n, n).with_entry(3, 4, 1).with_entry(4, 3, -1))
    enumerated = _count_combinations(monkeypatch)
    report = validate(OmegaAlgebra(F101, sc, form))
    assert enumerated[0] <= n * n
    assert not report.ok
    assert len(report.failures) == 6 * (n - 2)
    assert {frozenset(triple) - {3, 4} for triple, _ in report.failures} == \
        {frozenset([c]) for c in range(n) if c not in (3, 4)}


def test_embed_into_its_own_field_is_the_algebra():
    for field in (QQ, F101):
        alg = algebra_d(field)
        assert alg.embed(field) is alg
    embedded = algebra_d().embed(QuadExt(QQ, -2, 0))
    assert embedded.embed(embedded.field) is embedded


def test_transform_identity():
    alg = algebra_d()
    assert transform(GroupElement.identity(QQ, 3), alg) == alg


def test_transform_z_scaling_normalizes_a3():
    field = QQ
    a3 = field.elem(Fraction(5, 3))
    alg = make_algebra(field, {
        (0, 1): [field.elem(2), field.elem(-1), a3],
        (0, 2): [field.zero, field.zero, field.zero],
        (1, 2): [field.zero, field.zero, field.zero],
    })
    g = GroupElement(Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0],
                                              [0, 0, a3.inverse()]]))
    moved = transform(g, alg)
    assert moved.sc.bracket(0, 1) == (field.elem(2), field.elem(-1), field.one)


def test_transform_action_law():
    rng = random.Random(37)
    base = algebra_c(F101, 3)
    for _ in range(60):
        g = random_g_omega(F101, rng)
        h = random_g_omega(F101, rng)
        lhs = transform(g.compose(h), base)
        rhs = transform(g, transform(h, base))
        assert lhs == rhs


def test_transform_preserves_validity():
    rng = random.Random(41)
    for _ in range(20):
        g = random_g_omega(F101, rng)
        moved = transform(g, algebra_d(F101))
        assert validate(moved).ok


def test_change_basis_moves_form():
    rng = random.Random(43)
    alg = algebra_d()
    m = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    g = GroupElement(m)
    moved = change_basis(g, alg)
    assert validate(moved).ok
    gi = g.inverse_matrix
    assert moved.omega.matrix == gi.transpose() * alg.omega.matrix * gi


def test_in_stabilizer_g_and_h():
    # g scales the radical of the form and stays in its stabilizer; h scales
    # one side of the rank-2 block and leaves it
    field = QQ
    omega = canonical_omega(field)
    g = GroupElement(Matrix.from_rows(field, [[1, 0, 0], [0, 1, 0], [0, 0, 7]]))
    h = GroupElement(Matrix.from_rows(field, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert in_stabilizer(g, omega)
    assert not in_stabilizer(h, omega)
    assert in_stabilizer(GroupElement.identity(field, 3), omega)
    with pytest.raises(ValueError):
        in_stabilizer(GroupElement.identity(field, 2), omega)


def test_in_stabilizer_n_shape():
    field = QQ
    omega = canonical_omega(field)
    s, t = field.elem(2), field.elem(5)
    ginv = Matrix.from_rows(field, [[1, 0, 0], [s, 1, 0], [t, s, 1]])
    g = GroupElement(ginv).inverse()
    assert in_stabilizer(g, omega)


def test_derived_dimension_values():
    assert derived_dimension(algebra_d().sc) == 2
    assert derived_dimension(abelian().sc) == 0
    a_brackets = {
        (0, 1): [QQ.one, QQ.one, QQ.zero],   # [x,y] = x + y
        (0, 2): [QQ.zero, QQ.one, QQ.zero],  # [x,z] = y
        (1, 2): [QQ.zero, QQ.zero, QQ.one],  # [y,z] = z
    }
    assert derived_dimension(make_algebra(QQ, a_brackets).sc) == 3


def test_derived_dimension_invariant_under_transform():
    rng = random.Random(47)
    for _ in range(20):
        g = random_g_omega(F101, rng)
        alg = algebra_d(F101)
        assert derived_dimension(transform(g, alg).sc) == 2


def test_recover_matches_declared_form_randomized():
    rng = random.Random(53)
    for _ in range(30):
        g = random_g_omega(F101, rng)
        alg = transform(g, algebra_c(F101, rng.randrange(1, 100)))
        assert recover_omega(alg.sc) == alg.omega


def test_algebra_json_roundtrip():
    for alg in (algebra_d(), algebra_c(F101, 5), heisenberg()):
        text = algebra_to_json(alg)
        again = algebra_from_json(text)
        assert again == alg


def test_algebra_json_rejects_bad_input():
    good = algebra_to_json(algebra_d())
    with pytest.raises(ValueError):
        algebra_from_json(good.replace('"0,1"', '"1,0"'))
    with pytest.raises(ValueError):
        algebra_from_json("{not json")
    import json as _json
    payload = _json.loads(good)
    payload["omega"][0][0] = "1"  # nonzero diagonal entry breaks skewness
    with pytest.raises(Exception):
        algebra_from_json(_json.dumps(payload))


@pytest.mark.parametrize("old, new, key", [
    ('"dim": 3,', '"dim": 3, "dim": 4,', "dim"),
    ('"0,1": [', '"0,1": ["0", "0", "1"], "0,1": [', "0,1"),
], ids=["top-level", "brackets"])
def test_algebra_json_refuses_a_repeated_key(old, new, key):
    # json.loads alone would keep the last value and accept the file
    text = algebra_to_json(algebra_d())
    assert text.count(old) == 1
    with pytest.raises(ValueError, match=re.escape(f"the key {key!r} is repeated")):
        algebra_from_json(text.replace(old, new))


@pytest.mark.parametrize("edit, message", [
    (lambda p: [p], "must be a JSON object"),
    (lambda p: {**p, "field": 101}, "'field' must be a descriptor string"),
    (lambda p: {**p, "dim": 3.0}, "'dim' must be an integer"),
    (lambda p: {**p, "dim": True}, "'dim' must be an integer"),
    (lambda p: {**p, "dim": "3"}, "'dim' must be an integer"),
    (lambda p: {**p, "omega": "0"}, "'omega' must be a 3x3 matrix"),
    (lambda p: {**p, "omega": ["000"] * 3}, "'omega' must be a 3x3 matrix"),
    (lambda p: {**p, "brackets": {"0,1": "001"}}, "bracket '0,1' needs 3 coefficients"),
    (lambda p: {**p, "brackets": {"0,1": ["0", None, "1"]}}, "None is not a string"),
    (lambda p: {**p, "brackets": {"0,1": ["0", "1/0", "1"]}}, "'1/0' divides by zero"),
    (lambda p: {**p, "brackets": {"0-1": ["0", "0", "1"]}},
     "bracket key '0-1' is not of the form 'i,j'"),
])
def test_algebra_json_rejects_wrong_types(edit, message):
    import json as _json
    payload = _json.loads(algebra_to_json(algebra_d()))
    with pytest.raises(ValueError, match=re.escape(message)):
        algebra_from_json(_json.dumps(edit(payload)))
