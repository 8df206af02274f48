import random
from fractions import Fraction
from pathlib import Path

import pytest

from omegalie import classify3, linalg
from omegalie.fields import QQ, ExtensionDepthExceeded, ExtensionRequired, PrimeField, QuadExt
from omegalie.linalg import Matrix, SkewForm, standard_j
from omegalie.classify3 import (
    CanonicalLabel,
    NonIsomorphic,
    NotClassifiable,
    c_pair_audit,
    c_pair_representative,
    c_pair_swap,
    canonical_algebra,
    classify,
    iso_witness,
    label_a,
    label_b,
    label_c,
    label_d,
    random_nonzero,
    random_stabilizer_element,
    verify_classification,
)
from omegalie.omega import (
    GroupElement,
    OmegaAlgebra,
    StructureConstants,
    change_basis,
    derived_dimension,
    in_stabilizer,
    transform,
    validate,
)

F101 = PrimeField(101)


def mk(field, table, omega=None):
    sc = StructureConstants(field, 3, table)
    return OmegaAlgebra(field, sc, omega or SkewForm(standard_j(field, 3, 2)))


def test_canonical_algebras_validate():
    for field in (QQ, F101):
        for label in (label_a(), label_b(), label_d(),
                      label_c(field.elem(1)), label_c(-field.one / 2)):
            assert validate(canonical_algebra(label, field)).ok


def test_canonical_d_brackets():
    alg = canonical_algebra(label_d(), QQ)
    assert alg.sc.bracket(0, 1) == (QQ.zero, QQ.one, QQ.zero)
    assert alg.sc.bracket(0, 2) == (QQ.zero, QQ.zero, QQ.zero)
    assert alg.sc.bracket(1, 2) == (QQ.zero, QQ.zero, QQ.one)


def test_canonical_c_half_brackets():
    half = QQ.elem(Fraction(-1, 2))
    alg = canonical_algebra(label_c(half), QQ)
    assert alg.sc.bracket(0, 1) == (QQ.zero, QQ.zero, QQ.one)
    assert alg.sc.bracket(0, 2) == (half, QQ.zero, QQ.zero)
    assert alg.sc.bracket(1, 2) == (QQ.zero, half, QQ.zero)


def test_invalid_alpha():
    with pytest.raises(ValueError, match="the C family needs a nonzero parameter"):
        label_c(QQ.zero)
    with pytest.raises(ValueError, match="family A takes no parameter"):
        CanonicalLabel("A", QQ.one)


def test_pair_representative_basics():
    half = QQ.elem(Fraction(-1, 2))
    assert c_pair_representative(half) == half
    assert c_pair_representative(QQ.elem(-1)) == QQ.elem(-1)  # pair {-1, 0}
    r = c_pair_representative(QQ.elem(3))
    assert r == c_pair_representative(QQ.elem(-4))
    assert r in (QQ.elem(3), QQ.elem(-4))


def test_pair_representative_randomized_involution():
    rng = random.Random(71)
    for field in (QQ, F101):
        for _ in range(100):
            alpha = random_nonzero(field, rng)
            rep = c_pair_representative(alpha)
            other = -(alpha + 1)
            assert rep in (alpha, other)
            if not other.is_zero():
                assert c_pair_representative(other) == rep


def test_classify_rejects_bad_inputs():
    # bracket violating the identity
    bad = mk(QQ, {(0, 1): [0, 0, 1]})
    with pytest.raises(NotClassifiable, match="6 basis triples violate the bracket identity"):
        classify(bad)
    # classical bracket with the zero form
    heis = OmegaAlgebra(QQ, StructureConstants(QQ, 3, {(0, 1): [0, 0, 1]}),
                        SkewForm(Matrix.zeros(QQ, 3, 3)))
    with pytest.raises(NotClassifiable, match="the bilinear form vanishes"):
        classify(heis)


def test_canonical_inputs_get_identity_witness():
    for field in (QQ, F101):
        for label in (label_a(), label_b(), label_d(), label_c(-field.one)):
            res = classify(canonical_algebra(label, field))
            assert res.label == label
            assert res.witness == GroupElement.identity(field, 3)
            assert res.trace == ()


def test_c_input_lands_on_pair_representative():
    res = classify(canonical_algebra(label_c(QQ.elem(2)), QQ))
    assert res.label == label_c(c_pair_representative(QQ.elem(2)))
    target = canonical_algebra(res.label, QQ)
    src = canonical_algebra(label_c(QQ.elem(2)), QQ)
    assert change_basis(res.witness, src) == target


def test_strict_labels_keep_the_computed_root():
    src = transform(c_pair_swap(QQ), canonical_algebra(label_c(QQ.elem(2)), QQ))
    loose = classify(src)
    strict = classify(src, strict_c_labels=True)
    assert loose.label.alpha == c_pair_representative(strict.label.alpha)
    # both witnesses verify against their own label
    for res in (loose, strict):
        assert change_basis(res.witness, src) == canonical_algebra(res.label, QQ)


@pytest.mark.parametrize("field, k", [(QQ, 3), (F101, 97)], ids=["Q", "F101"])
def test_strict_labels_keep_the_parameter_of_a_canonical_c_input(field, k):
    # k is not its pair representative (-4 over Q, 3 over F_101), so only the
    # loose label moves the canonical input
    alpha = field.elem(k)
    src = canonical_algebra(label_c(alpha), field)
    strict = classify(src, strict_c_labels=True)
    assert strict.label == label_c(alpha)
    assert strict.witness == GroupElement.identity(field, 3)
    assert strict.trace == ()
    loose = classify(src)
    assert loose.label == label_c(c_pair_representative(alpha)) != strict.label
    assert [tag for tag, _ in loose.trace] == ["c-pair-swap"]


def test_reduced_negative_parameter_shape():
    alg = mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [-1, 0, 0]})
    res = classify(alg)
    assert res.label == label_c(QQ.elem(-1))


def test_reentry_from_zero_z_component():
    g = GroupElement(Matrix.from_rows(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    alg = transform(g, canonical_algebra(label_d(), QQ))
    assert alg.sc.bracket(0, 1)[2].is_zero()
    res = classify(alg)
    assert res.label == label_d()
    assert res.trace[0][0] == "reenter-translation"


def test_degenerate_family_with_scalar_second_column():
    # [x,y] = a1 x + a2 y + a3 z, [x,z] = b3 z, [y,z] = 0 with a1 b3 = 1
    alg = mk(QQ, {(0, 1): [2, 7, 5], (0, 2): [0, 0, Fraction(1, 2)]})
    assert validate(alg).ok
    res = classify(alg)
    assert res.label == label_d()


def replay_trace(result, alg):
    """Feed the case trace back through the action, step by step."""
    work = alg.embed(result.field)
    for _, g in result.trace:
        work = change_basis(g, work)
    return work


def test_trace_replay_reaches_canonical():
    rng = random.Random(73)
    for _ in range(10):
        g = random_stabilizer_element(F101, rng)
        label = label_c(random_nonzero(F101, rng))
        moved = transform(g, canonical_algebra(label, F101))
        res = classify(moved)
        assert replay_trace(res, moved) == canonical_algebra(res.label, res.field)


def test_extension_refusal_carries_minpoly():
    alg = mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [-1, -1, 0]})
    with pytest.raises(ExtensionRequired) as exc:
        classify(alg)
    c0, c1 = exc.value.minpoly
    assert (c0, c1) == (QQ.one, QQ.one)  # t^2 + t + 1


def test_extension_classification_eigenvalues():
    alg = mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [-1, -1, 0]})
    res = classify(alg, allow_extension=True)
    assert res.label.kind == "C"
    assert res.extension == (QQ.one, QQ.one)
    ext = res.field
    assert change_basis(res.witness, alg.embed(ext)) == canonical_algebra(res.label, ext)


def test_extension_classification_jordan():
    half = Fraction(-1, 2)
    alg = mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [half, 0, 0], (1, 2): [2, half, 0]})
    with pytest.raises(ExtensionRequired) as info:
        classify(alg)
    assert info.value.minpoly == (QQ.elem(-2), QQ.zero)
    res = classify(alg, allow_extension=True)
    assert res.label == label_b()
    assert res.extension is not None
    assert change_basis(res.witness, alg.embed(res.field)) \
        == canonical_algebra(label_b(), res.field)


@pytest.mark.parametrize("c1, minpoly", [(2, (3, 0)), (3, (2, 0))])
def test_jordan_refusal_over_f5_names_the_scaling_root(c1, minpoly):
    # -1/2 = 2 in F_5: [x,z] = 2x, [y,z] = c1 x + 2y is a Jordan block whose
    # scaling root is not in F_5
    f5 = PrimeField(5)
    alg = mk(f5, {(0, 1): [0, 0, 1], (0, 2): [2, 0, 0], (1, 2): [c1, 2, 0]})
    with pytest.raises(ExtensionRequired) as info:
        classify(alg)
    assert type(info.value) is ExtensionRequired
    assert info.value.minpoly == tuple(f5.elem(c) for c in minpoly)
    res = classify(alg, allow_extension=True)
    assert res.label == label_b() and res.extension == info.value.minpoly


SQRT2 = QuadExt(QQ, -2, 0)


def _eigen_example():
    """The adjoint eigenvalues need t^2 + t + 1 over Q: label C."""
    return mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [-1, -1, 0]})


def _jordan_example(square):
    """The Jordan block whose scaling root needs t^2 - square over Q: label B."""
    half = Fraction(-1, 2)
    return mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [half, 0, 0], (1, 2): [square, half, 0]})


def test_a_square_with_a_t_part_is_split_over_the_extension():
    # 1 - 4 delta = 3 + 2 sqrt 2 = (1 + sqrt 2)^2 splits in Q(sqrt 2)
    alg = mk(SQRT2, {(0, 1): [0, 0, 1], (0, 2): [0, SQRT2.elem((Fraction(1, 2), Fraction(1, 2))), 0],
                     (1, 2): [1, -1, 0]})
    for allow in (False, True):
        res = classify(alg, allow_extension=allow)
        assert str(res.label) == "C:[-1,-1/2]"
        assert res.field == SQRT2 and res.extension is None
        assert change_basis(res.witness, alg) == canonical_algebra(res.label, SQRT2)
        assert isinstance(iso_witness(alg, alg, allow_extension=allow), GroupElement)


def test_a_non_square_with_a_t_part_names_t2_plus_t_plus_delta():
    delta = SQRT2.elem((Fraction(-1, 2), -1))  # 1 - 4 delta = 3 + 4 sqrt 2, norm -23
    alg = mk(SQRT2, {(0, 1): [0, 0, 1], (0, 2): [0, -delta, 0], (1, 2): [1, -1, 0]})
    for allow in (False, True):
        with pytest.raises(ExtensionDepthExceeded) as info:
            classify(alg, allow_extension=allow)
        assert info.value.minpoly == (delta, SQRT2.one)


@pytest.mark.parametrize("want", ["A", "B"], ids=["A-over-sqrt2", "B-needing-sqrt2"])
def test_iso_tells_apart_algebras_that_need_different_extensions(want):
    c = _eigen_example()
    other = canonical_algebra(label_a(), SQRT2) if want == "A" else _jordan_example(2)
    for left, right in ((c, other), (other, c)):
        out = iso_witness(left, right, allow_extension=True)
        assert isinstance(out, NonIsomorphic)
        assert out.reason == "different canonical families"
        assert {str(out.label1), str(out.label2)} == {"C:[-1,-1]", want}
        # without the flag each is classified over its own field, so the
        # refusal asks for a first extension, never a second one
        with pytest.raises(ExtensionRequired) as info:
            iso_witness(left, right)
        assert not isinstance(info.value, ExtensionDepthExceeded)
        if want == "A":
            assert [c.encode() for c in info.value.minpoly] == ["1", "1"]


def test_iso_still_refuses_equal_labels_over_different_extensions():
    b2, b3 = _jordan_example(2), _jordan_example(3)
    assert classify(b2, allow_extension=True).label == classify(b3, allow_extension=True).label
    for left, right in ((b2, b3), (b3, b2)):
        with pytest.raises(ExtensionDepthExceeded):
            iso_witness(left, right, allow_extension=True)


def test_noncanonical_form_is_normalized_first():
    m = Matrix.from_rows(QQ, [[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    alg = change_basis(GroupElement(m), canonical_algebra(label_d(), QQ))
    assert alg.omega.matrix != standard_j(QQ, 3, 2)
    res = classify(alg)
    assert res.label == label_d()
    assert res.trace[0][0] == "form-normalize"
    assert change_basis(res.witness, alg) == canonical_algebra(label_d(), QQ)


def test_orbit_roundtrip_randomized():
    rng = random.Random(79)
    labels = [label_a(), label_b(), label_d()]
    for field, count in ((F101, 60), (QQ, 15)):
        for _ in range(count):
            label = (rng.choice(labels) if rng.random() < 0.5
                     else label_c(random_nonzero(field, rng)))
            g = random_stabilizer_element(field, rng)
            moved = transform(g, canonical_algebra(label, field))
            res = classify(moved)
            if label.kind == "C":
                assert res.label == label_c(c_pair_representative(label.alpha))
            else:
                assert res.label == label
            assert change_basis(res.witness, moved) \
                == canonical_algebra(res.label, field)
            assert in_stabilizer(res.witness, moved.omega)


def test_iso_witness_identity_on_same_algebra():
    alg = canonical_algebra(label_b(), QQ)
    w = iso_witness(alg, alg)
    assert not isinstance(w, NonIsomorphic)
    assert change_basis(w, alg) == alg


def test_iso_witness_pairs_and_separation():
    a = canonical_algebra(label_a(), QQ)
    b = canonical_algebra(label_b(), QQ)
    d = canonical_algebra(label_d(), QQ)
    c3 = canonical_algebra(label_c(QQ.elem(3)), QQ)
    cm4 = canonical_algebra(label_c(QQ.elem(-4)), QQ)
    c5 = canonical_algebra(label_c(QQ.elem(5)), QQ)
    w = iso_witness(c3, cm4)
    assert isinstance(w, GroupElement)
    assert change_basis(w, c3) == cm4
    for left, right in ((a, b), (a, d), (b, d), (c3, c5), (b, c3), (a, c3)):
        assert isinstance(iso_witness(left, right), NonIsomorphic)
    out = iso_witness(d, canonical_algebra(label_c(-QQ.one), QQ))
    assert isinstance(out, NonIsomorphic)  # both have derived dimension 2


def test_iso_witness_across_orbits():
    rng = random.Random(83)
    for _ in range(10):
        alpha = random_nonzero(F101, rng)
        g1 = random_stabilizer_element(F101, rng)
        g2 = random_stabilizer_element(F101, rng)
        a1 = transform(g1, canonical_algebra(label_c(alpha), F101))
        a2 = transform(g2, canonical_algebra(label_c(-(alpha + 1)), F101))
        w = iso_witness(a1, a2)
        assert isinstance(w, GroupElement)
        assert change_basis(w, a1) == a2


def test_iso_witness_with_extension():
    base = mk(QQ, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [-1, -1, 0]})
    rng = random.Random(89)
    g = random_stabilizer_element(QQ, rng)
    other = transform(g, base)
    with pytest.raises(ExtensionRequired):
        iso_witness(base, other)
    w = iso_witness(base, other, allow_extension=True)
    assert isinstance(w, GroupElement)
    ext = w.matrix.field
    assert change_basis(w, base.embed(ext)) == other.embed(ext)


def test_c_pair_swap_is_the_documented_map():
    swap = c_pair_swap(QQ)
    # columns: x -> y, y -> -x, z -> z
    assert swap.matrix.col(0) == (QQ.zero, QQ.one, QQ.zero)
    assert swap.matrix.col(1) == (-QQ.one, QQ.zero, QQ.zero)
    assert swap.matrix.col(2) == (QQ.zero, QQ.zero, QQ.one)
    assert in_stabilizer(swap, SkewForm(standard_j(QQ, 3, 2)))


def test_c_pair_audit_both_fields():
    for field in (QQ, F101):
        report = c_pair_audit(field)
        assert report.ok, report.render()
        assert report.notes  # the pair-collapse caveat is flagged


def test_derived_dimension_separation_values():
    for field in (QQ, F101):
        assert derived_dimension(canonical_algebra(label_d(), field).sc) == 2
        assert derived_dimension(
            canonical_algebra(label_c(-field.one), field).sc) == 2
        for label in (label_a(), label_b(), label_c(field.elem(2))):
            assert derived_dimension(canonical_algebra(label, field).sc) == 3


def test_verify_classification_suites():
    for field in (QQ, F101):
        report = verify_classification(field)
        assert report.ok, report.render()


def test_suites_over_an_extension_of_f3():
    # the suites' random scalars over F_3(t) come from F_3 itself: a fraction
    # with denominator 3 has no image there
    field = QuadExt(PrimeField(3), 1, 0)
    for suite in (verify_classification, c_pair_audit):
        report = suite(field)
        assert report.ok, report.render()


def test_classification_result_serialization():
    rng = random.Random(97)
    g = random_stabilizer_element(F101, rng)
    moved = transform(g, canonical_algebra(label_b(), F101))
    res = classify(moved)
    import json
    payload = json.loads(res.to_json())
    assert payload["label"] == "B"
    assert payload["field"] == "Fp:101"
    assert len(payload["witness"]) == 3
    assert all(len(row) == 3 for row in payload["witness"])
    assert [step["tag"] for step in payload["trace"]] == [t for t, _ in res.trace]


GOLDEN = Path(__file__).parent / "golden"


def _random_invertible(field, rng):
    while True:
        m = Matrix.from_rows(field, [[rng.randint(-3, 3) for _ in range(3)]
                                     for _ in range(3)])
        if not m.det().is_zero():
            return GroupElement(m)


def _generic_algebra(field, rng):
    """[x,y] = z with a random trace -1 z-adjoint of nonzero determinant; about
    half of them need a quadratic extension to classify."""
    while True:
        b0, b1, c0 = (field.elem(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                      for _ in range(3))
        c1 = -(b0 + 1)
        if not (b0 * c1 - b1 * c0).is_zero():
            break
    zero, one = field.zero, field.one
    return OmegaAlgebra(field, StructureConstants(field, 3, {
        (0, 1): (zero, zero, one), (0, 2): (b0, b1, zero), (1, 2): (c0, c1, zero)}),
        SkewForm(standard_j(field, 3, 2)))


def _golden_inputs(field, rng):
    """(name, algebra): seeded orbit images of every family, generic algebras
    and GL3-moved copies of both."""
    made = []
    for _ in range(4):
        for label in (label_a(), label_b(), label_d(),
                      label_c(random_nonzero(field, rng))):
            g = random_stabilizer_element(field, rng)
            made.append((f"orbit {label}", transform(g, canonical_algebra(label, field))))
    made += [("generic", _generic_algebra(field, rng)) for _ in range(16)]
    made += [(f"gl3 {name}", change_basis(_random_invertible(field, rng), alg))
             for name, alg in made[::3]]
    return made


def _classify_golden_text(field, seed):
    """ClassificationResult.to_json() of the golden inputs, then iso witnesses
    of GL3-moved pairs, each record under a header line."""
    rng = random.Random(seed)
    made = _golden_inputs(field, rng)
    records = [f"# {t} {name}\n{classify(alg, allow_extension=True).to_json()}"
               for t, (name, alg) in enumerate(made)]
    for t, (name, alg) in enumerate(made[:32:3]):
        a1 = change_basis(_random_invertible(field, rng), alg)
        a2 = change_basis(_random_invertible(field, rng), alg)
        w = iso_witness(a1, a2, allow_extension=True)
        records.append(f"# iso {t} {name}\n{w.matrix!r}")
    return "\n".join(records) + "\n"


@pytest.mark.parametrize("field, name, seed", [(QQ, "Q", 41), (F101, "Fp101", 42)])
def test_classify_golden(field, name, seed):
    want = (GOLDEN / f"classify_{name}.txt").read_text()
    got = _classify_golden_text(field, seed)
    assert got.count("# ") == want.count("# ") == 54
    assert "QuadExt" in want
    assert got == want


# Only the public GroupElement(matrix) computes an inverse.  identity, compose,
# inverse and embed build their pair unchecked, and so does every hand-built
# classify move, whose matrix is the adjugate of its given inverse over the
# determinant.  The tests below check that these pairs are still inverse, and
# that a wrong composed inverse cannot leave classify, whose witness is
# re-verified before it is returned.


@pytest.mark.parametrize("field, seed", [(QQ, 41), (F101, 42)], ids=["Q", "Fp101"])
def test_every_golden_trace_step_holds_its_inverse(field, seed):
    for name, alg in _golden_inputs(field, random.Random(seed)):
        res = classify(alg, allow_extension=True)
        eye = Matrix.identity(res.field, 3)
        j = SkewForm(standard_j(res.field, 3, 2))
        for tag, g in res.trace + (("witness", res.witness),):
            assert g.matrix * g.inverse_matrix == eye, (name, tag)
            assert g.inverse_matrix * g.matrix == eye, (name, tag)
        # the pipeline moves only the bracket after form-normalize, which is
        # sound because every such move fixes the form
        for tag, g in res.trace:
            if tag != "form-normalize":
                assert in_stabilizer(g, j), (name, tag)


F101_EXT = QuadExt(F101, 25, 1)


def _stabilizer_element(field, rng):
    """random_stabilizer_element, with entries that use t over an extension."""
    if field.depth == 0:
        return random_stabilizer_element(field, rng)

    def rand():
        return field.elem((rng.randrange(field.base.p), rng.randrange(field.base.p)))

    s1, s2, s3, t1, t2, d = (rand() for _ in range(6))
    if s1.is_zero() or d.is_zero():
        return _stabilizer_element(field, rng)
    s4 = (field.one + s2 * s3) / s1
    zero = field.zero
    return GroupElement(Matrix.from_rows(field, [[s1, s3, zero], [s2, s4, zero],
                                                 [t1, t2, d]]))


@pytest.mark.parametrize("field", [QQ, F101, F101_EXT], ids=["Q", "F101", "F101(t)"])
def test_compose_keeps_the_inverse(field):
    rng = random.Random(8)
    eye = Matrix.identity(field, 3)
    omega = SkewForm(standard_j(field, 3, 2))
    for _ in range(20):
        g = GroupElement.identity(field, 3)
        for _ in range(rng.randint(1, 4)):
            g = _stabilizer_element(field, rng).compose(g)
        assert g.matrix * g.inverse_matrix == eye
        assert g.inverse_matrix * g.matrix == eye
        assert in_stabilizer(g, omega)
        h = g.inverse()
        assert (h.matrix, h.inverse_matrix) == (g.inverse_matrix, g.matrix)
        assert h.matrix * h.inverse_matrix == eye
        assert in_stabilizer(h, omega)
        assert h.compose(g) == GroupElement.identity(field, 3)


def test_a_wrong_composed_inverse_is_caught_before_classify_returns(monkeypatch):
    rng = random.Random(9)
    algebras = [change_basis(_random_invertible(field, rng), canonical_algebra(label, field))
                for field in (QQ, F101) for label in (label_a(), label_b(), label_d())]
    algebras += [change_basis(_random_invertible(QQ, rng), _generic_algebra(QQ, rng))]
    compose = GroupElement.compose

    def perturbed(self, other):
        out = compose(self, other)
        inv = out.inverse_matrix
        out.inverse_matrix = inv.with_entry(0, 0, inv[0, 0] + 1)
        return out

    monkeypatch.setattr(GroupElement, "compose", perturbed)
    for alg in algebras:
        with pytest.raises(AssertionError, match="witness does not reproduce"):
            classify(alg, allow_extension=True)


def test_a_move_off_the_stabilizer_is_caught_before_classify_returns(monkeypatch):
    # doubling a move keeps its action on the bracket up to a scalar but takes
    # it out of the stabilizer of J; the pipeline keeps the form, so only the
    # re-verification can notice
    rng = random.Random(10)
    algebras = [transform(random_stabilizer_element(field, rng),
                          canonical_algebra(label, field))
                for field in (QQ, F101) for label in (label_a(), label_b(), label_d())]
    algebras += [change_basis(_random_invertible(QQ, rng), _generic_algebra(QQ, rng))
                 for _ in range(3)]
    assert all(classify(alg, allow_extension=True).trace for alg in algebras)
    apply, kept_form = classify3._Pipeline.apply, []

    def doubled_first(self, tag, g):
        if all(t == "form-normalize" for t, _ in self.steps):
            g = GroupElement(Matrix.identity(self.field, 3) * 2).compose(g)
            kept_form.append(in_stabilizer(g, self.work.omega))
        return apply(self, tag, g)

    monkeypatch.setattr(classify3._Pipeline, "apply", doubled_first)
    for alg in algebras:
        with pytest.raises(AssertionError):
            classify(alg, allow_extension=True)
    assert kept_form == [False] * len(algebras)


def test_classify_moves_the_form_only_to_reverify(monkeypatch):
    calls = []
    change_basis_ = classify3.change_basis

    def counted(g, alg):
        calls.append(g)
        return change_basis_(g, alg)

    monkeypatch.setattr(classify3, "change_basis", counted)
    rng = random.Random(11)
    for field in (QQ, F101):
        for label in (label_a(), label_b(), label_d(), label_c(field.elem(3))):
            moved = transform(random_stabilizer_element(field, rng),
                              canonical_algebra(label, field))
            calls.clear()
            res = classify(moved)
            assert len(res.trace) > 1
            assert calls == [res.witness]  # the re-verification in _finish
            # a form other than J is moved once more, by form-normalize
            other = change_basis(_random_invertible(field, rng), moved)
            calls.clear()
            res = classify(other)
            assert res.trace[0][0] == "form-normalize"
            assert calls == [res.trace[0][1], res.witness]


def test_hand_built_moves_call_no_solve(monkeypatch):
    solves, inside = [], []
    solve, from_inverse = linalg.solve, classify3._from_inverse

    def counted_solve(a, b):
        solves.append(a)
        return solve(a, b)

    def counted_from_inverse(field, rows):
        before = len(solves)
        out = from_inverse(field, rows)
        inside.append(len(solves) - before)
        return out

    monkeypatch.setattr(linalg, "solve", counted_solve)
    monkeypatch.setattr(classify3, "_from_inverse", counted_from_inverse)
    for field, seed in ((QQ, 41), (F101, 42)):
        for _, alg in _golden_inputs(field, random.Random(seed)):
            classify(alg, allow_extension=True)
    assert len(inside) > 100
    assert inside == [0] * len(inside)
    assert solves  # center-translate still solves


# The last move of each of these kinds is recorded in the trace and the
# witness, but the bracket is not moved by it: nothing reads it afterwards.
RECORDED_LAST = {"c-pair-swap", "adjoint-conjugate", "absorb-first-column",
                 "absorb-into-y", "final-translate"}


def _pipeline_inputs():
    """(name, algebra): the golden inputs over Q and F_101, orbit images of
    C(-1), which the degenerate branch ends on absorb-first-column, and a C
    algebra that the fast path swaps."""
    made = []
    for field, seed in ((QQ, 41), (F101, 42)):
        rng = random.Random(seed)
        made += [(f"{field!r} {name}", alg) for name, alg in _golden_inputs(field, rng)]
        made += [(f"{field!r} orbit C:-1", transform(random_stabilizer_element(field, rng),
                                                    canonical_algebra(label_c(-field.one), field)))
                 for _ in range(3)]
    made.append(("swapped C", canonical_algebra(label_c(QQ.elem(2)), QQ)))
    return made


def test_a_doubled_last_move_is_caught_before_classify_returns(monkeypatch):
    # a move recorded outside apply moves no bracket, so only the
    # re-verification of the witness can notice that it is wrong
    made, results = [], []
    for name, alg in _pipeline_inputs():
        res = classify(alg, allow_extension=True)
        if res.trace and res.trace[-1][0] in RECORDED_LAST:
            made.append((name, alg))
            results.append(res)
    assert {res.trace[-1][0] for res in results} == RECORDED_LAST
    assert {res.field.encode() for res in results} >= {"Q", "Fp:101"}
    assert any(res.extension is not None for res in results)
    apply, record = classify3._Pipeline.apply, classify3._Pipeline.record
    applying, doubled = [], []

    def tracked_apply(self, tag, g):
        applying.append(tag)
        try:
            return apply(self, tag, g)
        finally:
            applying.pop()

    def doubled_record(self, tag, g):
        if not applying and tag != "form-normalize":
            doubled.append(tag)
            g = g.compose(g)
        return record(self, tag, g)

    monkeypatch.setattr(classify3._Pipeline, "apply", tracked_apply)
    monkeypatch.setattr(classify3._Pipeline, "record", doubled_record)
    for name, alg in made:
        doubled.clear()
        with pytest.raises(AssertionError, match="witness does not reproduce"):
            classify(alg, allow_extension=True)
        assert len(doubled) == 1 and doubled[0] in RECORDED_LAST, name


def test_classify_transforms_every_move_but_a_recorded_last_one(monkeypatch):
    calls = []
    transform_ = classify3.transform

    def counted(g, alg):
        calls.append(g)
        return transform_(g, alg)

    # change_basis reaches transform through omega, so _finish is not counted
    monkeypatch.setattr(classify3, "transform", counted)
    for _, alg in _pipeline_inputs():
        calls.clear()
        tags = [tag for tag, _ in classify(alg, allow_extension=True).trace]
        assert "reenter-translation" not in tags  # its probes transform too
        moves = [tag for tag in tags if tag != "form-normalize"]
        assert len(calls) == len(moves) - (bool(moves) and moves[-1] in RECORDED_LAST)


@pytest.mark.parametrize("field", [QQ, F101, F101_EXT], ids=["Q", "F101", "F101(t)"])
def test_from_inverse_is_the_inverse_of_its_rows(field):
    rng = random.Random(12)

    def rand():
        if field.depth:
            return field.elem((rng.randrange(-2, 3), rng.randrange(-1, 2)))
        return field.elem(Fraction(rng.randint(-2, 2), rng.randint(1, 2)))

    for _ in range(60):
        rows = [[rand() for _ in range(3)] for _ in range(3)]
        m = Matrix.from_rows(field, rows)
        if m.det().is_zero():
            with pytest.raises(ValueError, match="matrix is not invertible"):
                classify3._from_inverse(field, rows)
            continue
        g = classify3._from_inverse(field, rows)
        assert g.inverse_matrix == m
        assert g.matrix == m.inverse()
    for rows in ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], [[0] * 3] * 3,
                 [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        with pytest.raises(ValueError, match="not invertible"):
            classify3._from_inverse(field, rows)
