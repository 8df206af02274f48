"""Constructive classification of 3-dimensional non-Lie omega-Lie algebras.

Every input is moved by explicit stabilizer elements onto one of four
canonical families (A, B, C with a nonzero parameter, D), and the composed
move is returned as a witness whose action on the input reproduces the
canonical algebra entry-exactly.  Isomorphism testing reduces to comparing
labels and composing witnesses.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .fields import (
    ExtensionDepthExceeded,
    ExtensionRequired,
    FieldDescriptor,
    FieldElement,
    PrimeField,
    quadratic_roots,
)
from .linalg import (
    Matrix,
    SkewForm,
    _from_payloads,
    skew_congruence_reduce,
    sl2_diagonalize,
    sl2_jordan,
    solve_vector,
    standard_j,
)
from .omega import (
    GroupElement,
    OmegaAlgebra,
    StructureConstants,
    change_basis,
    derived_dimension,
    in_stabilizer,
    transform,
    validate,
)
from .report import ReportTable


class NotClassifiable(ValueError):
    """A 3-dimensional algebra that classify refuses: its bracket fails the
    identity, or its form vanishes, so the bracket is a classical Lie one."""


@dataclass(frozen=True)
class CanonicalLabel:
    kind: str  # "A" | "B" | "C" | "D"
    alpha: FieldElement | None = None

    def __post_init__(self):
        if self.kind == "C":
            if self.alpha is None or self.alpha.is_zero():
                raise ValueError("the C family needs a nonzero parameter")
        elif self.alpha is not None:
            raise ValueError(f"family {self.kind} takes no parameter")

    def __str__(self):
        if self.kind == "C":
            return f"C:{self.alpha.encode()}"
        return self.kind


def c_pair_representative(alpha: FieldElement) -> FieldElement:
    """Deterministic representative of the parameter pair {a, -(a+1)}.

    The two members label the same isomorphism class; the one with the
    lexicographically smaller text encoding is chosen, except that the pair
    {-1, 0} is represented by -1 (the zero parameter is excluded).
    """
    if alpha.is_zero():
        raise ValueError("zero is not a valid parameter")
    other = -(alpha + 1)
    if other.is_zero():
        return alpha
    return alpha if alpha.encode() <= other.encode() else other


def canonical_algebra(label: CanonicalLabel, field: FieldDescriptor) -> OmegaAlgebra:
    """The reference algebra of a label, with the canonical rank-2 form.

    A, B and D are built once per field and shared, for the last few fields
    only; C is built on each call, since its parameter is unbounded.
    """
    if label.kind == "C":
        return _build_canonical(label, field)
    return _parameter_free_canonical(label, field)


def _build_canonical(label: CanonicalLabel, field: FieldDescriptor) -> OmegaAlgebra:
    zero, one = field.zero, field.one
    half = one / 2
    if label.kind == "A":
        table = {(0, 1): (one, one, zero),    # [x,y] = x + y
                 (0, 2): (zero, one, zero),   # [x,z] = y
                 (1, 2): (zero, zero, one)}   # [y,z] = z
    elif label.kind == "B":
        table = {(0, 1): (zero, zero, one),   # [x,y] = z
                 (0, 2): (-half, zero, zero),  # [x,z] = -x/2
                 (1, 2): (one, -half, zero)}  # [y,z] = x - y/2
    elif label.kind == "C":
        alpha = label.alpha
        if alpha.field != field:
            raise ValueError("parameter lives in a different field")
        table = {(0, 1): (zero, zero, one),
                 (0, 2): (alpha, zero, zero),
                 (1, 2): (zero, -(alpha + 1), zero)}
    elif label.kind == "D":
        table = {(0, 1): (zero, one, zero),   # [x,y] = y
                 (1, 2): (zero, zero, one)}   # [y,z] = z
    else:
        raise ValueError(f"unknown label kind {label.kind!r}")
    sc = StructureConstants(field, 3, table)
    return OmegaAlgebra(field, sc, SkewForm(standard_j(field, 3, 2)))


_parameter_free_canonical = lru_cache(maxsize=12)(_build_canonical)


def label_a():
    return CanonicalLabel("A")


def label_b():
    return CanonicalLabel("B")


def label_c(alpha):
    return CanonicalLabel("C", alpha)


def label_d():
    return CanonicalLabel("D")


@dataclass(frozen=True)
class ClassificationResult:
    label: CanonicalLabel
    witness: GroupElement
    field: FieldDescriptor
    trace: tuple  # ((tag, GroupElement), ...) in application order
    extension: tuple | None = None  # minpoly (c0, c1) over the base field

    def to_json(self) -> str:
        payload = {
            "label": str(self.label),
            "field": self.field.encode(),
            "witness": _matrix_rows(self.witness.matrix),
            "trace": [{"tag": tag, "matrix": _matrix_rows(g.matrix)}
                      for tag, g in self.trace],
        }
        if self.extension is not None:
            c0, c1 = self.extension
            payload["extension_minpoly"] = [c0.encode(), c1.encode()]
        return json.dumps(payload, indent=2)


def _matrix_rows(m: Matrix):
    return [[m[i, j].encode() for j in range(m.cols)] for i in range(m.rows)]


def c_pair_swap(field: FieldDescriptor) -> GroupElement:
    """x -> y, y -> -x, z -> z: carries the C parameter a to -(a+1)."""
    return _from_inverse(field, [[0, 1, 0], [-1, 0, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# the reduction pipeline
# ---------------------------------------------------------------------------

class _Pipeline:
    def __init__(self, alg: OmegaAlgebra):
        self.work = alg
        self.field = alg.field
        self.steps = []
        self.witness = GroupElement.identity(alg.field, 3)

    def apply(self, tag: str, g: GroupElement):
        """Move the bracket by g, which must lie in the stabilizer of the
        working form, so the form is kept as it is, record g, and return the
        brackets read afterwards."""
        self.work = transform(g, self.work)
        self.record(tag, g)
        return self.read()

    def record(self, tag: str, g: GroupElement):
        """Add g to the trace and the witness without moving the bracket: a
        last move is only recorded, since _finish re-verifies the witness on
        both the bracket and the form."""
        self.steps.append((tag, g))
        self.witness = g.compose(self.witness)

    def extend_to(self, ext):
        self.work = self.work.embed(ext)
        self.steps = [(tag, g.embed(ext)) for tag, g in self.steps]
        self.witness = self.witness.embed(ext)
        self.field = ext

    def read(self):
        sc = self.work.sc
        return sc.bracket(0, 1), sc.bracket(0, 2), sc.bracket(1, 2)


def _from_inverse(field, rows) -> GroupElement:
    """The move whose inverse has the given 3x3 rows; its matrix is the
    adjugate of the rows over their determinant, on payloads."""
    inverse = Matrix.from_rows(field, rows)
    p, mul, sub = inverse.payloads, field.mul, field.sub

    def at(i, j):
        return p[3 * (i % 3) + j % 3]

    # the cofactors of a 3x3 matrix, read cyclically, need no signs
    cof = [sub(mul(at(i + 1, j + 1), at(i + 2, j + 2)), mul(at(i + 1, j + 2), at(i + 2, j + 1)))
           for i in range(3) for j in range(3)]
    det = field.add(field.add(mul(p[0], cof[0]), mul(p[1], cof[1])), mul(p[2], cof[2]))
    if field.is_zero(det):
        raise ValueError("matrix is not invertible")
    s = field.inv(det)
    return GroupElement._pair(
        _from_payloads(field, 3, 3, [mul(cof[3 * j + i], s) for i in range(3) for j in range(3)]),
        inverse)


def _match_canonical(alg: OmegaAlgebra, strict_c_labels: bool):
    """Exact-pattern fast path: (label, optional pre-move) or None."""
    field = alg.field
    for label in (label_d(), label_a(), label_b()):
        if alg.sc == canonical_algebra(label, field).sc:
            return label, None
    a, b, c = (alg.sc.bracket(0, 1), alg.sc.bracket(0, 2), alg.sc.bracket(1, 2))
    zero, one = field.zero, field.one
    if (a == (zero, zero, one) and not b[0].is_zero()
            and b[1].is_zero() and b[2].is_zero()
            and c == (zero, -(b[0] + 1), zero)):
        alpha = b[0]
        rep = c_pair_representative(alpha)
        if strict_c_labels or rep == alpha:
            return label_c(alpha), None
        return label_c(rep), c_pair_swap(field)
    return None


def _check_classifiable(alg: OmegaAlgebra) -> None:
    """Refuse what classify does not take: a dimension other than 3, a bracket
    that fails the identity, or the zero form."""
    if alg.dim != 3:
        raise ValueError("only 3-dimensional algebras are classified")
    report = validate(alg)
    if not report.ok:
        raise NotClassifiable("; ".join(report.messages))
    if alg.omega.is_zero():
        raise NotClassifiable("the bilinear form vanishes; this is a classical bracket")


def classify(alg: OmegaAlgebra, allow_extension: bool = False,
             strict_c_labels: bool = False) -> ClassificationResult:
    """Find the canonical family of a 3-dimensional non-Lie algebra, with an
    explicit verified witness.

    The input must live over the rationals or an odd prime field; at most one
    quadratic extension is introduced (eigenvalue splitting or the scaling
    square root in the non-diagonalizable case), and without allow_extension
    a needed one is refused with ExtensionRequired naming its minpoly.
    """
    _check_classifiable(alg)
    pipe = _Pipeline(alg)
    field = pipe.field
    j2 = standard_j(field, 3, 2)
    if alg.omega.matrix != j2:
        # the one move that changes the form, so the one moved in full
        q = skew_congruence_reduce(alg.omega).q
        g = _from_inverse(field, [q.row(i) for i in range(3)])
        pipe.work = change_basis(g, alg)
        pipe.record("form-normalize", g)
        assert pipe.work.omega.matrix == j2

    fast = _match_canonical(pipe.work, strict_c_labels)
    if fast is not None:
        label, move = fast
        if move is not None:
            pipe.record("c-pair-swap", move)
        return _finish(alg, pipe, label)

    a, b, c = pipe.read()
    if a[2].is_zero():
        # some center translation gives the product bracket a z-component
        for t1, t2 in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            u = _from_inverse(field, [[1, 0, 0], [0, 1, 0], [t1, t2, 1]])
            if not transform(u, pipe.work).sc.bracket(0, 1)[2].is_zero():
                a, b, c = pipe.apply("reenter-translation", u)
                break
        else:
            raise AssertionError("no translation re-enters the generic branch")

    if a[2] != field.one:
        a, b, c = pipe.apply("scale-z",
                             _from_inverse(field, [[1, 0, 0], [0, 1, 0], [0, 0, a[2]]]))

    delta = b[0] * c[1] - b[1] * c[0]
    if not delta.is_zero():
        label = _generic_branch(pipe, strict_c_labels)
    else:
        label = _degenerate_branch(pipe)
    if pipe.field != field and not allow_extension:
        raise ExtensionRequired(*pipe.field.minpoly)
    return _finish(alg, pipe, label)


def _generic_branch(pipe: _Pipeline, strict_c_labels) -> CanonicalLabel:
    """Nonzero 2x2 minor of the z-adjoint: normalize the product bracket to z,
    then split by the conjugacy class of the trace -1 adjoint matrix."""
    field = pipe.field
    a, b, c = pipe.read()
    if not (a[0].is_zero() and a[1].is_zero()):
        t_mat = Matrix.from_rows(field, [
            [c[0], -b[0], field.zero],
            [c[1], -b[1], field.zero],
            [c[2], -b[2], field.one],
        ])
        t1, t2, d = solve_vector(t_mat, (a[0], a[1], field.one))
        assert not d.is_zero()
        a, b, c = pipe.apply("center-translate",
                             _from_inverse(field, [[1, 0, 0], [0, 1, 0], [t1, t2, d]]))
    assert a == (field.zero, field.zero, field.one)
    assert b[2].is_zero() and c[2].is_zero()
    m = Matrix.from_rows(field, [[b[0], c[0]], [b[1], c[1]]])
    assert m[0, 0] + m[1, 1] == -field.one
    alpha, beta = quadratic_roots(m.det())
    if alpha == beta:
        # double eigenvalue -1/2: the scalar matrix or the Jordan block
        if m == Matrix.from_rows(field, [[alpha, field.zero], [field.zero, alpha]]):
            return label_c(alpha)
        p = sl2_jordan(m)
        label = label_b()
    else:
        if alpha.field != field:
            m = m.embed(alpha.field)
        if not strict_c_labels:
            alpha = c_pair_representative(alpha)
        p = sl2_diagonalize(m, alpha)
        label = label_c(alpha)
    if p.field != field:
        pipe.extend_to(p.field)
    if p != Matrix.identity(p.field, 2):
        # dia{P^-1, 1} conjugates the z-adjoint by P while fixing [x,y] = z
        pipe.record("adjoint-conjugate", _from_inverse(p.field, [
            [p[0, 0], p[0, 1], 0], [p[1, 0], p[1, 1], 0], [0, 0, 1]]))
    return label


def _degenerate_branch(pipe: _Pipeline) -> CanonicalLabel:
    """Vanishing minor: the two adjoint columns are dependent.  Clear the
    xy-part of the second one, then split on its z-coefficient."""
    field = pipe.field
    zero, one = field.zero, field.one
    a, b, c = pipe.read()
    if b[0].is_zero() and b[1].is_zero() and not (c[0].is_zero() and c[1].is_zero()):
        a, b, c = pipe.apply("swap-xy", c_pair_swap(field))
    if not (c[0].is_zero() and c[1].is_zero()):
        k = c[0] / b[0] if not b[0].is_zero() else c[1] / b[1]
        a, b, c = pipe.apply("clear-second-column",
                             _from_inverse(field, [[1, -k, 0], [0, 1, 0], [0, 0, 1]]))
        assert c[0].is_zero() and c[1].is_zero()
    if c[2].is_zero() and b[0].is_zero() and b[1].is_zero():
        # [x,z] = b3 z, [y,z] = 0: swapping x and y moves b3 into [y,z]
        a, b, c = pipe.apply("swap-xy", c_pair_swap(field))
    if c[2].is_zero():
        # everything collapses onto the parameter -1 representative
        if not (a[0].is_zero() and a[1].is_zero()):
            k2 = a[0] / b[0] if not b[0].is_zero() else a[1] / b[1]
            if not k2.is_zero():
                a, b, c = pipe.apply("clear-product-xy",
                                     _from_inverse(field, [[1, 0, 0], [0, 1, 0], [0, -k2, 1]]))
        assert a[0].is_zero() and a[1].is_zero()
        if a[2] != one:
            a, b, c = pipe.apply("rescale-z",
                                 _from_inverse(field, [[1, 0, 0], [0, 1, 0], [0, 0, a[2]]]))
        assert b[0] == -one
        pipe.record("absorb-first-column",
                    _from_inverse(field, [[one, zero, zero],
                                          [-b[1], one, zero],
                                          [-b[2], zero, one]]))
        return label_c(-one)
    # second column is c3 * z with c3 != 0
    if c[2] != one:
        a, b, c = pipe.apply("scale-to-unit", _from_inverse(
            field, [[c[2], 0, 0], [0, c[2].inverse(), 0], [0, 0, 1]]))
    assert b[0].is_zero()
    assert (one - a[0]) * b[1] == zero and a[0] * b[2] + a[1] == one
    if not b[2].is_zero():
        a, b, c = pipe.apply("clear-b3",
                             _from_inverse(field, [[one, zero, zero],
                                                   [-b[2], one, zero],
                                                   [zero, zero, one]]))
    assert a[1] == one
    if b[1].is_zero():
        pipe.record("absorb-into-y",
                    _from_inverse(field, [[one, a[0], zero],
                                          [zero, one, zero],
                                          [zero, a[2], one]]))
        return label_d()
    assert a[0] == one
    if b[1] != one:
        a, b, c = pipe.apply("scale-middle",
                             _from_inverse(field, [[1, 0, 0], [0, 1, 0], [0, 0, b[1].inverse()]]))
    if not a[2].is_zero():
        t = a[2] / 2
        pipe.record("final-translate",
                    _from_inverse(field, [[one, zero, zero],
                                          [zero, one, zero],
                                          [t, zero, one]]))
    return label_a()


def _finish(original: OmegaAlgebra, pipe: _Pipeline,
            label: CanonicalLabel) -> ClassificationResult:
    target = canonical_algebra(label, pipe.field)
    witness = pipe.witness
    source = original.embed(pipe.field)
    if change_basis(witness, source) != target:
        raise AssertionError("witness does not reproduce the canonical algebra")
    extension = pipe.field.minpoly if pipe.field != original.field else None
    return ClassificationResult(label=label, witness=witness, field=pipe.field,
                                trace=tuple(pipe.steps), extension=extension)


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonIsomorphic:
    reason: str
    label1: CanonicalLabel | None = None
    label2: CanonicalLabel | None = None

    def __bool__(self):
        return False


def iso_witness(alg1: OmegaAlgebra, alg2: OmegaAlgebra,
                allow_extension: bool = False):
    """A verified isomorphism between the two algebras, or NonIsomorphic.

    Classification labels decide the orbit; the witness is the composition of
    the two classification witnesses and is re-verified to carry the first
    bracket and form onto the second.  An algebra over the base of the
    other's quadratic extension is embedded into it; other fields differing
    is a ValueError.  When no one quadratic extension holds both, each is
    classified over its own field, so an extension it needs is refused as
    classify refuses it, and different labels tell them apart.  Inputs
    classify refuses are refused here too, also when the derived dimensions
    already tell them apart.
    """
    own = alg1, alg2
    if alg1.field != alg2.field:
        if alg2.field.depth and alg2.field.base == alg1.field:
            alg1 = alg1.embed(alg2.field)
        elif alg1.field.depth and alg1.field.base == alg2.field:
            alg2 = alg2.embed(alg1.field)
        else:
            raise ValueError(f"the algebras live over different fields: "
                             f"{alg1.field.encode()} and {alg2.field.encode()}")
    d1, d2 = derived_dimension(alg1.sc), derived_dimension(alg2.sc)
    if d1 != d2:
        _check_classifiable(alg1)
        _check_classifiable(alg2)
        return NonIsomorphic(
            reason=f"derived algebra dimensions differ: {d1} vs {d2}")
    try:
        r1 = classify(alg1, allow_extension=allow_extension)
        a2 = alg2.embed(r1.field)
        r2 = classify(a2, allow_extension=allow_extension)
        if r2.field != r1.field:
            # the second algebra forced the extension; redo the first over it
            r1 = classify(alg1.embed(r2.field), allow_extension=allow_extension)
            a2 = alg2.embed(r2.field)
    except ExtensionDepthExceeded:
        r1, r2 = (classify(alg, allow_extension=allow_extension) for alg in own)
        if r1.label == r2.label:
            raise
    if r1.label != r2.label:
        return NonIsomorphic(reason="different canonical families",
                             label1=r1.label, label2=r2.label)
    witness = r2.witness.inverse().compose(r1.witness)
    if change_basis(witness, alg1.embed(r1.field)) != a2:
        raise AssertionError("composed witness failed re-verification")
    return witness


# ---------------------------------------------------------------------------
# verification suite for the classification layer
# ---------------------------------------------------------------------------

# the parameters c_pair_audit draws and the orbit samples verify_classification
# moves, each from its own fixed seed, so a suite's report is reproducible
AUDIT_COUNT, AUDIT_SEED = 50, 101
VERIFY_SAMPLES, VERIFY_SEED = 40, 7


def _random_scalar(field, rng, num: int, den: int) -> FieldElement:
    """Uniform over the prime field a field is or extends; otherwise a fraction
    with numerator in [-num, num] and denominator in [1, den]."""
    base = field.base if field.depth else field
    if isinstance(base, PrimeField):
        return field.elem(rng.randrange(base.p))
    return field.elem(Fraction(rng.randint(-num, num), rng.randint(1, den)))


def random_stabilizer_element(field, rng) -> GroupElement:
    """Random block element (SL2 block, translation row, nonzero scalar)."""

    def rand():
        return _random_scalar(field, rng, 6, 3)

    while True:
        s1, s2, s3 = rand(), rand(), rand()
        if not s1.is_zero():
            s4 = (field.one + s2 * s3) / s1
            break
    t1, t2 = rand(), rand()
    while True:
        d = rand()
        if not d.is_zero():
            break
    m = Matrix.from_rows(field, [[s1, s3, field.zero],
                                 [s2, s4, field.zero],
                                 [t1, t2, d]])
    return GroupElement(m)


def random_nonzero(field, rng) -> FieldElement:
    while True:
        v = _random_scalar(field, rng, 9, 4)
        if not v.is_zero():
            return v


def c_pair_audit(field) -> ReportTable:
    """Machine-verify the parameter-pair collapse of the C family."""
    table = ReportTable(f"C-family parameter pairs over {field!r}")
    rng = random.Random(AUDIT_SEED)
    swap = c_pair_swap(field)
    with table.timed("swap-is-form-preserving") as rec:
        rec.expect(in_stabilizer(swap, SkewForm(standard_j(field, 3, 2))),
                   "the swap does not preserve the form")
    with table.timed("swap-carries-parameter-pairs") as rec:
        for _ in range(AUDIT_COUNT):
            alpha = random_nonzero(field, rng)
            src = canonical_algebra(label_c(alpha), field)
            moved = transform(swap, src)
            beta = -(alpha + 1)
            if beta.is_zero():
                # the zero-parameter bracket pattern is excluded as a label but
                # still the literal image of the pair map
                expected_sc = StructureConstants(field, 3, {
                    (0, 1): (field.zero, field.zero, field.one),
                    (1, 2): (field.zero, -field.one, field.zero)})
                rec.expect(moved.sc == expected_sc,
                           f"pair image wrong for parameter {alpha.encode()}")
            else:
                rec.expect(moved == canonical_algebra(label_c(beta), field),
                           f"pair image wrong for parameter {alpha.encode()}")
    with table.timed("representative-is-involution-stable") as rec:
        for _ in range(AUDIT_COUNT):
            alpha = random_nonzero(field, rng)
            other = -(alpha + 1)
            rep = c_pair_representative(alpha)
            rec.expect(rep in (alpha, other), "representative left the pair")
            if not other.is_zero():
                rec.expect(c_pair_representative(other) == rep,
                           "representative depends on the pair member")
    table.add_note("the two parameters a and -(a+1) label isomorphic algebras,"
                   " so C-family labels are unique only up to this pair;"
                   " distinct pairs remain non-isomorphic")
    return table


def verify_classification(field) -> ReportTable:
    """End-to-end checks of the classification layer over one field."""
    table = ReportTable(f"classification over {field!r}")
    rng = random.Random(VERIFY_SEED)
    half = -field.one / 2

    def parameter(k, avoid=()):
        """The first integer from k up that is a nonzero parameter outside the
        pair classes of avoid (small primes turn some of the defaults to 0)."""
        classes = {c_pair_representative(a) for a in avoid}
        while field.elem(k).is_zero() or c_pair_representative(field.elem(k)) in classes:
            k += 1
        return k, field.elem(k)

    with table.timed("canonical-self-classification") as rec:
        for label in (label_a(), label_b(), label_d()):
            res = classify(canonical_algebra(label, field))
            rec.expect(res.label == label, f"{label} did not classify to itself")
            rec.expect(res.witness == GroupElement.identity(field, 3),
                       f"{label} witness is not the identity")
        for alpha_int in (2, 3, -4):
            alpha_int, alpha = parameter(alpha_int)
            res = classify(canonical_algebra(label_c(alpha), field))
            rec.expect(res.label.kind == "C"
                       and res.label.alpha == c_pair_representative(alpha),
                       f"C({alpha_int}) label mismatch")
        res = classify(canonical_algebra(label_c(half), field))
        rec.expect(res.label == label_c(half), "C(-1/2) label mismatch")

    with table.timed("orbit-roundtrip") as rec:
        labels = [label_a(), label_b(), label_d()]
        for _ in range(VERIFY_SAMPLES):
            label = (rng.choice(labels) if rng.random() < 0.5
                     else label_c(random_nonzero(field, rng)))
            g = random_stabilizer_element(field, rng)
            moved = transform(g, canonical_algebra(label, field))
            res = classify(moved, allow_extension=True)
            want = (label if label.kind != "C"
                    else label_c(c_pair_representative(label.alpha)))
            rec.expect(res.label == want,
                       f"roundtrip of {label} returned {res.label}")

    with table.timed("family-separation") as rec:
        k1, alpha1 = parameter(2)
        k2, alpha2 = parameter(5, avoid=(alpha1,))
        reps = [("A", canonical_algebra(label_a(), field)),
                ("B", canonical_algebra(label_b(), field)),
                ("D", canonical_algebra(label_d(), field)),
                (f"C{k1}", canonical_algebra(label_c(alpha1), field)),
                (f"C{k2}", canonical_algebra(label_c(alpha2), field))]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                out = iso_witness(reps[i][1], reps[j][1], allow_extension=True)
                rec.expect(isinstance(out, NonIsomorphic),
                           f"{reps[i][0]} and {reps[j][0]} compared isomorphic")

    with table.timed("derived-dimensions") as rec:
        rec.expect(derived_dimension(canonical_algebra(label_d(), field).sc) == 2,
                   "D derived dimension wrong")
        rec.expect(derived_dimension(
            canonical_algebra(label_c(-field.one), field).sc) == 2,
            "C(-1) derived dimension wrong")
        for label in (label_a(), label_b(), label_c(parameter(3, avoid=(-field.one,))[1])):
            rec.expect(derived_dimension(canonical_algebra(label, field).sc) == 3,
                       f"{label} derived dimension wrong")

    with table.timed("product-stabilizer-block") as rec:
        probe = canonical_algebra(label_c(field.elem(2)), field)
        for _ in range(15):
            g = random_stabilizer_element(field, rng)
            h_mat = Matrix.from_rows(field, [
                [g.matrix[0, 0], g.matrix[0, 1], field.zero],
                [g.matrix[1, 0], g.matrix[1, 1], field.zero],
                [field.zero, field.zero, field.one]])
            h = GroupElement(h_mat)
            moved = transform(h, probe)
            rec.expect(moved.sc.bracket(0, 1) == (field.zero, field.zero, field.one),
                       "block element moved the product bracket")
            d = g.matrix[2, 2]
            if d != field.one:
                moved = transform(g, probe)
                rec.expect(moved.sc.bracket(0, 1)
                           != (field.zero, field.zero, field.one),
                           "scalar part != 1 still fixed the product bracket")

    with table.timed("translation-solvability") as rec:
        for _ in range(15):
            b = [random_nonzero(field, rng) for _ in range(3)]
            c = [random_nonzero(field, rng) for _ in range(3)]
            delta = b[0] * c[1] - b[1] * c[0]
            if delta.is_zero():
                continue
            t_mat = Matrix.from_rows(field, [
                [c[0], -b[0], field.zero],
                [c[1], -b[1], field.zero],
                [c[2], -b[2], field.one]])
            rec.expect(t_mat.det() == delta, "determinant formula failed")
            solve_vector(t_mat, (field.one, field.zero, field.one))  # unique

    return table
