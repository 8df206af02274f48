"""Core omega-Lie algebra model: structure constants, validation of the
omega-Jacobi identity, recovery of the unique compatible bilinear form, the
stabilizer action on brackets, and the algebra file format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import combinations, permutations

from .fields import FieldDescriptor, FieldElement, parse_descriptor
from .linalg import Matrix, SkewForm, _from_payloads, _payload


class StructureConstants:
    """Antisymmetric bracket tensor: [e_i, e_j] = sum_k c[i][j][k] e_k.

    Only the nonzero brackets with i < j are stored, as raw payload tuples;
    the other half is derived by sign, which makes antisymmetry structural.
    StructureConstants(...) checks each coefficient against the field once;
    kernel results are built from payloads unchecked.  bracket and entries
    read coefficients as FieldElements.
    """

    __slots__ = ("field", "dim", "_table", "_sums")

    def __init__(self, field: FieldDescriptor, dim: int, table: dict):
        if dim < 1:
            raise ValueError("dimension must be positive")
        is_zero = field.is_zero
        checked = {}
        for (i, j), vec in table.items():
            if not (0 <= i < j < dim):
                raise IndexError(f"bracket key ({i},{j}) out of range for i<j<{dim}")
            try:
                payloads = tuple([_payload(v, field) for v in vec])
            except ValueError as exc:
                raise ValueError(f"bracket ({i},{j}): {exc}") from None
            if len(payloads) != dim:
                raise ValueError(f"bracket ({i},{j}) must have {dim} coefficients")
            if not all(map(is_zero, payloads)):
                checked[(i, j)] = payloads
        self.field, self.dim, self._table, self._sums = field, dim, checked, None

    @classmethod
    def _from_payloads(cls, field, dim: int, table: dict) -> "StructureConstants":
        """A bracket from {(i, j): payload tuple}, i < j, whose payloads are
        already known to lie in field and to number dim, built unchecked;
        all-zero entries are dropped."""
        sc = object.__new__(cls)
        is_zero = field.is_zero
        sc.field, sc.dim, sc._sums = field, dim, None
        sc._table = {key: vec for key, vec in table.items() if not all(map(is_zero, vec))}
        return sc

    def _payload_sums(self) -> dict:
        """cyclic_sums of this bracket on payloads, computed once: validate and
        recover_omega on the same bracket, as check runs them, share one pass."""
        if self._sums is None:
            f = self.field
            self._sums = cyclic_sums(self._table, self.dim, f.dot, f.neg, f.is_zero)
        return self._sums

    def _payloads(self, i: int, j: int):
        """[e_i, e_j] as a payload tuple (sign handled for i > j), or None
        when it is zero."""
        vec = self._table.get((i, j) if i < j else (j, i))  # (i, i) is never stored
        return tuple(map(self.field.neg, vec)) if vec is not None and i > j else vec

    def bracket(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as a tuple of FieldElements."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis index out of range: ({i},{j})")
        field, vec = self.field, self._payloads(i, j)
        if vec is None:
            return (field.zero,) * self.dim
        return tuple([FieldElement(field, x) for x in vec])

    def entries(self):
        field = self.field
        return {key: tuple(FieldElement(field, x) for x in vec)
                for key, vec in self._table.items()}

    def embed(self, ext):
        if self.field != ext.base:
            raise ValueError(f"{self.field!r} is not the base of {ext!r}")
        zero = ext.base.zero.value
        return StructureConstants._from_payloads(
            ext, self.dim, {k: tuple((a, zero) for a in vec) for k, vec in self._table.items()})

    def __eq__(self, other):
        return (isinstance(other, StructureConstants) and other.field == self.field
                and other.dim == self.dim and other._table == self._table)

    def __hash__(self):
        return hash((self.field, self.dim, frozenset(self._table.items())))


@dataclass(frozen=True)
class OmegaAlgebra:
    field: FieldDescriptor
    sc: StructureConstants
    omega: SkewForm

    def __post_init__(self):
        if self.sc.dim != self.omega.dim:
            raise ValueError("bracket and form dimensions differ")
        if self.sc.field != self.field or self.omega.field != self.field:
            raise ValueError("mixed field descriptors")

    @property
    def dim(self):
        return self.sc.dim

    def embed(self, ext):
        """This algebra over ext: itself when ext is already its field."""
        if ext == self.field:
            return self
        return OmegaAlgebra(ext, self.sc.embed(ext), self.omega.embed(ext))


class GroupElement:
    """An invertible basis transformation with its inverse cached."""

    __slots__ = ("matrix", "inverse_matrix")

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.inverse_matrix = matrix.inverse()

    @classmethod
    def _pair(cls, matrix: Matrix, inverse_matrix: Matrix) -> "GroupElement":
        """An element from a pair already known to be mutually inverse: the
        identity, a matrix and its adjugate over its determinant, or checked
        pairs swapped, embedded or composed.  It is not multiplied back;
        classify and iso_witness re-verify every witness they return through
        change_basis, which uses both matrices."""
        out = object.__new__(cls)
        out.matrix, out.inverse_matrix = matrix, inverse_matrix
        return out

    @classmethod
    def identity(cls, field, n):
        eye = Matrix.identity(field, n)
        return cls._pair(eye, eye)

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other: (self*other) acts like applying other first."""
        return GroupElement._pair(self.matrix * other.matrix,
                                  other.inverse_matrix * self.inverse_matrix)

    def inverse(self) -> "GroupElement":
        return GroupElement._pair(self.inverse_matrix, self.matrix)

    def embed(self, ext):
        return GroupElement._pair(self.matrix.embed(ext), self.inverse_matrix.embed(ext))

    def __eq__(self, other):
        return isinstance(other, GroupElement) and other.matrix == self.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"GroupElement({self.matrix!r})"


def _triples_through(pairs, n: int) -> set:
    """The strictly increasing triples that hold one of the pairs (a, b),
    a < b: at most len(pairs) * n of them."""
    return {(c, a, b) if c < a else (a, c, b) if c < b else (a, b, c)
            for a, b in pairs for c in range(n) if c != a and c != b}


def cyclic_sums(upper: dict, n: int, dot, neg, is_zero) -> dict:
    """The cyclic bracket sum [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    of every strictly increasing triple i < j < k, as {(i, j, k): {t: coefficient}}
    with only its nonzero coefficients; triples whose sum vanishes are left out.

    upper is the strictly upper half {(a, b): coordinates} of the bracket table,
    missing pairs being zero, over any coefficient ring given by its dot (the
    sum of the products of two equally long sequences), neg and is_zero: field
    payloads, or polynomials.  Each entry is kept as its nonzero (index,
    coefficient) pairs and the lower half is derived with neg.  Each double
    bracket is expanded as [[e_a, e_b], e_c] = sum_m c_ab^m [e_m, e_c], so no
    vector is built, and each coordinate is one dot over its products.  Only
    the triples through a stored pair are visited: the sum vanishes on the rest.
    """
    full = [[()] * n for _ in range(n)]
    for (a, b), vec in upper.items():
        pairs = tuple((m, w) for m, w in enumerate(vec) if not is_zero(w))
        full[a][b] = pairs
        full[b][a] = tuple((m, neg(w)) for m, w in pairs)
    sums = {}
    for triple in sorted(_triples_through(upper, n)):
        i, j, k = triple
        terms = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, w in full[a][b]:
                for t, v in full[m][c]:
                    if t in terms:
                        ws, vs = terms[t]
                        ws.append(w)
                        vs.append(v)
                    else:
                        terms[t] = [w], [v]
        out = {}
        for t, (ws, vs) in terms.items():
            x = dot(ws, vs)
            if not is_zero(x):
                out[t] = x
        if out:
            sums[triple] = out
    return sums


def identity_defects(sums: dict, n: int, form: dict, add, neg, is_zero) -> dict:
    """The nonzero defects of the bracket identity on strictly increasing
    triples, in the shape of cyclic_sums: each cyclic sum minus
    form(i, j) e_k + form(j, k) e_i + form(k, i) e_j.  form maps ordered pairs
    (a, b), a != b, to the nonzero form values; a missing pair is zero.  Only
    the triples of sums and those through a form pair are visited."""
    if not form:
        return sums
    through = _triples_through([(a, b) for a, b in form if a < b], n)
    defects = {}
    for triple in sorted(through.union(sums)):
        i, j, k = triple
        out = dict(sums.get(triple, ()))
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            w = form.get((a, b))
            if w is not None:
                w = neg(w)
                out[c] = add(out[c], w) if c in out else w
        out = {t: x for t, x in out.items() if not is_zero(x)}
        if out:
            defects[triple] = out
    return defects


def ordered_defects(defects: dict, neg) -> list:
    """((i, j, k), defect) for every ordering of each triple in defects, in
    lexicographic order.  Both sides of the identity alternate in the triple,
    so an odd ordering takes the negated defect."""
    out = []
    for triple, defect in defects.items():
        negated = {t: neg(x) for t, x in defect.items()}
        for i, j, k in permutations(triple):
            out.append(((i, j, k), negated if ((i > j) + (i > k) + (j > k)) % 2 else defect))
    out.sort(key=lambda item: item[0])
    return out


@dataclass
class ValidationReport:
    ok: bool
    failures: list = dc_field(default_factory=list)  # [(triple, residual)]
    messages: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate(alg: OmegaAlgebra) -> ValidationReport:
    """Check the skew-form invariants and the omega-Jacobi identity on every
    ordered basis triple.

    The identity is evaluated on the strictly increasing triples only; the
    failures of every other order, by the sign of its permutation, are built
    only when some defect is nonzero."""
    report = ValidationReport(ok=True)
    n, field = alg.dim, alg.field
    SkewForm(alg.omega.matrix)  # re-verify rather than trust construction
    p, is_zero = alg.omega.matrix.payloads, field.is_zero
    form = {}
    for a in range(n):
        for b in range(a + 1, n):
            if not is_zero(p[a * n + b]):
                form[a, b], form[b, a] = p[a * n + b], p[b * n + a]
    defects = identity_defects(alg.sc._payload_sums(), n, form, field.add, field.neg, is_zero)
    if defects:
        zero = field.coerce(0)
        report.ok = False
        report.failures = [(triple, tuple(FieldElement(field, d.get(t, zero)) for t in range(n)))
                           for triple, d in ordered_defects(defects, field.neg)]
        report.messages.append(
            f"{len(report.failures)} basis triples violate the bracket identity")
    return report


def recover_omega(sc: StructureConstants) -> SkewForm:
    """The unique skew form making the bracket an omega-Lie algebra.

    On a strictly increasing triple i < j < k the identity says the cyclic
    bracket sum is form(i, j) e_k + form(j, k) e_i + form(k, i) e_j, so each
    form value is read off the first triple that holds its pair, and
    identity_defects checks the candidate: the form is unique from dimension 3
    on, so it passes exactly when a compatible form exists.  Raises ValueError
    when none does and below dimension 3.
    """
    n = sc.dim
    if n < 3:
        raise ValueError("no meaningful form below dimension 3")
    field = sc.field
    sums = sc._payload_sums()
    form = {}
    for (i, j, k), jac in sums.items():
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if c in jac and (a, b) not in form:
                form[a, b], form[b, a] = jac[c], field.neg(jac[c])
    if identity_defects(sums, n, form, field.add, field.neg, field.is_zero):
        raise ValueError("no compatible bilinear form exists")
    payloads = [field.zero.value] * (n * n)
    for (a, b), v in form.items():
        payloads[a * n + b] = v
    return SkewForm(_from_payloads(field, n, n, payloads))


def transform(g: GroupElement, alg: OmegaAlgebra) -> OmegaAlgebra:
    """The bracket moved by g: [x, y] -> g[g^-1 x, g^-1 y], form unchanged.

    With C the matrix whose columns are the basis brackets [e_i, e_j], i < j,
    the moved columns are G C L, where L is the second compound matrix of
    g^-1: [g^-1 e_i, g^-1 e_j] = sum over a < b of its 2x2 minor on rows
    a, b and columns i, j times [e_a, e_b].

    This is only the action: a stabilizer element maps omega-Lie brackets to
    omega-Lie brackets, and whoever returns the result verifies it.
    """
    if g.matrix.rows != alg.dim:
        raise ValueError("dimension mismatch between element and algebra")
    n, field = alg.dim, alg.field
    pairs = list(combinations(range(n), 2))
    zeros, table = (field.coerce(0),) * n, alg.sc._table
    brackets = [table.get(pair, zeros) for pair in pairs]
    c = _from_payloads(field, n, len(pairs), [vec[k] for k in range(n) for vec in brackets])
    moved = (g.matrix * c * g.inverse_matrix.second_compound()).payloads
    sc = StructureConstants._from_payloads(
        field, n, {pair: moved[t::len(pairs)] for t, pair in enumerate(pairs)})
    return OmegaAlgebra(field, sc, alg.omega)


def change_basis(g: GroupElement, alg: OmegaAlgebra) -> OmegaAlgebra:
    """Full base change: brackets moved as in transform, and the form moved to
    omega(g^-1 x, g^-1 y)."""
    moved = transform(g, alg)
    gi = g.inverse_matrix
    new_omega = SkewForm(gi.transpose() * alg.omega.matrix * gi)
    return OmegaAlgebra(alg.field, moved.sc, new_omega)


def in_stabilizer(g: GroupElement, omega: SkewForm) -> bool:
    """Whether g lies in the stabilizer of the form: g^t W g = W."""
    m = g.matrix
    if m.rows != omega.dim:
        raise ValueError("dimension mismatch")
    w = omega.matrix
    return m.transpose() * w * m == w


def derived_dimension(sc: StructureConstants) -> int:
    """Dimension of the span of all basis brackets [e_i, e_j], i < j: the rank
    of the stored ones, the others being zero."""
    rows = list(sc._table.values())
    return _from_payloads(sc.field, len(rows), sc.dim, [x for vec in rows for x in vec]).rank()


# ---------------------------------------------------------------------------
# algebra file format
# ---------------------------------------------------------------------------

def algebra_to_json(alg: OmegaAlgebra) -> str:
    n = alg.dim
    payload = {
        "field": alg.field.encode(),
        "dim": n,
        "omega": [[alg.omega(i, j).encode() for j in range(n)] for i in range(n)],
        "brackets": {f"{i},{j}": [c.encode() for c in alg.sc.bracket(i, j)]
                     for i in range(n) for j in range(i + 1, n)},
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _refuse_repeated_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key is refused, where
    json.loads would keep its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"the key {key!r} is repeated")
        out[key] = value
    return out


def algebra_from_json(text: str) -> OmegaAlgebra:
    """Parse the algebra format, rejecting invariant violations, repeated keys
    and wrong JSON types with ValueErrors naming the offending entry."""
    try:
        payload = json.loads(text, object_pairs_hook=_refuse_repeated_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("the algebra must be a JSON object")
    for key in ("field", "dim", "omega", "brackets"):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    if not isinstance(payload["field"], str):
        raise ValueError("'field' must be a descriptor string")
    field = parse_descriptor(payload["field"])
    n = payload["dim"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'dim' must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"'dim' must be at least 3, got {n}")
    omega_rows = payload["omega"]
    if (not isinstance(omega_rows, list) or len(omega_rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in omega_rows)):
        raise ValueError(f"'omega' must be a {n}x{n} matrix")
    omega_mat = Matrix.from_rows(
        field, [[_parse_scalar(field, x, "'omega'") for x in row] for row in omega_rows])
    omega = SkewForm(omega_mat)  # SkewForm names the offending entry
    if not isinstance(payload["brackets"], dict):
        raise ValueError("'brackets' must be an object mapping 'i,j' to coefficients")
    table = {}
    for key, coeffs in payload["brackets"].items():
        try:
            i_txt, j_txt = key.split(",")
            i, j = int(i_txt), int(j_txt)
        except ValueError:
            raise ValueError(f"bracket key {key!r} is not of the form 'i,j'") from None
        if not (0 <= i < j < n):
            raise ValueError(f"bracket key {key!r} must satisfy 0 <= i < j < {n}")
        if (i, j) in table:
            raise ValueError(f"bracket key {key!r} repeats the pair ({i},{j})")
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise ValueError(f"bracket {key!r} needs {n} coefficients")
        table[(i, j)] = tuple(_parse_scalar(field, x, f"bracket {key!r}") for x in coeffs)
    sc = StructureConstants(field, n, table)
    return OmegaAlgebra(field, sc, omega)


def _parse_scalar(field, text, where: str):
    if not isinstance(text, str):
        raise ValueError(f"bad field element in {where}: {text!r} is not a string")
    try:
        return field.parse(text)
    except ValueError as exc:
        raise ValueError(f"bad field element in {where}: {exc}") from None
    except ZeroDivisionError:
        raise ValueError(f"bad field element in {where}: {text!r} divides by zero") from None
