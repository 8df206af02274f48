"""Core omega-Lie algebra model: structure constants, validation of the
omega-Jacobi identity, recovery of the unique compatible bilinear form, the
stabilizer action on brackets, and the algebra file format."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import combinations, permutations

from .fields import FieldDescriptor, FieldElement, parse_descriptor
from .linalg import Matrix, SingularMatrix, SkewForm


class DimensionTooSmall(Exception):
    pass


class NoSolution(Exception):
    """No bilinear form makes the given bracket an omega-Lie algebra."""


class StructureConstants:
    """Antisymmetric bracket tensor: [e_i, e_j] = sum_k c[i][j][k] e_k.

    Only the i < j half is stored; the other half is derived by sign, which
    makes antisymmetry structural.
    """

    __slots__ = ("field", "dim", "_table")

    def __init__(self, field: FieldDescriptor, dim: int, table: dict):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.field = field
        self.dim = dim
        zero_vec = (field.zero,) * dim
        clean = {}
        for (i, j), vec in table.items():
            if not (0 <= i < j < dim):
                raise IndexError(f"bracket key ({i},{j}) out of range for i<j<{dim}")
            vec = tuple(v if isinstance(v, FieldElement) else field.elem(v)
                        for v in vec)
            if len(vec) != dim:
                raise ValueError(f"bracket ({i},{j}) must have {dim} coefficients")
            if vec != zero_vec:
                clean[(i, j)] = vec
        self._table = clean

    def bracket(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as a coefficient tuple (sign handled for i > j)."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"basis index out of range: ({i},{j})")
        if i == j:
            return (self.field.zero,) * self.dim
        if i < j:
            return self._table.get((i, j), (self.field.zero,) * self.dim)
        vec = self._table.get((j, i))
        if vec is None:
            return (self.field.zero,) * self.dim
        return tuple(-v for v in vec)

    def entries(self):
        return dict(self._table)

    def embed(self, ext):
        return StructureConstants(
            ext, self.dim,
            {k: tuple(ext.embed(v) for v in vec) for k, vec in self._table.items()})

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
        return OmegaAlgebra(ext, self.sc.embed(ext), self.omega.embed(ext))


class GroupElement:
    """An invertible basis transformation with its inverse cached."""

    __slots__ = ("matrix", "inverse_matrix")

    def __init__(self, matrix: Matrix, inverse_matrix: Matrix | None = None):
        if inverse_matrix is None:
            inverse_matrix = matrix.inverse()
        else:
            n = matrix.rows
            if matrix * inverse_matrix != Matrix.identity(matrix.field, n):
                raise SingularMatrix("supplied inverse is wrong")
        self.matrix = matrix
        self.inverse_matrix = inverse_matrix

    @classmethod
    def _pair(cls, matrix: Matrix, inverse_matrix: Matrix) -> "GroupElement":
        """An element from a pair already known to be mutually inverse: the
        identity, or checked pairs swapped, embedded or composed.  It is not
        multiplied back; classify and iso_witness re-verify every witness they
        return through change_basis, which uses both matrices."""
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
    """Coordinates of [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j].

    full is a basis-bracket table as from full_bracket_table; its entries may
    be field elements or polynomials.  Each double bracket is expanded as
    [[e_a, e_b], e_c] = sum_m c_ab^m [e_m, e_c], so no vector is built.
    """
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
    in lexicographic order.  The defect is the cyclic bracket sum minus
    form(i, j) e_k + form(j, k) e_i + form(k, i) e_j.

    Both sides alternate in the triple, so only strictly increasing triples
    are evaluated and every other order takes the sign of its permutation.
    Triples with a repeated index are left out: their defect vanishes for an
    antisymmetric bracket and a skew form.
    """
    increasing = {}
    for triple in permutations(range(len(full)), 3):
        i, j, k = triple
        if i < j < k:
            defect = cyclic_bracket_sum(full, zero, i, j, k)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                w = form(a, b)
                if not w.is_zero():
                    defect[c] = defect[c] - w
            defect = increasing[triple] = tuple(defect)
        else:
            defect = increasing[tuple(sorted(triple))]
            if ((i > j) + (i > k) + (j > k)) % 2:
                defect = tuple(-x for x in defect)
        yield triple, defect


@dataclass
class ValidationReport:
    ok: bool
    failures: list = dc_field(default_factory=list)  # [(triple, residual)]
    messages: list = dc_field(default_factory=list)

    def __bool__(self):
        return self.ok


def validate(alg: OmegaAlgebra) -> ValidationReport:
    """Check the skew-form invariants, bracket antisymmetry through the public
    accessor, and the omega-Jacobi identity on every ordered basis triple."""
    report = ValidationReport(ok=True)
    n = alg.dim
    SkewForm(alg.omega.matrix)  # re-verify rather than trust construction
    for i in range(n):
        if any(not v.is_zero() for v in alg.sc.bracket(i, i)):
            report.ok = False
            report.messages.append(f"[e_{i}, e_{i}] is nonzero")
        for j in range(i + 1, n):
            fwd, bwd = alg.sc.bracket(i, j), alg.sc.bracket(j, i)
            if tuple(-v for v in fwd) != bwd:
                report.ok = False
                report.messages.append(f"brackets ({i},{j}) and ({j},{i}) not opposite")
    zero = alg.field.zero
    full = full_bracket_table(alg.sc.entries(), zero, n)
    for triple, res in jacobi_defects(full, alg.omega, zero):
        if any(not x.is_zero() for x in res):
            report.ok = False
            report.failures.append((triple, res))
    if report.failures:
        report.messages.append(
            f"{len(report.failures)} basis triples violate the bracket identity")
    return report


def recover_omega(sc: StructureConstants) -> SkewForm:
    """The unique skew form making the bracket an omega-Lie algebra.

    On a strictly increasing triple i < j < k the identity says the cyclic
    bracket sum is form(i, j) e_k + form(j, k) e_i + form(k, i) e_j, so every
    form value is read off the first triple that holds its pair, and every
    triple's sum is checked against the values read.  Raises NoSolution when
    they disagree and DimensionTooSmall below dimension 3.
    """
    n = sc.dim
    if n < 3:
        raise DimensionTooSmall("no meaningful form below dimension 3")
    field = sc.field
    zero = field.zero
    full = full_bracket_table(sc.entries(), zero, n)
    rows = [[zero if a == b else None for b in range(n)] for a in range(n)]
    for i, j, k in combinations(range(n), 3):
        jac = cyclic_bracket_sum(full, zero, i, j, k)
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            if rows[a][b] is None:
                rows[a][b], rows[b][a] = jac[c], -jac[c]
            elif rows[a][b] != jac[c]:
                raise NoSolution("no compatible bilinear form exists")
            jac[c] = zero
        if any(not x.is_zero() for x in jac):
            raise NoSolution("no compatible bilinear form exists")
    return SkewForm(Matrix.from_rows(field, rows))


def transform(g: GroupElement, alg: OmegaAlgebra,
              check: bool = True) -> OmegaAlgebra:
    """The bracket moved by g: [x, y] -> g[g^-1 x, g^-1 y], form unchanged.

    With C the matrix whose columns are the basis brackets [e_i, e_j], i < j,
    the moved columns are G C L, where L is the second compound matrix of
    g^-1: [g^-1 e_i, g^-1 e_j] = sum over a < b of its 2x2 minor on rows
    a, b and columns i, j times [e_a, e_b].

    When g preserves the form, the result is re-checked to satisfy the
    bracket identity (cheap: only strictly increasing triples are evaluated).
    """
    if g.matrix.rows != alg.dim:
        raise ValueError("dimension mismatch between element and algebra")
    n = alg.dim
    pairs = list(combinations(range(n), 2))
    brackets = [alg.sc.bracket(i, j) for i, j in pairs]
    c = Matrix(alg.field, n, len(pairs), [vec[k] for k in range(n) for vec in brackets])
    moved = g.matrix * c * g.inverse_matrix.second_compound()
    sc = StructureConstants(alg.field, n,
                            {pair: moved.col(t) for t, pair in enumerate(pairs)})
    out = OmegaAlgebra(alg.field, sc, alg.omega)
    if check and in_stabilizer(g, alg.omega):
        zero = alg.field.zero
        defects = jacobi_defects(full_bracket_table(sc.entries(), zero, n), alg.omega, zero)
        if any(not x.is_zero() for _, res in defects for x in res):
            raise AssertionError("stabilizer action broke the bracket identity")
    return out


def change_basis(g: GroupElement, alg: OmegaAlgebra) -> OmegaAlgebra:
    """Full base change: brackets moved as in transform, and the form moved to
    omega(g^-1 x, g^-1 y)."""
    moved = transform(g, alg, check=False)
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
    """Dimension of the span of all basis brackets [e_i, e_j], i < j."""
    rows = [sc.bracket(i, j) for i in range(sc.dim) for j in range(i + 1, sc.dim)]
    if not rows:
        return 0
    return Matrix.from_rows(sc.field, rows).rank()


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


def algebra_from_json(text: str) -> OmegaAlgebra:
    """Parse the algebra format, rejecting invariant violations and wrong JSON
    types with ValueErrors naming the offending entry."""
    try:
        payload = json.loads(text)
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
    omega = SkewForm(omega_mat)  # NotSkew names the offending entry
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
