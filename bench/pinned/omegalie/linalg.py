"""Exact dense matrix kernel: elimination, congruence reduction of skew forms,
and SL2 conjugacy canonical forms for trace -1 matrices."""

from __future__ import annotations

from dataclasses import dataclass

from .fields import (
    ExtensionRequired,
    FieldDescriptor,
    FieldElement,
    QuadExt,
    quadratic_roots,
    sqrt_or_extend,
)


class SingularMatrix(Exception):
    pass


class InconsistentSystem(Exception):
    pass


class NotSkew(Exception):
    pass


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldDescriptor, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            for x in row:
                flat.append(x if isinstance(x, FieldElement) else field.elem(x))
        return cls(field, r, c, flat)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, n, n, [one if i == j else zero
                                 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        zero = field.zero
        return cls(field, rows, cols, [zero] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def with_entry(self, i, j, value):
        ent = list(self.entries)
        ent[i * self.cols + j] = value
        return Matrix(self.field, self.rows, self.cols, ent)

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [self[j, i] for i in range(self.cols) for j in range(self.rows)])

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(self.field, self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols, [-a for a in self.entries])

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            out = []
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    acc = self.field.zero
                    for k in range(self.cols):
                        acc = acc + ri[k] * other[k, j]
                    out.append(acc)
            return Matrix(self.field, self.rows, other.cols, out)
        if isinstance(other, FieldElement) or isinstance(other, int):
            s = other if isinstance(other, FieldElement) else self.field.elem(other)
            return Matrix(self.field, self.rows, self.cols,
                          [a * s for a in self.entries])
        return NotImplemented

    __rmul__ = __mul__

    def apply(self, vec):
        """Matrix times coefficient vector (a tuple), returning a tuple."""
        if len(vec) != self.cols:
            raise ValueError("length mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            acc = self.field.zero
            for k in range(self.cols):
                acc = acc + ri[k] * vec[k]
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.rows == self.rows
                and other.cols == self.cols and other.field == self.field
                and other.entries == self.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def map_entries(self, fn, field=None):
        return Matrix(field or self.field, self.rows, self.cols,
                      [fn(a) for a in self.entries])

    def embed(self, ext: QuadExt):
        return self.map_entries(ext.embed, field=ext)

    def is_zero(self):
        return all(a.is_zero() for a in self.entries)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        m = [list(self.row(i)) for i in range(n)]
        det = self.field.one
        for c in range(n):
            piv = next((r for r in range(c, n) if not m[r][c].is_zero()), None)
            if piv is None:
                return self.field.zero
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].inverse()
            for r in range(c + 1, n):
                if m[r][c].is_zero():
                    continue
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] = m[r][k] - f * m[c][k]
        return det

    def rank(self):
        m = [list(self.row(i)) for i in range(self.rows)]
        rank = 0
        for c in range(self.cols):
            piv = next((r for r in range(rank, self.rows) if not m[r][c].is_zero()), None)
            if piv is None:
                continue
            m[rank], m[piv] = m[piv], m[rank]
            inv = m[rank][c].inverse()
            for r in range(self.rows):
                if r != rank and not m[r][c].is_zero():
                    f = m[r][c] * inv
                    for k in range(c, self.cols):
                        m[r][k] = m[r][k] - f * m[rank][k]
            rank += 1
            if rank == self.rows:
                break
        return rank

    def inverse(self):
        if self.rows != self.cols:
            raise SingularMatrix("non-square matrix")
        try:
            return solve(self, Matrix.identity(self.field, self.rows))
        except (InconsistentSystem, SingularMatrix):
            raise SingularMatrix("matrix is not invertible") from None

    def __repr__(self):
        body = "; ".join(" ".join(e.encode() for e in self.row(i))
                         for i in range(self.rows))
        return f"Matrix[{body}]"


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Unique solution X of A X = B by exact Gaussian elimination.

    Raises InconsistentSystem when no solution exists and SingularMatrix when
    the solution is not unique (rank below the number of unknowns).
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch between matrix and right-hand side")
    n, m, k = a.rows, a.cols, b.cols
    aug = [list(a.row(i)) + list(b.row(i)) for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if not aug[i][c].is_zero()), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, n):
        if any(not aug[i][m + j].is_zero() for j in range(k)):
            raise InconsistentSystem("no solution")
    if len(pivots) < m:
        raise SingularMatrix("solution is not unique")
    out = [[None] * k for _ in range(m)]
    for row_idx, c in enumerate(pivots):
        for j in range(k):
            out[c][j] = aug[row_idx][m + j]
    return Matrix.from_rows(a.field, out)


def solve_vector(a: Matrix, rhs) -> tuple:
    col = Matrix(a.field, len(rhs), 1, list(rhs))
    sol = solve(a, col)
    return sol.col(0)


class SkewForm:
    """A skew-symmetric bilinear form with zero diagonal, stored as its matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if matrix.rows != matrix.cols:
            raise NotSkew("form matrix must be square")
        n = matrix.rows
        for i in range(n):
            if not matrix[i, i].is_zero():
                raise NotSkew(f"nonzero diagonal entry at ({i},{i})")
            for j in range(i + 1, n):
                if matrix[i, j] != -matrix[j, i]:
                    raise NotSkew(f"entry ({i},{j}) is not the negative of ({j},{i})")
        self.matrix = matrix

    @property
    def dim(self):
        return self.matrix.rows

    @property
    def field(self):
        return self.matrix.field

    def __call__(self, i, j):
        return self.matrix[i, j]

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return isinstance(other, SkewForm) and other.matrix == self.matrix

    def __hash__(self):
        return hash(self.matrix)

    def embed(self, ext):
        return SkewForm(self.matrix.embed(ext))

    def __repr__(self):
        return f"SkewForm({self.matrix!r})"


def standard_j(field, n, rank) -> Matrix:
    """dia{J,...,J,0,...,0} with rank/2 blocks J = [[0,1],[-1,0]]."""
    if rank % 2 or rank > n:
        raise ValueError("rank must be even and at most the dimension")
    m = Matrix.zeros(field, n, n)
    for b in range(rank // 2):
        m = m.with_entry(2 * b, 2 * b + 1, field.one)
        m = m.with_entry(2 * b + 1, 2 * b, -field.one)
    return m


@dataclass(frozen=True)
class CongruenceResult:
    q: Matrix
    rank: int


def _congruence(m: Matrix, c: Matrix) -> Matrix:
    return c.transpose() * m * c


def skew_congruence_reduce(form: SkewForm) -> CongruenceResult:
    """Invertible Q with Q^t A Q = dia{J,..,J,0,..,0}.

    Pivot scan is first nonzero entry in row-major order within the still
    unreduced block, so the output is deterministic.
    """
    field = form.field
    n = form.dim
    m = form.matrix
    q = Matrix.identity(field, n)
    offset = 0
    while offset < n - 1:
        piv = None
        for i in range(offset, n):
            for j in range(offset, n):
                if not m[i, j].is_zero():
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv  # i < j since earlier rows of the block are zero
        if i != offset:
            perm = _swap_matrix(field, n, i, offset)
            m = _congruence(m, perm)
            q = q * perm
        if j != offset + 1:
            perm = _swap_matrix(field, n, j, offset + 1)
            m = _congruence(m, perm)
            q = q * perm
        a = m[offset, offset + 1]
        if a != field.one:
            scale = Matrix.identity(field, n).with_entry(offset + 1, offset + 1,
                                                         a.inverse())
            m = _congruence(m, scale)
            q = q * scale
        # clear the off-blocks: top block is now J, so U = [[I, J*B],[0, I]]
        if offset + 2 < n:
            u = Matrix.identity(field, n)
            for col in range(offset + 2, n):
                # (J*B) rows: J * (B column) where B[r][col] = m[offset+r, col]
                u = u.with_entry(offset, col, m[offset + 1, col])
                u = u.with_entry(offset + 1, col, -m[offset, col])
            m = _congruence(m, u)
            q = q * u
        offset += 2
    return CongruenceResult(q=q, rank=offset)


def _swap_matrix(field, n, i, j):
    m = Matrix.identity(field, n)
    m = m.with_entry(i, i, field.zero).with_entry(j, j, field.zero)
    m = m.with_entry(i, j, field.one).with_entry(j, i, field.one)
    return m


# ---------------------------------------------------------------------------
# SL2 conjugacy canonical forms for trace -1 matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sl2Canonical:
    kind: str  # "distinct" | "scalar_half" | "jordan_half"
    p: Matrix  # det(p) = 1, p^{-1} M p is the canonical form
    b: FieldElement | None = None  # first diagonal entry for "distinct"
    extension: tuple | None = None  # minpoly (c0, c1) if the field was extended

    def canonical_matrix(self) -> Matrix:
        field = self.p.field
        half = field.one / 2
        if self.kind == "distinct":
            return Matrix.from_rows(field, [[self.b, field.zero],
                                            [field.zero, -(self.b + 1)]])
        if self.kind == "scalar_half":
            return Matrix.from_rows(field, [[-half, field.zero], [field.zero, -half]])
        return Matrix.from_rows(field, [[-half, field.one], [field.zero, -half]])


def _eigenvector_2x2(m: Matrix, lam: FieldElement):
    """Kernel vector of (m - lam I), scaled so its first nonzero entry is 1."""
    a, b = m[0, 0] - lam, m[0, 1]
    c, d = m[1, 0], m[1, 1] - lam
    if not b.is_zero() or not a.is_zero():
        v = (b, -a)
    else:
        v = (d, -c)
    if v[0].is_zero() and v[1].is_zero():
        # m is lam * I; any vector works
        v = (m.field.one, m.field.zero)
    lead = v[0] if not v[0].is_zero() else v[1]
    inv = lead.inverse()
    return (v[0] * inv, v[1] * inv)


def _element_key(e: FieldElement) -> str:
    return e.encode()


def pair_min(a: FieldElement, b: FieldElement) -> FieldElement:
    """Deterministic pick from a two-element set: smaller text encoding."""
    return a if _element_key(a) <= _element_key(b) else b


def sl2_trace_minus_one_canonical(m: Matrix, allow_extension: bool = False,
                                  first_eigenvalue: FieldElement | None = None,
                                  ) -> Sl2Canonical:
    """Conjugate a 2x2 trace -1 matrix to its SL2 canonical form.

    Distinct eigenvalues b != -(b+1): P is assembled from eigenvectors with
    the second column rescaled by 1/det so that det(P) = 1 (no square root).
    Double eigenvalue -1/2: either the scalar matrix itself or the Jordan
    block, the latter needing one square root (possibly a field extension).

    The orientation of the distinct-diagonal case is first_eigenvalue when
    given; otherwise the existing order for an already diagonal input, and
    the encoding-minimal member of the eigenvalue pair in general.
    """
    field = m.field
    if m.rows != 2 or m.cols != 2:
        raise ValueError("2x2 matrix required")
    if m[0, 0] + m[1, 1] != -field.one:
        raise ValueError("trace must be -1")
    delta = m.det()
    report = quadratic_roots(delta)
    extension = None

    if report.kind == "needs_extension":
        if not allow_extension:
            raise ExtensionRequired(*report.minpoly)
        ext = report.extension()
        extension = report.minpoly
        roots = report.roots_in_extension(ext)
        m = m.embed(ext)
        field = ext
        if first_eigenvalue is not None:
            raise ValueError("cannot prescribe a base-field eigenvalue that "
                             "requires an extension")
    elif report.kind == "two_roots":
        roots = report.roots
    else:
        half = -field.one / 2
        scalar = Matrix.from_rows(field, [[half, field.zero], [field.zero, half]])
        if m == scalar:
            return Sl2Canonical("scalar_half", Matrix.identity(field, 2))
        # Jordan case: v spans both the image and the kernel of (m + I/2)
        shifted = m - scalar
        w = (field.one, field.zero)
        v = shifted.apply(w)
        if v[0].is_zero() and v[1].is_zero():
            w = (field.zero, field.one)
            v = shifted.apply(w)
        d0 = v[0] * w[1] - v[1] * w[0]
        sq = sqrt_or_extend(d0)
        if sq.kind == "needs_extension":
            if not allow_extension:
                raise ExtensionRequired(*sq.minpoly)
            ext = sq.extension()
            extension = sq.minpoly
            s = sq.root_in_extension(ext)
            v = tuple(ext.embed(x) for x in v)
            w = tuple(ext.embed(x) for x in w)
            m = m.embed(ext)
            field = ext
        else:
            s = sq.root
        sinv = s.inverse()
        p = Matrix.from_rows(field, [[v[0] * sinv, w[0] * sinv],
                                     [v[1] * sinv, w[1] * sinv]])
        return Sl2Canonical("jordan_half", p, extension=extension)

    r1, r2 = roots
    if first_eigenvalue is not None:
        if first_eigenvalue == r1:
            b, c = r1, r2
        elif first_eigenvalue == r2:
            b, c = r2, r1
        else:
            raise ValueError("prescribed value is not an eigenvalue")
    elif m[0, 1].is_zero() and m[1, 0].is_zero():
        b, c = m[0, 0], m[1, 1]
    else:
        b = pair_min(r1, r2)
        c = r2 if b == r1 else r1
    vb = _eigenvector_2x2(m, b)
    vc = _eigenvector_2x2(m, c)
    d0 = vb[0] * vc[1] - vb[1] * vc[0]
    dinv = d0.inverse()
    p = Matrix.from_rows(field, [[vb[0], vc[0] * dinv], [vb[1], vc[1] * dinv]])
    return Sl2Canonical("distinct", p, b=b, extension=extension)
