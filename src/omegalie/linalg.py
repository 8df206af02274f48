"""Exact dense matrix kernel: elimination, congruence reduction of skew forms,
and SL2 conjugacy canonical forms for trace -1 matrices."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .fields import FieldDescriptor, FieldElement, QuadExt, sqrt_or_extend


class Matrix:
    """A dense matrix over one field, stored row-major as raw payloads.

    Each entry is checked against the field once, when Matrix(...), from_rows
    or with_entry builds the matrix; kernel results are built from payloads
    unchecked.  Entries become FieldElements only when read through [i, j],
    row or col.
    """

    __slots__ = ("field", "rows", "cols", "payloads")

    def __init__(self, field: FieldDescriptor, rows: int, cols: int, entries):
        payloads = tuple(_payload(x, field) for x in entries)
        if len(payloads) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(payloads)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.payloads = payloads

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(field, r, c, [x for row in rows for x in row])

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one.value, field.zero.value
        return _from_payloads(field, n, n, [one if i == j else zero
                                            for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        return _from_payloads(field, rows, cols, [field.zero.value] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field, self.payloads[i * self.cols + j])

    def row(self, i):
        return self._wrap(self.payloads[i * self.cols:(i + 1) * self.cols])

    def col(self, j):
        return self._wrap(self.payloads[j::self.cols])

    def _wrap(self, payloads):
        field = self.field
        return tuple(FieldElement(field, x) for x in payloads)

    def with_entry(self, i, j, value):
        ent = list(self.payloads)
        ent[i * self.cols + j] = _payload(value, self.field)
        return _from_payloads(self.field, self.rows, self.cols, ent)

    def transpose(self):
        p, c = self.payloads, self.cols
        return _from_payloads(self.field, c, self.rows,
                              [x for j in range(c) for x in p[j::c]])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        _check_field(other, self.field)
        return _from_payloads(self.field, self.rows, self.cols,
                              list(map(self.field.sub, self.payloads, other.payloads)))

    def __mul__(self, other):
        field = self.field
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in product")
            _check_field(other, field)
            dot, a, b, n, k = field.dot, self.payloads, other.payloads, self.cols, other.cols
            cols = [b[j::k] for j in range(k)]
            out = [dot(a[i * n:(i + 1) * n], cj) for i in range(self.rows) for cj in cols]
            return _from_payloads(field, self.rows, k, out)
        if isinstance(other, (FieldElement, int)):
            mul, s = field.mul, _payload(other, field)
            return _from_payloads(field, self.rows, self.cols,
                                  [mul(a, s) for a in self.payloads])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.rows == self.rows
                and other.cols == self.cols and other.field == self.field
                and other.payloads == self.payloads)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.payloads))

    def embed(self, ext: QuadExt):
        if self.field != ext.base:
            raise ValueError(f"{self.field!r} is not the base of {ext!r}")
        zero = ext.base.zero.value
        return _from_payloads(ext, self.rows, self.cols,
                              [(a, zero) for a in self.payloads])

    def is_zero(self):
        return all(map(self.field.is_zero, self.payloads))

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        field = self.field
        pivots, product = _eliminate(_payload_rows(self, field), self.cols, field,
                                     clear_above=False)
        return FieldElement(field, product) if len(pivots) == self.rows else field.zero

    def rank(self):
        rows = _payload_rows(self, self.field)
        return len(_eliminate(rows, self.cols, self.field, clear_above=False)[0])

    def second_compound(self):
        """The matrix of 2x2 minors: its entry at ((a, b), (i, j)), over pairs
        a < b and i < j in lexicographic order, is the minor on rows a, b and
        columns i, j."""
        field = self.field
        mul, sub = field.mul, field.sub
        m = _payload_rows(self, field)
        rows = list(combinations(range(self.rows), 2))
        cols = list(combinations(range(self.cols), 2))
        return _from_payloads(field, len(rows), len(cols),
                              [sub(mul(m[a][i], m[b][j]), mul(m[b][i], m[a][j]))
                               for a, b in rows for i, j in cols])

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("non-square matrix")
        return solve(self, Matrix.identity(self.field, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(e.encode() for e in self.row(i))
                         for i in range(self.rows))
        return f"Matrix[{body}]"


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Unique solution X of A X = B by exact Gauss-Jordan elimination.

    Raises ValueError when no solution exists or when it is not unique (rank
    below the number of unknowns).
    """
    if a.rows != b.rows:
        raise ValueError("row mismatch between matrix and right-hand side")
    field = a.field
    m, k = a.cols, b.cols
    aug = [ra + rb for ra, rb in zip(_payload_rows(a, field), _payload_rows(b, field))]
    pivots, _ = _eliminate(aug, m, field, clear_above=True)
    if any(not field.is_zero(x) for row in aug[len(pivots):] for x in row[m:]):
        raise ValueError("no solution")
    if len(pivots) < m:
        raise ValueError("solution is not unique")
    mul = field.mul
    out = [None] * (m * k)
    for row, c in zip(aug, pivots):
        inv = field.inv(row[c])
        out[c * k:(c + 1) * k] = [mul(x, inv) for x in row[m:]]
    return _from_payloads(field, m, k, out)


def solve_vector(a: Matrix, rhs) -> tuple:
    col = Matrix(a.field, len(rhs), 1, list(rhs))
    sol = solve(a, col)
    return sol.col(0)


class SkewForm:
    """A skew-symmetric bilinear form with zero diagonal, stored as its matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if matrix.rows != matrix.cols:
            raise ValueError("form matrix must be square")
        n, p = matrix.rows, matrix.payloads
        neg, is_zero = matrix.field.neg, matrix.field.is_zero
        for i in range(n):
            if not is_zero(p[i * n + i]):
                raise ValueError(f"nonzero diagonal entry at ({i},{i})")
            for j in range(i + 1, n):
                if p[i * n + j] != neg(p[j * n + i]):
                    raise ValueError(f"entry ({i},{j}) is not the negative of ({j},{i})")
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


def skew_congruence_reduce(form: SkewForm) -> CongruenceResult:
    """Invertible Q with Q^t A Q = dia{J,..,J,0,..,0}.

    Pivot scan is first nonzero entry in row-major order within the still
    unreduced block, so the output is deterministic.  Each elementary step C
    acts in place, as A -> C^t A C on rows and columns and Q -> Q C on
    columns, at O(n^2) cost.
    """
    field = form.field
    dot, mul, neg, is_zero = field.dot, field.mul, field.neg, field.is_zero
    zero, one = field.zero.value, field.one.value
    n = form.dim
    m = _payload_rows(form.matrix, field)
    q = _payload_rows(Matrix.identity(field, n), field)
    offset = 0
    while offset < n - 1:
        piv = next(((i, j) for i in range(offset, n) for j in range(offset, n)
                    if not is_zero(m[i][j])), None)
        if piv is None:
            break
        i, j = piv  # i < j since earlier rows of the block are zero
        for src, dst in ((i, offset), (j, offset + 1)):
            if src != dst:
                m[src], m[dst] = m[dst], m[src]
                for row in m + q:
                    row[src], row[dst] = row[dst], row[src]
        a = m[offset][offset + 1]
        if a != one:
            s = field.inv(a)
            m[offset + 1] = [mul(x, s) for x in m[offset + 1]]
            for row in m + q:
                row[offset + 1] = mul(row[offset + 1], s)
        # clear the off-block B by C = [[I, J*B], [0, I]], u0 and u1 the rows of
        # J*B: the column step zeroes B, so by skew symmetry the row step only
        # zeroes its mirror image below the J block.  A row whose pivot pair
        # r0, r1 is zero is left as it is; each other entry is one dot
        rest = range(offset + 2, n)
        u0 = list(m[offset + 1])
        u1 = [neg(x) for x in m[offset]]
        for row in m + q:
            r0, r1 = row[offset], row[offset + 1]
            if is_zero(r0) and is_zero(r1):
                continue
            coeffs = (one, r0, r1)
            for c in rest:
                row[c] = dot((row[c], u0[c], u1[c]), coeffs)
        for c in rest:
            m[c][offset] = m[c][offset + 1] = zero
        offset += 2
    return CongruenceResult(q=_from_payloads(field, n, n, [x for row in q for x in row]),
                            rank=offset)


def _eliminate(rows, ncols, field, clear_above):
    """Gaussian elimination of mutable payload rows, in place.

    Each of the first ncols columns takes the first nonzero entry at or below
    the next pivot row as its pivot, swapped up, and clears the column below
    it, and above it too when clear_above is set (Gauss-Jordan, which solve
    needs and det and rank do not); columns past ncols (a right-hand side)
    are carried along.  Pivots are not scaled, and clearing above does not
    change them.  Returns the pivot columns in order, and the product of the
    pivots with its sign flipped once per row swap: the determinant when the
    rows are square and every column has a pivot.
    """
    add, mul, neg, is_zero = field.add, field.mul, field.neg, field.is_zero
    nrows = len(rows)
    pivots = []
    product = field.one.value
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nrows) if not is_zero(rows[i][c])), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            product = neg(product)
        pivot_row = rows[r]
        product = mul(product, pivot_row[c])
        inv = field.inv(pivot_row[c])
        for row in (rows[:r] + rows[r + 1:]) if clear_above else rows[r + 1:]:
            if not is_zero(row[c]):
                f = neg(mul(row[c], inv))
                for j in range(c, len(row)):
                    row[j] = add(row[j], mul(f, pivot_row[j]))
        pivots.append(c)
        if r + 1 == nrows:
            break
    return pivots, product


def _payload(x, field):
    """The payload of a scalar, checked to lie in field; ints are coerced."""
    if isinstance(x, FieldElement):
        if x.field is not field and x.field != field:
            raise ValueError(f"mixed fields: {field!r} and {x.field!r}")
        return x.value
    return field.coerce(x)


def _check_field(m: Matrix, field):
    if m.field is not field and m.field != field:
        raise ValueError(f"mixed fields: {field!r} and {m.field!r}")


def _payload_rows(m: Matrix, field) -> list:
    """The payloads of m, which must lie over field, as fresh mutable rows."""
    _check_field(m, field)
    p, c = m.payloads, m.cols
    return [list(p[i * c:(i + 1) * c]) for i in range(m.rows)]


def _from_payloads(field, rows, cols, payloads) -> Matrix:
    """A Matrix of payloads already known to lie in field, built unchecked."""
    m = object.__new__(Matrix)
    m.field, m.rows, m.cols, m.payloads = field, rows, cols, tuple(payloads)
    return m


# ---------------------------------------------------------------------------
# SL2 conjugacy canonical forms for trace -1 matrices
# ---------------------------------------------------------------------------

def _eigenvector_2x2(m: Matrix, lam: FieldElement):
    """Kernel vector of (m - lam I), scaled so its first nonzero entry is 1."""
    a, b = m[0, 0] - lam, m[0, 1]
    c, d = m[1, 0], m[1, 1] - lam
    if not b.is_zero() or not a.is_zero():
        v = (b, -a)
    else:
        v = (d, -c)
    lead = v[0] if not v[0].is_zero() else v[1]
    inv = lead.inverse()
    return (v[0] * inv, v[1] * inv)


def sl2_diagonalize(m: Matrix, b: FieldElement) -> Matrix:
    """P with det(P) = 1 and P^-1 m P = dia{b, -(b+1)}, for a 2x2 trace -1
    matrix m whose eigenvalues b and -(b+1) are distinct and lie in its field.

    P is assembled from eigenvectors, the second column rescaled by 1/det so
    that no square root is needed.
    """
    vb = _eigenvector_2x2(m, b)
    vc = _eigenvector_2x2(m, -(b + 1))
    dinv = (vb[0] * vc[1] - vb[1] * vc[0]).inverse()
    return Matrix.from_rows(m.field, [[vb[0], vc[0] * dinv], [vb[1], vc[1] * dinv]])


def sl2_jordan(m: Matrix) -> Matrix:
    """P with det(P) = 1 and P^-1 m P = [[-1/2, 1], [0, -1/2]], for a 2x2
    matrix m other than -I/2 whose only eigenvalue is -1/2.

    v = (m + I/2) w spans both the image and the kernel of m + I/2, and P is
    [v w] scaled by a square root of its determinant.  When that root needs a
    quadratic extension, P lives over it.
    """
    field = m.field
    half = -field.one / 2
    shifted = m - Matrix.from_rows(field, [[half, field.zero], [field.zero, half]])
    w, v = (field.one, field.zero), shifted.col(0)
    if v[0].is_zero() and v[1].is_zero():
        w, v = (field.zero, field.one), shifted.col(1)
    sinv = sqrt_or_extend(v[0] * w[1] - v[1] * w[0]).inverse()
    if sinv.field != field:
        v, w = (tuple(sinv.field.embed(x) for x in vec) for vec in (v, w))
    return Matrix.from_rows(sinv.field, [[v[0] * sinv, w[0] * sinv],
                                         [v[1] * sinv, w[1] * sinv]])
