"""Exact arithmetic written independently of omegalie.

The benchmark generates its inputs and checks the library's outputs with
these helpers, so a wrong answer cannot be confirmed by the code that
produced it.  Scalars are plain payloads: ``Fraction`` over Q, ``int`` in
``[0, p)`` over F_p, and a pair ``(a, b)`` meaning ``a + b*t`` over a
quadratic extension with ``t^2 + c1*t + c0 = 0``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class Arith:
    """Field operations on payloads: Q (p is None), F_p, or base(t)."""

    def __init__(self, p=None, minpoly=None):
        self.p = p
        self.minpoly = minpoly  # (c0, c1) as base payloads, or None

    # -- base field ----------------------------------------------------------

    def base(self, x):
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return x % self.p

    def _badd(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def _bmul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def _bneg(self, a):
        return -a if self.p is None else -a % self.p

    # -- the field itself ----------------------------------------------------

    def coerce(self, x):
        if self.minpoly is None:
            return self.base(x)
        if isinstance(x, tuple):
            return (self.base(x[0]), self.base(x[1]))
        return (self.base(x), self.base(0))

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def add(self, a, b):
        if self.minpoly is None:
            return self._badd(a, b)
        return (self._badd(a[0], b[0]), self._badd(a[1], b[1]))

    def neg(self, a):
        if self.minpoly is None:
            return self._bneg(a)
        return (self._bneg(a[0]), self._bneg(a[1]))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.minpoly is None:
            return self._bmul(a, b)
        c0, c1 = self.minpoly
        tt = self._bmul(a[1], b[1])  # t^2 = -c1*t - c0
        lin = self._badd(self._bmul(a[0], b[1]), self._bmul(a[1], b[0]))
        return (self._badd(self._bmul(a[0], b[0]), self._bneg(self._bmul(tt, c0))),
                self._badd(lin, self._bneg(self._bmul(tt, c1))))

    def inv(self, a):
        """Inverse in the base field (extension scalars are never inverted)."""
        if self.minpoly is not None:
            raise TypeError("inverse of an extension scalar is not needed")
        if self.p is None:
            return 1 / a
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == self.zero

    def encode(self, a):
        """The text form the algebra file format expects."""
        if self.minpoly is not None:
            raise TypeError("inputs live in the base field")
        return str(a)


def arith_of(field) -> Arith:
    """An Arith matching a library field descriptor, read off its parameters."""
    if hasattr(field, "base"):
        inner = arith_of(field.base)
        return Arith(inner.p, (field.c0, field.c1))
    return Arith(getattr(field, "p", None))


# ---------------------------------------------------------------------------
# square roots in the base field
# ---------------------------------------------------------------------------

def base_sqrt(ar: Arith, a):
    """A square root of a base payload, or None when it is a non-square."""
    if ar.p is None:
        if a < 0:
            return None
        n, d = a.numerator, a.denominator
        rn, rd = isqrt(n), isqrt(d)
        return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None
    if a == 0:
        return 0
    if pow(a, (ar.p - 1) // 2, ar.p) != 1:
        return None
    return next(r for r in range(ar.p) if r * r % ar.p == a)


# ---------------------------------------------------------------------------
# matrices as lists of rows of payloads
# ---------------------------------------------------------------------------

def matmul(ar: Arith, a, b):
    inner, cols = len(b), len(b[0])
    out = []
    for row in a:
        line = []
        for j in range(cols):
            acc = ar.zero
            for k in range(inner):
                acc = ar.add(acc, ar.mul(row[k], b[k][j]))
            line.append(acc)
        out.append(line)
    return out


def transpose(m):
    return [list(col) for col in zip(*m)]


def identity(ar: Arith, n):
    return [[ar.one if i == j else ar.zero for j in range(n)] for i in range(n)]


def block_j(ar: Arith, n, rank):
    """dia{J,...,J,0,...,0} with rank/2 blocks J = [[0,1],[-1,0]]."""
    m = [[ar.zero] * n for _ in range(n)]
    for b in range(rank // 2):
        m[2 * b][2 * b + 1] = ar.one
        m[2 * b + 1][2 * b] = ar.neg(ar.one)
    return m


def _eliminate(ar: Arith, m, rhs=None):
    """Gauss-Jordan over the base field: (det, reduced rhs or None)."""
    n = len(m)
    m = [list(r) for r in m]
    rhs = None if rhs is None else [list(r) for r in rhs]
    det = ar.one
    for c in range(n):
        piv = next((r for r in range(c, n) if not ar.is_zero(m[r][c])), None)
        if piv is None:
            return ar.zero, None
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            if rhs is not None:
                rhs[c], rhs[piv] = rhs[piv], rhs[c]
            det = ar.neg(det)
        det = ar.mul(det, m[c][c])
        inv = ar.inv(m[c][c])
        m[c] = [ar.mul(x, inv) for x in m[c]]
        if rhs is not None:
            rhs[c] = [ar.mul(x, inv) for x in rhs[c]]
        for r in range(n):
            if r != c and not ar.is_zero(m[r][c]):
                f = m[r][c]
                m[r] = [ar.sub(x, ar.mul(f, y)) for x, y in zip(m[r], m[c])]
                if rhs is not None:
                    rhs[r] = [ar.sub(x, ar.mul(f, y)) for x, y in zip(rhs[r], rhs[c])]
    return det, rhs


def det(ar: Arith, m):
    if ar.minpoly is None:
        return _eliminate(ar, m)[0]
    if len(m) != 3:
        raise ValueError("extension determinants are only taken for 3x3 witnesses")
    (a, b, c), (d, e, f), (g, h, i) = m
    terms = (ar.mul(a, ar.sub(ar.mul(e, i), ar.mul(f, h))),
             ar.neg(ar.mul(b, ar.sub(ar.mul(d, i), ar.mul(f, g)))),
             ar.mul(c, ar.sub(ar.mul(d, h), ar.mul(e, g))))
    return ar.add(ar.add(terms[0], terms[1]), terms[2])


def inverse(ar: Arith, m):
    d, inv = _eliminate(ar, m, identity(ar, len(m)))
    if inv is None:
        raise ZeroDivisionError("singular matrix")
    return inv


def random_invertible(ar: Arith, n, rand):
    while True:
        m = [[rand() for _ in range(n)] for _ in range(n)]
        if not ar.is_zero(det(ar, m)):
            return m


# ---------------------------------------------------------------------------
# algebras as (table, omega): table maps (i, j), i < j, to a coefficient list
# ---------------------------------------------------------------------------

def bracket(ar: Arith, table, n, u, v):
    """[u, v] for coefficient vectors u and v."""
    out = [ar.zero] * n
    for (i, j), vec in table.items():
        coeff = ar.sub(ar.mul(u[i], v[j]), ar.mul(u[j], v[i]))
        if ar.is_zero(coeff):
            continue
        for k in range(n):
            out[k] = ar.add(out[k], ar.mul(coeff, vec[k]))
    return out


def apply(ar: Arith, m, vec):
    out = []
    for row in m:
        acc = ar.zero
        for a, x in zip(row, vec):
            acc = ar.add(acc, ar.mul(a, x))
        out.append(acc)
    return out


def move(ar: Arith, table, omega, g):
    """The algebra carried by the invertible g: [x,y]' = g[g^-1 x, g^-1 y] and
    omega'(x, y) = omega(g^-1 x, g^-1 y)."""
    n = len(g)
    gi = inverse(ar, g)
    cols = transpose(gi)
    moved = {(i, j): apply(ar, g, bracket(ar, table, n, cols[i], cols[j]))
             for i in range(n) for j in range(i + 1, n)}
    return moved, matmul(ar, matmul(ar, transpose(gi), omega), gi)


def carries(ar: Arith, w, src, dst, n):
    """None when w maps the algebra src = (table, omega) onto dst entry-exactly,
    that is dst(w u, w v) = w src(u, v) and w^t omega_dst w = omega_src with
    det w != 0; otherwise a short reason."""
    if ar.is_zero(det(ar, w)):
        return "witness is singular"
    (src_table, src_omega), (dst_table, dst_omega) = src, dst
    cols = transpose(w)
    basis = identity(ar, n)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = bracket(ar, dst_table, n, cols[i], cols[j])
            rhs = apply(ar, w, bracket(ar, src_table, n, basis[i], basis[j]))
            if lhs != rhs:
                return f"bracket ({i},{j}) is not carried"
    if matmul(ar, matmul(ar, transpose(w), dst_omega), w) != src_omega:
        return "form is not carried"
    return None


def canonical_table(ar: Arith, kind, alpha=None):
    """The paper's normal forms A, B, C:alpha and D with the rank-2 form J."""
    z, o = ar.zero, ar.one
    half = ar.coerce(Fraction(1, 2))
    if kind == "A":
        table = {(0, 1): [o, o, z], (0, 2): [z, o, z], (1, 2): [z, z, o]}
    elif kind == "B":
        table = {(0, 1): [z, z, o], (0, 2): [ar.neg(half), z, z],
                 (1, 2): [o, ar.neg(half), z]}
    elif kind == "C":
        table = {(0, 1): [z, z, o], (0, 2): [alpha, z, z],
                 (1, 2): [z, ar.neg(ar.add(alpha, o)), z]}
    elif kind == "D":
        table = {(0, 1): [z, o, z], (1, 2): [z, z, o]}
    else:
        raise ValueError(f"unknown family {kind!r}")
    return table, block_j(ar, 3, 2)


def matrix_lie(ar: Arith, units):
    """Structure constants of the span of the matrix units E_ij in gl_n:
    [E_ij, E_kl] = d_jk E_il - d_li E_kj; the span must be closed."""
    index = {u: t for t, u in enumerate(units)}
    n = len(units)
    table = {}
    for a, (i, j) in enumerate(units):
        for b in range(a + 1, n):
            k, l = units[b]
            vec = [ar.zero] * n
            if j == k:
                vec[index[(i, l)]] = ar.add(vec[index[(i, l)]], ar.one)
            if l == i:
                vec[index[(k, j)]] = ar.sub(vec[index[(k, j)]], ar.one)
            if any(not ar.is_zero(x) for x in vec):
                table[(a, b)] = vec
    return table
