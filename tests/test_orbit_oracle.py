"""Brute-force oracle for the orbit-stabilizer correspondence over F_3.

The paper's main theorem maps the isomorphism classes of 3-dimensional non-Lie
omega-Lie algebras one-to-one onto the orbits of the stabilizer of the form
omega = J.  Over F_3 that stabilizer is finite: the matrices [[S, 0], [t, d]]
with S in SL_2(F_3), a translation row t and a scalar d != 0, 24 * 9 * 2 = 432
elements.  This test enumerates every bracket with omega = J, joins the orbits
by union-find over five generators of the stabilizer, and checks that classify
gives each orbit one answer and different orbits different answers.

The points and the group action are computed in plain int arithmetic mod 3;
only classify and the objects it takes come from the package.  A second test
checks that, without allow_extension, classify refuses exactly the points whose
flagged result needs the extension.

Each orbit's size is |G| / |Aut| for its family (the orbit-stabilizer
theorem), and the class sizes of the q + 4 classes sum to the q^6 - q^3
points of the variety over every odd prime field q (the class equation)."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from omegalie.classify3 import classify
from omegalie.fields import ExtensionRequired, PrimeField
from omegalie.linalg import Matrix, SkewForm
from omegalie.omega import OmegaAlgebra, StructureConstants

P = 3
GROUP_ORDER = 24 * P * P * (P - 1)
PAIRS = list(combinations(range(3), 2))  # (0,1), (0,2), (1,2)
J = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))


def bracket(table, u, v):
    """[u, v] for coordinate vectors u and v, from the brackets [e_i, e_j],
    i < j, as a dict of coordinate tuples."""
    out = [0, 0, 0]
    for (i, j), w in table.items():
        c = u[i] * v[j] - u[j] * v[i]
        if c:
            out = [(o + c * x) % P for o, x in zip(out, w)]
    return tuple(out)


def unit(i):
    return tuple(int(k == i) for k in range(3))


def satisfies_identity(table):
    """The twisted Jacobi identity on the one triple (0, 1, 2): the cyclic sum
    [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] is J(0,1) e2 + J(1,2) e0 + J(2,0) e1."""
    e = [unit(i) for i in range(3)]
    total = [0, 0, 0]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        term = bracket(table, bracket(table, e[i], e[j]), e[k])
        total = [(a + b) % P for a, b in zip(total, term)]
    want = [(J[0][1] * e[2][m] + J[1][2] * e[0][m] + J[2][0] * e[1][m]) % P for m in range(3)]
    return total == want


def matmul_vec(g, v):
    return tuple(sum(g[i][k] * v[k] for k in range(3)) % P for i in range(3))


def inverse(g):
    """The inverse of an invertible 3x3 int matrix mod P, by the adjugate."""
    cof = [[(g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
             - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3]) % P
            for j in range(3)] for i in range(3)]
    det = sum(g[0][k] * cof[k][0] for k in range(3)) % P
    s = pow(det, -1, P)
    return [[c * s % P for c in row] for row in cof]


def act(g, g_inv, point):
    """The bracket moved by g: [u, v]' = g [g^-1 u, g^-1 v]."""
    table = dict(zip(PAIRS, point))
    cols = [tuple(g_inv[r][c] for r in range(3)) for c in range(3)]
    return tuple(matmul_vec(g, bracket(table, cols[i], cols[j])) for i, j in PAIRS)


def block(s, t, d):
    return [[s[0][0], s[0][1], 0], [s[1][0], s[1][1], 0], [t[0], t[1], d]]


IDENTITY_2 = ((1, 0), (0, 1))
GENERATORS = [
    block(((1, 1), (0, 1)), (0, 0), 1),   # SL_2 generator: a transvection
    block(((0, -1), (1, 0)), (0, 0), 1),  # SL_2 generator: a quarter turn
    block(IDENTITY_2, (1, 0), 1),         # unit translations
    block(IDENTITY_2, (0, 1), 1),
    block(IDENTITY_2, (0, 0), 2),         # d = 2 generates F_3^*
]


def points():
    vectors = list(product(range(P), repeat=3))
    return [pt for pt in product(vectors, repeat=3) if satisfies_identity(dict(zip(PAIRS, pt)))]


def orbits(pts):
    parent = {pt: pt for pt in pts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in GENERATORS:
        g_inv = inverse(g)
        for pt in pts:
            parent[find(pt)] = find(act(g, g_inv, pt))
    out = {}
    for pt in pts:
        out.setdefault(find(pt), []).append(pt)
    return list(out.values())


def algebra(field, form, pt):
    sc = StructureConstants(field, 3, {pair: [field.elem(x) for x in vec]
                                       for pair, vec in zip(PAIRS, pt)})
    return OmegaAlgebra(field, sc, form)


def j_form(field):
    return SkewForm(Matrix.from_rows(field, [[field.elem(x) for x in row] for row in J]))


def answer(field, form, pt):
    res = classify(algebra(field, form, pt), allow_extension=True)
    ext = None if res.extension is None else tuple(c.encode() for c in res.extension)
    return str(res.label), ext


def aut_order(label, extension, q):
    """The order of the automorphism group of a class over F_q, by family: the
    C parameters split into -1/2, the pairs of distinct roots in F_q, and the
    irreducible t^2 + t + delta that need the extension."""
    if label == "A":
        return q
    if label == "B":
        return 2 * q
    if label == "D":
        return q * (q - 1)
    if extension is not None:
        return q + 1
    if label == f"C:{(q - 1) // 2}":  # -1/2 mod q
        return q * (q * q - 1)
    return q - 1


def class_sizes(q):
    """|G| / |Aut| over the q + 4 classes over F_q, with aut_order's orders: A,
    B with and without the extension, D, C:-1/2, and (q - 1)/2 classes each of
    split and of irreducible C parameters."""
    order = q ** 3 * (q * q - 1) * (q - 1)
    auts = [q, 2 * q, 2 * q, q * (q - 1), q * (q * q - 1)] + [q - 1, q + 1] * ((q - 1) // 2)
    return [Fraction(order, aut) for aut in auts]


def test_the_class_sizes_sum_to_the_point_count():
    # the class equation: the orbits of the q + 4 classes fill the q^6 - q^3
    # points of the variety over every odd prime field
    primes = [q for q in range(3, 200) if all(q % k for k in range(2, q))]
    for q in primes:
        sizes = class_sizes(q)
        assert len(sizes) == q + 4
        assert sum(sizes) == q ** 6 - q ** 3, q
    assert sorted(class_sizes(P)) == [18, 72, 72, 72, 108, 144, 216]
    assert P ** 6 - P ** 3 == 702


def test_orbits_over_f3_match_the_classification():
    pts = points()
    assert len(pts) == 702
    found = orbits(pts)
    sizes = sorted(len(orbit) for orbit in found)
    assert sizes == [18, 72, 72, 72, 108, 144, 216]
    assert sum(sizes) == len(pts)
    assert all(GROUP_ORDER % size == 0 for size in sizes)

    field = PrimeField(P)
    form = j_form(field)
    answers = []
    for orbit in found:
        got = {answer(field, form, pt) for pt in orbit}
        assert len(got) == 1, got  # one (label, extension) per orbit
        answers += got
        # the orbit-stabilizer theorem: each orbit is |G| / |Aut| points
        (label, extension), = got
        assert len(orbit) == GROUP_ORDER // aut_order(label, extension, P), got
    assert len(set(answers)) == len(found), answers  # distinct orbits, distinct answers


def test_the_refusal_is_exactly_the_flagged_extension():
    # without the flag, classify gives the flagged result when that needs no
    # extension, and otherwise refuses, naming the extension the flag adjoins
    field = PrimeField(P)
    form = j_form(field)
    refused = 0
    for pt in points():
        alg = algebra(field, form, pt)
        flagged = classify(alg, allow_extension=True)
        if flagged.extension is None:
            assert classify(alg) == flagged
            continue
        with pytest.raises(ExtensionRequired) as info:
            classify(alg)
        assert type(info.value) is ExtensionRequired
        assert info.value.minpoly == flagged.extension
        refused += 1
    assert refused == 180
