"""The affine variety of bracket structures compatible with a fixed canonical
skew form: its defining ideal from the bracket identity on symbolic structure
constants, and the ideal-theoretic verification suites built on it."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

from .fields import FieldDescriptor, QQ
from .groebner import (
    Ideal,
    PolyRing,
    Polynomial,
    buchberger,
    colon_of_meet,
    contract,
    elimination_ideal,
    format_polynomial,
    ideal_equal,
    ideal_member,
    intersect,
    normal_form,
    parse_polynomial,
    quotient_dimension,
    reduce_basis,
    s_polynomial,
)
from .linalg import SkewForm, standard_j
from .omega import cyclic_sums, identity_defects
from .report import ReportTable


# canonical text of the reference generators and basis completions
F1_TEXT = "x2*z1 + y3*z1 - x1*z2 - y1*z3"
F2_TEXT = "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1"
F3_TEXT = "x2*y1 - x1*y2 - y3*z2 + y2*z3"
G_TEXT = "x1*y2*z1 + y1*y3*z1 - x1*y1*z2 + y3*z1*z2 - y1^2*z3 - y2*z1*z3"
H_TEXT = "x1*x3*y2 - x1*x2*y3 + x2*x3*z2 + x3*y3*z2 - x2^2*z3 - x3*y2*z3 + x2"
DELTA_TEXT = "x1*x2 + x3*y1"
DETM_TEXT = "x2*x3*y2 - x2^2*y3 + x3*y2*y3 - x2*y3^2"

SC3_VARS = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")

P1_TEXTS = ("x1", "x2 + z3", "x4 + 1", "y2 - z3", "y4 - 1", "z1", "z2", "z4")
P2_TEXTS = ("x4*z3 - x2", "x1", "y1", "y2 - z3", "y3", "y4 - 1", "z1", "z2", "z4")


def structure_ring(field: FieldDescriptor = QQ) -> PolyRing:
    """The 9-variable ring of 3-dimensional structure constants."""
    return PolyRing(field, SC3_VARS)


def reference_polys(ring: PolyRing):
    """f1, f2, f3, g, h in the given ring."""
    return tuple(parse_polynomial(ring, t)
                 for t in (F1_TEXT, F2_TEXT, F3_TEXT, G_TEXT, H_TEXT))


@dataclass(frozen=True)
class VarietyIdeal:
    ring: PolyRing
    generators: tuple

    def ideal(self) -> Ideal:
        return Ideal(self.ring, self.generators)


def _normalize_generators(raw):
    """Monic, deduplicated (sign pairs collapse), sorted ascending by lead."""
    polys = dict.fromkeys(p.monic() for p in raw if not p.is_zero())
    return tuple(sorted(polys, key=lambda q: q.ring.sort_key(q.lm())))


def defining_ideal(omega: SkewForm) -> VarietyIdeal:
    """Generators of the vanishing ideal of bracket structures compatible with
    the given canonical form (rank 0 or 2 on a 3-space), over its field."""
    field = omega.field
    if omega.matrix not in (standard_j(field, 3, 0), standard_j(field, 3, 2)):
        raise ValueError("form must be a canonical block form on a 3-space")
    ring = structure_ring(field)
    x = [ring.var(f"x{i}") for i in (1, 2, 3)]
    y = [ring.var(f"y{i}") for i in (1, 2, 3)]
    z = [ring.var(f"z{i}") for i in (1, 2, 3)]
    return _identity_ideal(ring, {(0, 1): x, (0, 2): y, (1, 2): z}, omega)


def _poly_dot(ps, qs):
    """The sum of the products of two equally long, nonempty polynomial
    sequences, added left to right."""
    return reduce(operator.add, map(operator.mul, ps, qs))


def _identity_ideal(ring: PolyRing, upper: dict, omega: SkewForm) -> VarietyIdeal:
    """The components of the bracket-identity defect on every increasing
    triple of basis indices, for the symbolic bracket {(a, b): coordinates}:
    the omega kernel with polynomial coefficients.  Any other ordering of a
    triple gives the same components up to sign, which normalization drops."""
    n = omega.dim
    form = {(a, b): ring.const(omega(a, b)) for a in range(n) for b in range(n)
            if a != b and not omega(a, b).is_zero()}
    sums = cyclic_sums(upper, n, _poly_dot, operator.neg, Polynomial.is_zero)
    defects = identity_defects(sums, n, form, operator.add, operator.neg, Polynomial.is_zero)
    raw = [res[comp] for res in defects.values() for comp in range(n) if comp in res]
    return VarietyIdeal(ring, _normalize_generators(raw))


# ---------------------------------------------------------------------------
# the ideal-theory verification suite
# ---------------------------------------------------------------------------

def verify_section3(field: FieldDescriptor = QQ) -> ReportTable:
    """Re-derive the reference identities of the 9-variable structure ideal."""
    table = ReportTable(f"structure ideal over {field!r}")
    ring = structure_ring(field)
    f1, f2, f3, g, h = reference_polys(ring)
    p = Ideal(ring, [f1, f2, f3])
    i12 = Ideal(ring, [f1, f2])
    delta, detm = parse_polynomial(ring, DELTA_TEXT), parse_polynomial(ring, DETM_TEXT)
    # the t-ideals behind both intersections, whose bases the last check reuses
    aux_pair = elimination_ideal(i12, Ideal(ring, [delta]))
    aux = elimination_ideal(p, Ideal(ring, [detm]))

    with table.timed("generators-from-identity") as rec:
        vi = defining_ideal(SkewForm(standard_j(field, 3, 2)))
        rec.expect(list(vi.generators) == [f1, f2, f3],
                   "normalized generators differ from the reference triple")

    with table.timed("s-polynomial-identities") as rec:
        y1, z1 = ring.var("y1"), ring.var("z1")
        x2, x3 = ring.var("x2"), ring.var("x3")
        rec.expect(s_polynomial(f1, f3) == y1 * f1 - z1 * f3 == g,
                   "spol(f1,f3) != g")
        rec.expect(s_polynomial(f2, f3) == x2 * f2 - x3 * f3 == h,
                   "spol(f2,f3) != h")
        rec.expect(normal_form(g, [f1, f2, f3]) == g, "g reduces against f1..f3")
        rec.expect(normal_form(h, [f1, f2, f3]) == h, "h reduces against f1..f3")

    with table.timed("reduced-basis-matches") as rec:
        mine = p.groebner_basis()
        reference = reduce_basis([f1, f2, f3, g, h])
        if mine != reference:
            extra = [format_polynomial(q) for q in mine if q not in reference]
            rec.expect(False, f"unexpected basis elements: {extra}")

    with table.timed("pair-ideal-self-basis") as rec:
        rec.expect(buchberger([f1, f2]) == [f1, f2],
                   "the coprime-lead pair gained elements")
        rec.expect(reduce_basis([f1, f2]) == [f1, f2], "pair basis not reduced")

    with table.timed("colon-pair-ideal") as rec:
        meet = contract(aux_pair, ring)
        rec.expect(ideal_equal(meet, Ideal(ring, [delta * f1, delta * f2])),
                   "intersection with the principal ideal is not <D f1, D f2>")
        rec.expect(ideal_equal(colon_of_meet(meet, delta), i12),
                   "colon moved the pair ideal")

    with table.timed("colon-full-ideal") as rec:
        meet = contract(aux, ring)
        expected = Ideal(ring, [detm * q for q in (f1, f2, f3, g, h)])
        rec.expect(ideal_equal(meet, expected),
                   "intersection is not det(M) times the basis")
        rec.expect(ideal_equal(colon_of_meet(meet, detm), p), "colon moved the full ideal")

    with table.timed("quotient-dimension") as rec:
        dim = quotient_dimension(p)
        rec.expect(dim == 6, f"dimension {dim} != 6")

    with table.timed("regular-sequence") as rec:
        rec.expect(not normal_form(f2, [f1]).is_zero(), "f2 reduces to 0 mod f1")
        rec.expect(normal_form(f3, [f1, f2]) == f3,
                   "f3 is not its own remainder mod {f1,f2}")

    with table.timed("elimination-ideal-members") as rec:
        ext = aux_pair.ring
        h1 = parse_polynomial(
            ext, "t*x1*x2 + t*x1*y3 - t*x3*z2 + t*x2*z3 - x1*x2 - x3*y1 - t")
        h2 = parse_polynomial(
            ext, "t*x1^2*z2 - t*x3*z1*z2 + t*x1*y1*z3 - t*y3*z1*z3 + t*x1*z2*z3"
                 " + t*y1*z3^2 - x1*x2*z1 - x3*y1*z1 - t*z1")
        rec.expect(ideal_member(h1, aux_pair), "h1 outside the auxiliary ideal")
        rec.expect(ideal_member(h2, aux_pair), "h2 outside the auxiliary ideal")
        rec.info(f"auxiliary basis sizes: pair={len(aux_pair.groebner_basis())},"
                 f" full={len(aux.groebner_basis())}")

    return table


# ---------------------------------------------------------------------------
# the 4-dimensional subvariety example
# ---------------------------------------------------------------------------

def x1_configuration_ring(field: FieldDescriptor = QQ) -> PolyRing:
    return PolyRing(field, tuple(f"{b}{i}" for b in "xyz" for i in range(1, 5)))


def x1_configuration_ideal(field: FieldDescriptor = QQ,
                           omega_e_column=None) -> VarietyIdeal:
    """Bracket-identity ideal of 4-dimensional structures containing the fixed
    2-parameter solvable subalgebra ([x,y]=y, [x,z]=0, [y,z]=z) with symbolic
    brackets against the fourth basis vector.

    omega_e_column optionally overrides the (by default zero) form values
    against the fourth vector, as (w(x,e), w(y,e), w(z,e)).
    """
    ring = x1_configuration_ring(field)
    xs = [ring.var(f"x{i}") for i in range(1, 5)]
    ys = [ring.var(f"y{i}") for i in range(1, 5)]
    zs = [ring.var(f"z{i}") for i in range(1, 5)]
    zero, one = ring.zero(), ring.one()
    table = {
        (0, 1): (zero, one, zero, zero),   # [x,y] = y
        (0, 2): (zero, zero, zero, zero),  # [x,z] = 0
        (1, 2): (zero, zero, one, zero),   # [y,z] = z
        (0, 3): tuple(xs),
        (1, 3): tuple(ys),
        (2, 3): tuple(zs),
    }
    omega_mat = standard_j(field, 4, 2)
    if omega_e_column is not None:
        for row, value in enumerate(omega_e_column):
            v = value if not isinstance(value, int) else field.elem(value)
            omega_mat = omega_mat.with_entry(row, 3, v).with_entry(3, row, -v)
    return _identity_ideal(ring, table, SkewForm(omega_mat))


def x1_component_ideals(field: FieldDescriptor = QQ):
    ring = x1_configuration_ring(field)
    p1 = Ideal(ring, [parse_polynomial(ring, t) for t in P1_TEXTS])
    p2 = Ideal(ring, [parse_polynomial(ring, t) for t in P2_TEXTS])
    return p1, p2


def verify_example51(field: FieldDescriptor = QQ) -> ReportTable:
    """Check that the 4-dimensional configuration ideal is the intersection of
    its two listed components, and compute the component dimensions."""
    table = ReportTable(f"4-dimensional subvariety over {field!r}")
    vi = x1_configuration_ideal(field)
    j = vi.ideal()
    p1, p2 = x1_component_ideals(field)

    with table.timed("ideal-is-component-intersection") as rec:
        meet = intersect(p1, p2)
        rec.expect(ideal_equal(j, meet), "configuration ideal != intersection")

    with table.timed("ideal-inside-each-component") as rec:
        for name, comp in (("first", p1), ("second", p2)):
            for gen in j.gens:
                if not ideal_member(gen, comp):
                    rec.expect(False,
                               f"generator outside the {name} component: "
                               f"{format_polynomial(gen)}")
                    break

    with table.timed("component-dimensions") as rec:
        d1 = quotient_dimension(p1)
        d2 = quotient_dimension(p2)
        dj = quotient_dimension(j)
        rec.expect(d1 == 4, f"first component dimension {d1} != 4")
        rec.expect(d2 == 3, f"second component dimension {d2} != 3")
        rec.expect(dj == 4, f"union dimension {dj} != 4")
        rec.info(f"dims: components {d1} and {d2}, union {dj}")

    table.add_note("the union is 4-dimensional; its second component is the"
                   " 3-dimensional graph x2 = x4*z3 inside the coordinate slice")
    table.add_note("primality of the two components is taken as given, not"
                   " machine-checked")
    return table
