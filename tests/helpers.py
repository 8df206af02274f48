"""Shared fixtures for the structure-constant ring and its reference ideals.

The reference polynomial texts repeat variety.reference_polys on purpose: they
are an oracle written independently of variety."""

from omegalie.fields import QQ, PrimeField
from omegalie.groebner import Ideal, PolyRing, parse_polynomial

F101 = PrimeField(101)

RING_VARS = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2", "z3")

F1_TEXT = "x2*z1 + y3*z1 - x1*z2 - y1*z3"
F2_TEXT = "x3*y1 - x1*y3 + x3*z2 - x2*z3 + 1"
F3_TEXT = "x2*y1 - x1*y2 - y3*z2 + y2*z3"
G_TEXT = "x1*y2*z1 + y1*y3*z1 - x1*y1*z2 + y3*z1*z2 - y1^2*z3 - y2*z1*z3"
H_TEXT = ("x1*x3*y2 - x1*x2*y3 + x2*x3*z2 + x3*y3*z2 - x2^2*z3 "
          "- x3*y2*z3 + x2")

DELTA_TEXT = "x1*x2 + x3*y1"
DETM_TEXT = "x2*x3*y2 - x2^2*y3 + x3*y2*y3 - x2*y3^2"  # (x2+y3)(x3 y2 - x2 y3)


def sc_ring(field=QQ):
    return PolyRing(field, RING_VARS)


def sc_polys(ring):
    """f1, f2, f3 followed by g and h."""
    return tuple(parse_polynomial(ring, t)
                 for t in (F1_TEXT, F2_TEXT, F3_TEXT, G_TEXT, H_TEXT))


def ideal_p(ring):
    f1, f2, f3, _, _ = sc_polys(ring)
    return Ideal(ring, [f1, f2, f3])
