"""Exact scalar arithmetic: rationals, odd prime fields, and one quadratic extension.

Every value is immutable and every operation is a pure function, so elements
are safe to share between threads.  No floating point is used anywhere.
"""

from __future__ import annotations

import operator
import re
import sys
from functools import cached_property
from fractions import Fraction
from math import gcd, isqrt


class ExtensionRequired(Exception):
    """A root does not exist in the current field.

    Carries the monic minimal polynomial t^2 + c1*t + c0 that would have to be
    adjoined, as the pair (c0, c1) of field elements.
    """

    step = "a quadratic extension"

    def __init__(self, c0, c1):
        self.minpoly = (c0, c1)
        super().__init__(f"needs {self.step} by t^2 + ({c1})*t + ({c0})")


class ExtensionDepthExceeded(ExtensionRequired):
    """A second quadratic extension would be needed; the tower is capped at one."""

    step = "a second quadratic extension"


# a decimal with an exponent part: Fraction builds 10**exponent, so the
# literal's cost would grow exponentially with its length
_EXPONENT_LITERAL = re.compile(r"\s*[-+]?(?=\.?\d)[\d_]*(?:\.[\d_]*)?[eE][-+]?\d[\d_]*\s*")

# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below _MR_BOUND; larger n is refused."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is only decided below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldDescriptor:
    """Base class for field descriptors.  Payload formats:

    - Rationals:  ``Fraction``
    - PrimeField: ``int`` in ``[0, p)``
    - QuadExt:    pair ``(a, b)`` of base payloads, meaning ``a + b*theta``
    """

    depth = 0

    def elem(self, value) -> "FieldElement":
        return FieldElement(self, self.coerce(value))

    # elements are immutable, so each descriptor builds these once
    @cached_property
    def zero(self):
        return self.elem(0)

    @cached_property
    def one(self):
        return self.elem(1)

    def parse(self, text: str) -> "FieldElement":
        return FieldElement(self, self.payload_from_str(text))

    # subclasses implement: coerce, add, neg, mul, inv, is_zero, dot (the sum
    # of products of two equally long payload sequences), payload_to_str,
    # payload_from_str, encode (descriptor string)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 0, set on its two slots
    without Fraction's constructor, which would normalise it again."""
    r = object.__new__(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _check_fraction_layout():
    """Refuse to import when Fraction's private layout is not the one
    _fraction writes: the slots are not part of the stdlib's public API."""
    version = sys.version.split()[0]
    if Fraction.__slots__ != ("_numerator", "_denominator"):
        raise ImportError(f"omegalie needs fractions.Fraction slots (_numerator, "
                          f"_denominator); Python {version} has {Fraction.__slots__!r}")
    probe, ref = _fraction(-3, 4), Fraction(-3, 4)
    if probe != ref or hash(probe) != hash(ref):
        raise ImportError(f"omegalie cannot build fractions.Fraction from its slots "
                          f"on Python {version}")


_check_fraction_layout()


def _add(na, da, nb, db):
    """na/da + nb/db for reduced inputs, reduced as Fraction._add does: only the
    common factor g of the denominators can divide the new numerator."""
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


class Rationals(FieldDescriptor):
    """Payloads are reduced Fractions; the operators work on their numerator
    and denominator ints and build each reduced result through _fraction."""

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return _add(a._numerator, a._denominator, b._numerator, b._denominator)

    def sub(self, a, b):
        return _add(a._numerator, a._denominator, -b._numerator, b._denominator)

    def neg(self, a):
        return _fraction(-a._numerator, a._denominator)

    def mul(self, a, b):
        # cross-cancel as Fraction._mul does, so the product is already reduced
        na, da = a._numerator, a._denominator
        nb, db = b._numerator, b._denominator
        g1 = gcd(na, db)
        if g1 > 1:
            na, db = na // g1, db // g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb, da = nb // g2, da // g2
        return _fraction(na * nb, da * db)

    def dot(self, xs, ys):
        # fraction-free: one numerator over one denominator, normalised once
        num, den = 0, 1
        for x, y in zip(xs, ys):
            xn, yn = x._numerator, y._numerator
            if xn and yn:
                n, d = xn * yn, x._denominator * y._denominator
                if d == den:
                    num += n
                else:
                    num, den = num * d + n * den, den * d
        g = gcd(num, den)
        return _fraction(num // g, den // g)

    def inv(self, a):
        n, d = a._numerator, a._denominator
        if not n:
            raise ZeroDivisionError("division by zero field element")
        return _fraction(d, n) if n > 0 else _fraction(-d, -n)

    def is_zero(self, a):
        return not a._numerator

    def payload_to_str(self, a):
        return str(a)

    def payload_from_str(self, text):
        if _EXPONENT_LITERAL.fullmatch(text):
            raise ValueError(f"exponent notation is not accepted: {text!r}")
        return Fraction(text.strip())

    def encode(self):
        return "Q"

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(FieldDescriptor):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        self.p = p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, xs, ys):
        return sum(map(operator.mul, xs, ys)) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero field element")
        return pow(a, -1, self.p)

    def is_zero(self, a):
        return a == 0

    def payload_to_str(self, a):
        return str(a)

    def payload_from_str(self, text):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return self.coerce(Fraction(int(num), int(den)))
        return int(text) % self.p

    def encode(self):
        return f"Fp:{self.p}"

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


class QuadExt(FieldDescriptor):
    """Quadratic extension base(theta) with theta^2 + c1*theta + c0 = 0.

    The base must itself be depth 0 (Q or F_p); towers are capped at one step.
    """

    depth = 1

    def __init__(self, base: FieldDescriptor, c0, c1):
        if base.depth != 0:
            raise ExtensionDepthExceeded(base.elem(c0), base.elem(c1))
        self.base = base
        self.c0 = base.coerce(c0)
        self.c1 = base.coerce(c1)
        self._neg_c0, self._neg_c1 = base.neg(self.c0), base.neg(self.c1)
        disc = base.sub(base.mul(self.c1, self.c1), base.mul(base.coerce(4), self.c0))
        if _sqrt_in_depth0(base, disc) is not None:
            raise ValueError(
                f"t^2 + ({base.payload_to_str(self.c1)})*t + "
                f"({base.payload_to_str(self.c0)}) is reducible over {base!r}")

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == 2:
            return (self.base.coerce(value[0]), self.base.coerce(value[1]))
        return (self.base.coerce(value), self.base.coerce(0))

    def add(self, a, b):
        return (self.base.add(a[0], b[0]), self.base.add(a[1], b[1]))

    def neg(self, a):
        return (self.base.neg(a[0]), self.base.neg(a[1]))

    def mul(self, a, b):
        # (a0 + a1 t)(b0 + b1 t) with t^2 = -c1 t - c0
        base = self.base
        a0, a1 = a
        b0, b1 = b
        tt = base.mul(a1, b1)
        lin = base.add(base.mul(a0, b1), base.mul(a1, b0))
        return (base.sub(base.mul(a0, b0), base.mul(tt, self.c0)),
                base.sub(lin, base.mul(tt, self.c1)))

    def dot(self, xs, ys):
        # three base dots: the t^2 part tt enters the other two as one more
        # product term each, by t^2 = -c1 t - c0
        base = self.base
        x0, x1 = [x[0] for x in xs], [x[1] for x in xs]
        y0, y1 = [y[0] for y in ys], [y[1] for y in ys]
        tt = base.dot(x1, y1)
        return (base.dot(x0 + [tt], y0 + [self._neg_c0]),
                base.dot(x0 + x1 + [tt], y1 + y0 + [self._neg_c1]))

    def inv(self, a):
        # conjugate of a0 + a1 t is (a0 - a1 c1) - a1 t; norm = a0^2 - a0 a1 c1 + a1^2 c0
        base = self.base
        a0, a1 = a
        norm = base.add(base.sub(base.mul(a0, a0), base.mul(base.mul(a0, a1), self.c1)),
                        base.mul(base.mul(a1, a1), self.c0))
        if base.is_zero(norm):
            raise ZeroDivisionError("division by zero field element")
        ninv = base.inv(norm)
        return (base.mul(base.sub(a0, base.mul(a1, self.c1)), ninv),
                base.neg(base.mul(a1, ninv)))

    def is_zero(self, a):
        return self.base.is_zero(a[0]) and self.base.is_zero(a[1])

    @property
    def theta(self):
        return self.elem((0, 1))

    @property
    def minpoly(self):
        """(c0, c1) as elements of the base field."""
        return FieldElement(self.base, self.c0), FieldElement(self.base, self.c1)

    def embed(self, element: "FieldElement") -> "FieldElement":
        if element.field != self.base:
            raise ValueError(f"{element.field!r} is not the base of {self!r}")
        return FieldElement(self, (element.value, self.base.coerce(0)))

    def payload_to_str(self, a):
        return f"[{self.base.payload_to_str(a[0])},{self.base.payload_to_str(a[1])}]"

    def payload_from_str(self, text):
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            return (self.base.payload_from_str(text), self.base.coerce(0))
        inner = text[1:-1]
        parts = inner.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad quadratic-extension element: {text!r}")
        return (self.base.payload_from_str(parts[0]), self.base.payload_from_str(parts[1]))

    def encode(self):
        return (f"QuadExt:{self.base.encode()}:"
                f"{self.base.payload_to_str(self.c0)},{self.base.payload_to_str(self.c1)}")

    def __repr__(self):
        return (f"{self.base!r}(t), t^2 + ({self.base.payload_to_str(self.c1)})t"
                f" + ({self.base.payload_to_str(self.c0)}) = 0")

    def __eq__(self, other):
        return (isinstance(other, QuadExt) and other.base == self.base
                and other.c0 == self.c0 and other.c1 == self.c1)

    def __hash__(self):
        return hash(("QuadExt", self.base, self.c0, self.c1))


QQ = Rationals()


def parse_descriptor(text: str) -> FieldDescriptor:
    """Parse "Q", "Fp:<p>" or "QuadExt:<base>:<c0>,<c1>"."""
    text = text.strip()
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        return PrimeField(int(text[3:]))
    if text.startswith("QuadExt:"):
        base_txt, sep, minpoly = text[len("QuadExt:"):].rpartition(":")
        coeffs = minpoly.split(",")
        if not sep or len(coeffs) != 2:
            raise ValueError(f"expected QuadExt:<base>:<c0>,<c1>, got {text!r}")
        base = parse_descriptor(base_txt)
        if base.depth != 0:
            raise ValueError(f"extension towers are capped at one step: {text!r}")
        try:
            c0, c1 = (base.payload_from_str(c) for c in coeffs)
        except ZeroDivisionError:
            raise ValueError(f"minimal polynomial of {text!r} divides by zero") from None
        return QuadExt(base, c0, c1)
    raise ValueError(f"unknown field descriptor {text!r}")


class FieldElement:
    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, payload):
        self.field = field
        self.value = payload

    def _binary(self, other, op, swap=False):
        """self op other, or other op self with swap: an element of another field
        is refused, an int or a Fraction is coerced, any other type NotImplemented."""
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError(f"mixed fields: {self.field!r} and {other.field!r}")
            v = other.value
        elif isinstance(other, (int, Fraction)):
            v = self.field.coerce(other)
        else:
            return NotImplemented
        return FieldElement(self.field, op(v, self.value) if swap else op(self.value, v))

    def __add__(self, other):
        return self._binary(other, self.field.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, self.field.sub)

    def __rsub__(self, other):
        return self._binary(other, self.field.sub, swap=True)

    def __mul__(self, other):
        return self._binary(other, self.field.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, self.field.div)

    def __rtruediv__(self, other):
        return self._binary(other, self.field.div, swap=True)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                return False
            return other.value == self.value
        if isinstance(other, (int, Fraction)):
            return self.value == self.field.coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self.value)

    def is_zero(self):
        return self.field.is_zero(self.value)

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.value))

    def encode(self) -> str:
        return self.field.payload_to_str(self.value)

    def __repr__(self):
        return self.encode()


# ---------------------------------------------------------------------------
# square roots and quadratic splitting
# ---------------------------------------------------------------------------

def _sqrt_in_depth0(field: FieldDescriptor, payload):
    """Canonical square root of a payload in Q or F_p, or None.

    Q: positive root.  F_p: Euler criterion, then Tonelli-Shanks, returning
    the representative in [0, p/2].
    """
    if isinstance(field, Rationals):
        if payload == 0:
            return Fraction(0)
        if payload < 0:
            return None
        n, d = payload.numerator, payload.denominator
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
        return None
    if isinstance(field, PrimeField):
        p = field.p
        if payload == 0:
            return 0
        if pow(payload, (p - 1) // 2, p) != 1:
            return None
        # Tonelli-Shanks: p - 1 = q * 2^s with q odd, z a non-residue
        q, s = p - 1, 0
        while q % 2 == 0:
            q, s = q // 2, s + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c, t, r = pow(z, q, p), pow(payload, q, p), pow(payload, (q + 1) // 2, p)
        while t != 1:
            # least i with t^(2^i) = 1; then i < s, and s shrinks to i
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (s - i - 1), p)
            s, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return min(r, p - r)
    raise TypeError(f"{field!r} is not depth 0")


def _sqrt_in_field(element: FieldElement):
    """Square root inside the element's own field, or None.

    Over base(t), write the element x + y*u in the basis 1, u = t + c1/2, with
    u^2 = d = c1^2/4 - c0 a non-square of the base.  (p + q*u)^2 = x + y*u
    says p^2 + d*q^2 = x and 2*p*q = y, so p^2 is (x + n)/2 or (x - n)/2 for
    a square root n of the norm x^2 - d*y^2; p = 0 leaves q^2 = x/d.
    """
    field = element.field
    if field.depth == 0:
        r = _sqrt_in_depth0(field, element.value)
        return None if r is None else FieldElement(field, r)
    a0, a1 = (FieldElement(field.base, v) for v in element.value)
    c0, c1 = field.minpoly
    half_c1 = c1 / 2
    x, y, d = a0 - a1 * half_c1, a1, half_c1 * half_c1 - c0
    n = _sqrt_in_field(x * x - d * y * y)
    if n is None:
        return None
    for p2 in ((x + n) / 2, (x - n) / 2):
        p = _sqrt_in_field(p2)
        if p is None:
            continue
        q = y / (2 * p) if p else _sqrt_in_field(x / d)
        if q is not None:
            return field.elem(((p + q * half_c1).value, q.value))
    return None


def sqrt_or_extend(s: FieldElement) -> FieldElement:
    """The canonical square root of a nonzero element, or theta in the field
    adjoining t^2 - s when s has none in its own field."""
    if s.is_zero():
        raise ValueError("sqrt of zero")
    r = _sqrt_in_field(s)
    return r if r is not None else QuadExt(s.field, (-s).value, 0).theta


def quadratic_roots(delta: FieldElement) -> tuple:
    """The roots ((-1 + s)/2, (-1 - s)/2) of t^2 + t + delta, s the canonical
    square root of the discriminant 1 - 4*delta, so equal for a double root;
    or theta and -1 - theta in the field adjoining t^2 + t + delta when s is
    not in delta's field."""
    s = _sqrt_in_field(delta.field.one - 4 * delta)
    if s is None:
        theta = QuadExt(delta.field, delta.value, 1).theta
        return theta, -1 - theta
    return (s - 1) / 2, (-s - 1) / 2
