"""Sparse multivariate polynomials under grevlex and a small Buchberger engine.

Covers exactly what the ideal-theoretic checks need: normal forms, reduced
Groebner bases, intersection via an elimination variable, colon ideals, and
the combinatorial Krull dimension of a quotient.  Coefficients lie in a
field, so division is always exact.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations

from .fields import FieldDescriptor, FieldElement, Rationals, parse_descriptor
from .linalg import _payload

# When enabled (the test suite turns it on), every Buchberger run re-verifies
# its output by reducing all S-polynomials of the final basis.
CHECK_POSTCONDITIONS = False

_SCALARS = (int, Fraction, FieldElement)  # what +, - and * read as a constant

# A monomial is one int with a 64-bit field per exponent: 63 value bits below
# a guard bit, so a product is a sum, a quotient a difference, and a product
# past 2^63 - 1 raises its field's guard bit instead of carrying into the next.
_WIDTH = 64
_MAX_EXP = (1 << _WIDTH - 1) - 1
_GUARD = 1 << _WIDTH - 1


class PolyRing:
    """Polynomial ring with named variables and a fixed monomial order.

    order "grevlex": total degree, ties by the last differing exponent with
    the smaller exponent winning.  order "elim1": the first variable forms an
    elimination block above a grevlex tail (used for intersections).

    Monomials are packed ints (Monagan & Pearce, JSC 2011).  Under grevlex
    the variables fill the fields from the lowest up and the total degree
    sits above them; elim1 packs its tail the same way with the first
    variable's exponent on top, so a t-free monomial packs as in the tail's
    grevlex ring.  Flipping the variable fields of the grevlex block (m ^
    _low) gives an int that ascends in the order.
    """

    __slots__ = ("field", "variables", "order", "_var_index", "_shifts", "_units",
                 "_low", "_guard")

    def __init__(self, field: FieldDescriptor, variables, order: str = "grevlex"):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        if order not in ("grevlex", "elim1"):
            raise ValueError(f"unknown order {order!r}")
        self.field = field
        self.variables = variables
        self.order = order
        self._var_index = {v: i for i, v in enumerate(variables)}
        n = len(variables)
        # the grevlex block: every variable, or all but elim1's first one
        block = tuple(_WIDTH * i for i in range(n if order == "grevlex" else n - 1))
        degree = 1 << _WIDTH * len(block)  # the block's degree field sits above it
        self._shifts, self._units = block, tuple((1 << s) + degree for s in block)
        if order == "elim1":  # the first variable's field on top, outside the degree
            self._shifts, self._units = (_WIDTH * n,) + block, (1 << _WIDTH * n,) + self._units
        self._low = sum(_MAX_EXP << s for s in block)
        self._guard = sum(_GUARD << _WIDTH * i for i in range(n + 1))

    @property
    def nvars(self):
        return len(self.variables)

    def sort_key(self, exps):
        """Ascending in the monomial order."""
        if self.order == "grevlex":
            return (sum(exps),) + tuple(-e for e in reversed(exps))
        return (exps[0], sum(exps) - exps[0]) + tuple(-e for e in reversed(exps[1:]))

    def pack(self, exps) -> int:
        """The packed monomial of an exponent tuple, each exponent and the
        grevlex block's degree checked: n exponents below 2^63 may sum past
        2^64 and carry out of the degree field, where no guard bit shows it."""
        if len(exps) != self.nvars:
            raise ValueError(f"{len(exps)} exponents for {self.nvars} variables")
        m = 0
        for name, e, unit in zip(self.variables, exps, self._units):
            if not (isinstance(e, int) and 0 <= e <= _MAX_EXP):
                raise _out_of_range(name)
            m += e * unit
        if sum(exps[1:] if self.order == "elim1" else exps) > _MAX_EXP:
            raise _out_of_range(None)
        return m

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple(m >> s & _MAX_EXP for s in self._shifts)

    def support(self, m: int) -> int:
        """The bitmask of the variables that divide a packed monomial."""
        return sum(1 << i for i, s in enumerate(self._shifts) if m >> s & _MAX_EXP)

    def divides(self, g: int, m: int) -> bool:
        """Whether the packed monomial g divides m, by one borrow test: each
        field of (m | guard) - g keeps its guard bit exactly when m's exponent
        there is at least g's, and no field borrows from the next."""
        guard = self._guard
        return (m | guard) - g & guard == guard

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm of two packed monomials: each exponent the max."""
        return _checked(self, sum(max(a >> s & _MAX_EXP, b >> s & _MAX_EXP) * unit
                                  for s, unit in zip(self._shifts, self._units)))

    def zero(self):
        return _from_payloads(self, {})

    def const(self, value):
        return _from_payloads(self, {0: _payload(value, self.field)})

    def one(self):
        return self.const(1)

    def var(self, name):
        return _from_payloads(self, {self._units[self._var_index[name]]: self.field.one.value})

    def gens(self):
        return [self.var(v) for v in self.variables]

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.variables == self.variables and other.order == self.order)

    def __hash__(self):
        return hash((self.field, self.variables, self.order))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}] ({self.order})"


def _out_of_range(name):
    what = "the total degree" if name is None else f"the exponent of {name!r}"
    return ValueError(f"{what} is outside 0 .. 2^63 - 1")


def _checked(ring, m: int) -> int:
    """m, unless its guard bits show a sum of two packed monomials past
    2^63 - 1 (no field of such a sum carries): then the ValueError naming the
    first such variable, or the total degree."""
    if m & ring._guard:
        for name, s in zip(ring.variables, ring._shifts):
            if m >> s & _GUARD:
                raise _out_of_range(name)
        raise _out_of_range(None)
    return m


class Polynomial:
    """A sparse polynomial whose terms map packed monomials to nonzero raw
    payloads, as Matrix.payloads does.  Polynomial(...) takes exponent tuples,
    packs each and checks each coefficient against the field once, dropping
    zeros; kernel results are built from packed monomials and payloads
    unchecked.  lm() unpacks the lead; lc() reads it as a FieldElement."""

    __slots__ = ("ring", "terms", "_sorted")

    def __init__(self, ring: PolyRing, terms: dict):
        field = ring.field
        terms = {ring.pack(e): _payload(c, field) for e, c in terms.items()}
        self.ring, self._sorted = ring, None
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}

    def sorted_terms(self):
        """Terms as (packed monomial, payload) pairs, descending in the ring
        order."""
        if self._sorted is None:
            low = self.ring._low
            self._sorted = tuple(sorted(self.terms.items(), key=lambda t: t[0] ^ low,
                                        reverse=True))
        return self._sorted

    def is_zero(self):
        return not self.terms

    def _lead(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.sorted_terms()[0][0]

    def lm(self) -> tuple:
        return self.ring.unpack(self._lead())

    def lc(self):
        return FieldElement(self.ring.field, self.sorted_terms()[0][1])

    def _check_ring(self, other):
        if other.ring != self.ring:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = self.ring.const(other)
        self._check_ring(other)
        fadd = self.ring.field.add
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = fadd(out[e], c) if e in out else c
        return _from_payloads(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return _from_payloads(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.ring.field
        fadd, mul = field.add, field.mul
        if isinstance(other, _SCALARS):
            s = _payload(other, field)
            return _from_payloads(self.ring, {e: mul(c, s) for e, c in self.terms.items()})
        self._check_ring(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                out[e] = fadd(out[e], mul(c1, c2)) if e in out else mul(c1, c2)
        return _products(self.ring, out)

    __rmul__ = __mul__

    def monic(self):
        if not self.terms:
            return self
        lc = self.lc()
        return self if lc == 1 else self * lc.inverse()

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return format_polynomial(self)


def _from_payloads(ring, terms) -> Polynomial:
    """The Polynomial of a packed monomial -> payload dict whose payloads are
    already known to lie in ring.field, built unchecked; zero terms are
    dropped."""
    is_zero = ring.field.is_zero
    p = object.__new__(Polynomial)
    p.ring, p._sorted = ring, None
    p.terms = {e: c for e, c in terms.items() if not is_zero(c)}
    return p


def _products(ring, terms) -> Polynomial:
    """_from_payloads for monomials that are sums of valid ones: a surviving
    term whose guard bit came up is refused by name."""
    p = _from_payloads(ring, terms)
    for m in p.terms:
        _checked(ring, m)
    return p


# ---------------------------------------------------------------------------
# canonical text form
# ---------------------------------------------------------------------------

def _monomial_str(ring, exps):
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _coeff_display(field, c):
    """(is_negative, magnitude_string) of a payload; only rationals carry a
    display sign."""
    if isinstance(field, Rationals):
        return (c < 0, str(-c) if c < 0 else str(c))
    return (False, field.payload_to_str(c))


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    field = p.ring.field
    chunks = []
    for i, (m, coeff) in enumerate(p.sorted_terms()):
        neg, mag = _coeff_display(field, coeff)
        mono = _monomial_str(p.ring, p.ring.unpack(m))
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f"{' - ' if neg else ' + '}{body}")
    return "".join(chunks)


def _split_top_level(text, seps):
    """Split on separator characters that are not inside [...] brackets."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append(("".join(cur), ch))
            cur = []
        else:
            cur.append(ch)
    parts.append(("".join(cur), None))
    return parts


def parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    """Inverse of format_polynomial (whitespace-insensitive)."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    pieces = _split_top_level(text, "+-")
    # re-assemble into signed term strings
    terms = []
    sign = 1
    for idx, (body, sep) in enumerate(pieces):
        body = body.strip()
        if body:
            terms.append((sign, body))
        elif idx:  # an empty term is allowed only before one leading sign
            raise ValueError(f"dangling operator in {text!r}")
        sign = -1 if sep == "-" else 1
    field = ring.field
    coeffs = {}  # summed in one dict: adding term by term copies the sum each time
    for sgn, body in terms:
        coeff = field.one
        exps = [0] * ring.nvars
        for factor, _ in _split_top_level(body, "*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {body!r}")
            if "^" in factor and not factor.startswith("["):
                name, _, power = factor.partition("^")
                name = name.strip()
                if name not in ring._var_index:
                    raise ValueError(f"unknown variable {name!r}")
                try:
                    exps[ring._var_index[name]] += int(power)
                except ValueError:
                    raise ValueError(f"the exponent of {name!r} is missing or is not"
                                     f" a nonnegative integer") from None
            elif factor in ring._var_index:
                exps[ring._var_index[factor]] += 1
            else:
                coeff = coeff * field.parse(factor)
        key = tuple(exps)
        coeffs[key] = coeffs.get(key, field.zero) + (coeff if sgn > 0 else -coeff)
    return Polynomial(ring, coeffs)


# ---------------------------------------------------------------------------
# division, S-polynomials, Buchberger
# ---------------------------------------------------------------------------

def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of the zero polynomial")
    f._check_ring(g)
    field = f.ring.field
    fadd, mul = field.add, field.mul
    (flm, flc), (glm, glc) = f.sorted_terms()[0], g.sorted_terms()[0]
    t = f.ring.lcm(flm, glm)
    uf, ug = t - flm, t - glm
    nflc = field.neg(flc)
    out = {e + uf: mul(c, glc) for e, c in f.terms.items()}
    for e, c in g.terms.items():
        me = e + ug
        out[me] = fadd(out[me], mul(c, nflc)) if me in out else mul(c, nflc)
    return _products(f.ring, out)


def _divide(f: Polynomial, divisors, quotient=None) -> dict:
    """The one reduction loop behind normal_form and exact_divide, on packed
    monomials and raw payloads.  Returns the remainder as a packed monomial
    -> payload dict.

    The largest remaining term is popped from a heap of negated order keys
    (Monagan & Pearce, JSC 2011); a popped monomial no longer in the work dict
    has cancelled and is skipped.  The first divisor whose leading monomial
    divides the term (ring.divides, inlined) cancels it.  A term that no
    leading monomial divides goes to the remainder; given a quotient dict (one
    divisor), its quotient terms are recorded there and such a term raises a
    ValueError.
    """
    ring = f.ring
    field = ring.field
    fadd, mul, is_zero = field.add, field.mul, field.is_zero
    low, guard = ring._low, ring._guard
    data = []
    for g in divisors:
        (glm, glc), *tail = g.sorted_terms()
        data.append((glm, field.neg(field.inv(glc)), tail))
    work = dict(f.terms)
    heap = [-(m ^ low) for m in work]
    heapify(heap)
    out = {}
    while heap:
        m = -heappop(heap) ^ low
        c = work.pop(m, None)
        if c is None:
            continue
        borrow = m | guard
        for glm, nlcinv, tail in data:
            if borrow - glm & guard == guard:
                q = m - glm
                factor = mul(c, nlcinv)
                if quotient is not None:
                    quotient[q] = field.neg(factor)
                for e, a in tail:
                    me = e + q
                    acc = work.get(me)
                    if acc is None:
                        if me & guard:
                            _checked(ring, me)  # a product past 2^63 - 1 raises
                        work[me] = mul(factor, a)
                        heappush(heap, -(me ^ low))
                    else:
                        acc = fadd(acc, mul(factor, a))
                        if is_zero(acc):
                            del work[me]
                        else:
                            work[me] = acc
                break
        else:
            if quotient is not None:
                work[m] = c
                raise ValueError(format_polynomial(_from_payloads(ring, work)))
            out[m] = c
    return out


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under multivariate division by the basis (full tail
    reduction: no term of the result is divisible by any basis leading
    monomial)."""
    basis = [g for g in basis if not g.is_zero()]
    if not basis or f.is_zero():
        return f
    return _from_payloads(f.ring, _divide(f, basis))


def buchberger(gens) -> list:
    """Groebner basis of the given generators (monic, not inter-reduced).

    Normal selection strategy (smallest lcm, ties by pair index) with the
    Gebauer-Moeller update (Gebauer & Moeller, JSC 1988): a new element h pairs
    only with the active elements (those whose lead no later lead divides),
    keeping one pair per lcm that no other new pair's lcm properly divides and
    dropping it when the leads are coprime; old pairs (i, j) whose lcm lm(h)
    divides are cancelled unless it equals lcm(i, h) or lcm(j, h).  Termination
    is guaranteed by the ascending chain of leading-term ideals.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    low, lcm, divides = ring._low, ring.lcm, ring.divides
    basis = []
    leads = []     # the packed leading monomials of basis
    supports = []  # and their variable bitmasks
    active = []    # indices that still form new pairs
    pairs = {}     # (i, j) with i < j -> lcm of the leading monomials

    def add_element(h):
        new = len(basis)
        hlm = h._lead()
        hsupport = ring.support(hlm)
        basis.append(h)
        leads.append(hlm)
        supports.append(hsupport)
        for (i, j), t in list(pairs.items()):
            if divides(hlm, t) and lcm(leads[i], hlm) != t and lcm(leads[j], hlm) != t:
                del pairs[(i, j)]
        lcms = {}  # lcm -> lowest active index with it
        for k in active:
            lcms.setdefault(lcm(leads[k], hlm), k)
        for t, k in lcms.items():
            if not (supports[k] & hsupport == 0
                    or any(s != t and divides(s, t) for s in lcms)):
                pairs[(k, new)] = t
        active[:] = [k for k in active if not divides(hlm, leads[k])]
        active.append(new)

    for g in gens:
        g = normal_form(g, basis)
        if not g.is_zero():
            add_element(g.monic())
    while pairs:
        # smallest lcm first, ties by the lower pair
        i, j = min(pairs, key=lambda pr: (pairs[pr] ^ low, pr))
        del pairs[(i, j)]
        r = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not r.is_zero():
            add_element(r.monic())
    if CHECK_POSTCONDITIONS:
        _assert_groebner(basis)
    return basis


def _assert_groebner(basis):
    supports = [g.ring.support(g._lead()) for g in basis]
    for i in range(len(basis)):
        for j in range(i):
            if supports[i] & supports[j] == 0:
                continue
            if not normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero():
                raise AssertionError(
                    f"S-polynomial of elements {j} and {i} does not reduce to zero")


def reduce_basis(basis) -> list:
    """The unique reduced Groebner basis: monic, mutually reduced, sorted
    ascending in the ring order.  The input must be a Groebner basis; it is
    not checked."""
    basis = [g.monic() for g in basis if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    low = ring._low
    # minimize: drop elements whose lead is divisible by another lead
    basis = sorted(basis, key=lambda g: g._lead() ^ low)
    minimal = []
    for g in basis:
        if not any(ring.divides(h._lead(), g._lead()) for h in minimal):
            minimal.append(g)
    # reduce each element against the others: no lead divides another, so
    # each keeps its monic lead and the list stays sorted
    return [normal_form(g, minimal[:i] + minimal[i + 1:]) for i, g in enumerate(minimal)]


class Ideal:
    """Generator list with a cached reduced Groebner basis."""

    __slots__ = ("ring", "gens", "_reduced")

    def __init__(self, ring: PolyRing, gens):
        gens = tuple(gens)
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self.gens = gens
        self._reduced = None

    def groebner_basis(self) -> list:
        if self._reduced is None:
            self._reduced = reduce_basis(buchberger(list(self.gens)))
        return self._reduced

    def __repr__(self):
        return f"Ideal({', '.join(format_polynomial(g) for g in self.gens)})"


def _from_reduced(ring, basis: list) -> Ideal:
    """The Ideal of ring generated by its reduced basis, built unchecked."""
    ideal = object.__new__(Ideal)
    ideal.ring, ideal.gens, ideal._reduced = ring, tuple(basis), basis
    return ideal


def ideal_member(f: Polynomial, ideal: Ideal) -> bool:
    if f.ring != ideal.ring:
        raise ValueError("polynomial from a different ring")
    return normal_form(f, ideal.groebner_basis()).is_zero()


def ideal_equal(i1: Ideal, i2: Ideal) -> bool:
    if i1.ring != i2.ring:
        raise ValueError("ideals from different rings")
    return i1.groebner_basis() == i2.groebner_basis()


def _fresh_aux_name(variables):
    if "t" not in variables:
        return "t"
    k = 0
    while f"t{k}" in variables:
        k += 1
    return f"t{k}"


def elimination_ideal(i1: Ideal, i2: Ideal) -> Ideal:
    """t*I1 + (1-t)*I2, with a fresh variable t prepended to the grevlex ring
    as an elimination block (order "elim1"); its contraction is I1 cap I2."""
    if i1.ring != i2.ring:
        raise ValueError("ideals from different rings")
    ring = i1.ring
    if ring.order != "grevlex":
        raise ValueError("intersection requires a grevlex base ring")
    aux = _fresh_aux_name(ring.variables)
    ext = PolyRing(ring.field, (aux,) + ring.variables, order="elim1")
    # a t-free monomial packs alike in both rings, so lifting by t is an OR
    t = ext._units[0]
    one_minus_t = ext.one() - ext.var(aux)
    gens = [_from_payloads(ext, {m | t: c for m, c in g.terms.items()}) for g in i1.gens]
    gens += [one_minus_t * _from_payloads(ext, g.terms) for g in i2.gens]
    return Ideal(ext, gens)


def contract(aux: Ideal, ring: PolyRing) -> Ideal:
    """The t-free part of an elimination ideal as an Ideal of ring, its reduced
    basis set: by the elimination theorem (Cox, Little & O'Shea, IVA 3.1) that
    is the reduced elim1 basis's t-free elements, first and in grevlex order."""
    ext = aux.ring
    if (ext.order, ext.field, ext.variables[1:], ring.order) != (
            "elim1", ring.field, ring.variables, "grevlex"):
        raise ValueError("not an elimination ideal over this ring")
    # t is the top field: a t-free lead is below it and packs as in ring
    kept = [_from_payloads(ring, g.terms) for g in aux.groebner_basis()
            if g._lead() < ext._units[0]]
    return _from_reduced(ring, kept)


def intersect(i1: Ideal, i2: Ideal) -> Ideal:
    """I1 cap I2, carrying its reduced basis: the contraction of t*I1 + (1-t)*I2."""
    return contract(elimination_ideal(i1, i2), i1.ring)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """The quotient f/g when g divides f exactly; a ValueError otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    quotient = {}
    _divide(f, [g], quotient)
    return _from_payloads(f.ring, quotient)


def colon_of_meet(meet: Ideal, f: Polynomial) -> Ideal:
    """I : f from an already computed meet = I cap <f>, as (1/f) * meet."""
    return Ideal(meet.ring, [exact_divide(g, f) for g in meet.gens])


def quotient_dimension(ideal: Ideal) -> int:
    """Krull dimension of ring/ideal: the size of the largest variable subset
    that contains no leading monomial's support, scanned as bitmasks.  A
    variable that is a lead's whole support lies in no such subset, so it is
    left out of the scan, and so is every support that holds it."""
    gb = ideal.groebner_basis()
    ring = ideal.ring
    n = ring.nvars
    if not gb:
        return n
    if any(g._lead() == 0 for g in gb):
        raise ValueError("the ideal is the whole ring")
    supports = [ring.support(g._lead()) for g in gb]
    lone = sum({sup for sup in supports if sup & (sup - 1) == 0})
    supports = [sup for sup in supports if not sup & lone]
    free = [1 << i for i in range(n) if not lone >> i & 1]
    for size in range(len(free), 0, -1):
        for subset in combinations(free, size):
            s = sum(subset)
            if all(sup & s != sup for sup in supports):
                return size
    return 0


# ---------------------------------------------------------------------------
# ideal file format
# ---------------------------------------------------------------------------

def write_ideal_text(ideal: Ideal) -> str:
    """Ring header plus one polynomial per line in canonical text form."""
    ring = ideal.ring
    head = f"ring {' '.join(ring.variables)} over {ring.field.encode()}"
    lines = [head] + [format_polynomial(g) for g in ideal.gens]
    return "\n".join(lines) + "\n"


def read_ideal_text(text: str) -> Ideal:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("ring "):
        raise ValueError("missing ring header line")
    head = lines[0][len("ring "):]
    if " over " not in head:
        raise ValueError("ring header must name its field after 'over'")
    vars_part, field_part = head.rsplit(" over ", 1)
    field = parse_descriptor(field_part.strip())
    names = vars_part.split()
    bad = [v for v in names if not v.isidentifier()]
    if bad:
        # a name like 1 or x^2 would be read back as a coefficient or a power
        raise ValueError(f"variable names must be identifiers: {', '.join(map(repr, bad))}")
    ring = PolyRing(field, names)
    gens = []
    for idx, ln in enumerate(lines[1:], start=2):
        try:
            gens.append(parse_polynomial(ring, ln))
        except ValueError as exc:
            raise ValueError(f"line {idx}: {exc}") from None
        except ZeroDivisionError:
            raise ValueError(f"line {idx}: {ln!r} divides by zero") from None
    return Ideal(ring, gens)
