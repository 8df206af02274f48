import operator
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from omegalie.fields import (
    QQ,
    ExtensionDepthExceeded,
    FieldElement,
    PrimeField,
    QuadExt,
    _sqrt_in_depth0,
    parse_descriptor,
    quadratic_roots,
    sqrt_or_extend,
)

F7 = PrimeField(7)
F101 = PrimeField(101)


def test_fraction_arithmetic():
    a = QQ.elem(Fraction(2, 3))
    b = QQ.elem(Fraction(1, 6))
    assert a + b == QQ.elem(Fraction(5, 6))


def test_prime_field_product():
    assert F7.elem(3) * F7.elem(5) == F7.elem(1)


def test_quadext_minpoly_reduction():
    # Q(theta), theta^2 + theta + 1 = 0
    K = QuadExt(QQ, 1, 1)
    t = K.theta
    assert t * t == -t - 1


def test_quadext_inverse():
    K = QuadExt(QQ, -2, 0)  # theta^2 = 2
    t = K.theta
    x = t + 3
    assert x * x.inverse() == K.one
    assert (t * t) == K.elem(2)


def test_descriptor_mismatch_rejected():
    with pytest.raises(ValueError, match="mixed fields: F_7 and F_101"):
        F7.elem(1) + F101.elem(1)


@pytest.mark.parametrize("text", ["1e5000", "2E-5", " -.5e3 ", "1_0e1_0"])
def test_rationals_refuse_exponent_notation(text):
    # Fraction would build 10**exponent, whose cost grows exponentially with
    # the literal's length
    with pytest.raises(ValueError, match=re.escape(f"exponent notation is not accepted: {text!r}")):
        QQ.parse(text)


@pytest.mark.parametrize("text", ["1e", ".e5", "1/2e3"])
def test_rationals_keep_the_fraction_message_on_other_malformed_texts(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        QQ.parse(text)


def test_char_two_rejected():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_reducible_minpoly_rejected():
    with pytest.raises(ValueError):
        QuadExt(QQ, -4, 0)  # t^2 - 4 splits
    with pytest.raises(ValueError):
        QuadExt(F7, -2, 0)  # 2 = 3^2 in F_7


def test_tower_depth_capped():
    K = QuadExt(QQ, -2, 0)
    with pytest.raises(ExtensionDepthExceeded) as info:
        QuadExt(K, K.coerce(-3), K.coerce(0))
    assert info.value.minpoly == (K.elem(-3), K.zero)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one / QQ.zero
    K = QuadExt(QQ, 1, 1)
    with pytest.raises(ZeroDivisionError):
        K.one / K.zero


def _random_element(field, rng):
    if field is QQ:
        return QQ.elem(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    if isinstance(field, PrimeField):
        return field.elem(rng.randrange(field.p))
    base = field.base
    return FieldElement(field, (_random_element(base, rng).value,
                                _random_element(base, rng).value))


FIELDS = [QQ, F7, F101, QuadExt(QQ, 1, 1), QuadExt(F101, -2, 0)]


def test_field_axioms_randomized():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(2500):
            a, b, c = (_random_element(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero
            if not b.is_zero():
                assert (a / b) * b == a


def test_quadratic_roots_split_case():
    assert quadratic_roots(QQ.elem(-2)) == (QQ.elem(1), QQ.elem(-2))


def test_quadratic_roots_double_case():
    half = QQ.elem(Fraction(-1, 2))
    assert quadratic_roots(QQ.elem(Fraction(1, 4))) == (half, half)


def test_quadratic_roots_extension_case():
    # discriminant 1 - 4 = -3 is negative, hence not a rational square
    r1, r2 = quadratic_roots(QQ.elem(1))
    ext = r1.field
    assert isinstance(ext, QuadExt) and ext.base == QQ
    assert ext.minpoly == (QQ.elem(1), QQ.elem(1))
    assert r1 == ext.theta and r2 == -ext.theta - 1
    for r in (r1, r2):
        assert r * r + r + ext.one == ext.zero


def test_quadratic_roots_identity_randomized():
    rng = random.Random(11)
    for field in (QQ, F101):
        for _ in range(300):
            delta = _random_element(field, rng)
            b, c = quadratic_roots(delta)
            d = delta if b.field == field else b.field.embed(delta)
            if b.field != field:
                # the roots needed the extension: t^2 + t + delta is its minpoly
                assert b.field.minpoly == (delta, field.one)
                assert b != c
            assert b + c == -b.field.one
            assert b * c == d
            for r in (b, c):
                assert r * r + r + d == b.field.zero


def test_split_extends_when_no_root_lies_in_the_field():
    # roots in the field: no extension
    assert quadratic_roots(QQ.elem(-2)) == (QQ.elem(1), QQ.elem(-2))
    three_halves = QQ.elem(Fraction(3, 2))
    assert sqrt_or_extend(three_halves * three_halves) == three_halves
    for find, arg, minpoly in (
            (quadratic_roots, QQ.elem(1), (QQ.elem(1), QQ.elem(1))),
            (sqrt_or_extend, QQ.elem(2), (QQ.elem(-2), QQ.zero))):
        root = find(arg)
        root = root if find is sqrt_or_extend else root[0]
        ext = root.field
        assert isinstance(ext, QuadExt) and ext.base == QQ
        assert ext.minpoly == minpoly
        assert root == ext.theta
        c0, c1 = (ext.embed(c) for c in minpoly)
        assert root * root + c1 * root + c0 == ext.zero


def test_sqrt_rational():
    assert sqrt_or_extend(QQ.elem(Fraction(9, 4))) == QQ.elem(Fraction(3, 2))


def test_sqrt_prime_field_tie_break():
    # 3 and 4 both square to 2; 3 is in [0, p/2]
    assert sqrt_or_extend(F7.elem(2)) == F7.elem(3)


def test_sqrt_needs_extension():
    root = sqrt_or_extend(QQ.elem(2))
    ext = root.field
    assert ext.minpoly == (QQ.elem(-2), QQ.zero)
    assert root == ext.theta
    assert root * root == ext.embed(QQ.elem(2))


def test_sqrt_zero_input():
    with pytest.raises(ValueError, match="sqrt of zero"):
        sqrt_or_extend(QQ.zero)


def test_sqrt_randomized_roundtrip():
    rng = random.Random(13)
    for field in (QQ, F101):
        for _ in range(300):
            s = _random_element(field, rng)
            if s.is_zero():
                continue
            root = sqrt_or_extend(s)
            if root.field != field:
                assert root.field.minpoly == (-s, field.zero)
                s = root.field.embed(s)
            assert root * root == s


def test_sqrt_inside_extension_of_embedded_values():
    K = QuadExt(QQ, -2, 0)  # Q(sqrt 2)
    two = K.embed(QQ.elem(2))
    root = sqrt_or_extend(two)
    assert root == K.theta
    assert root * root == two
    # sqrt(3) does not live in Q(sqrt 2): depth cap reported
    with pytest.raises(ExtensionDepthExceeded) as info:
        sqrt_or_extend(K.embed(QQ.elem(3)))
    assert info.value.minpoly == (K.embed(QQ.elem(-3)), K.zero)
    with pytest.raises(ExtensionDepthExceeded) as info:
        quadratic_roots(K.one)  # t^2 + t + 1 needs sqrt(-3)
    assert info.value.minpoly == (K.one, K.one)


def test_sqrt_of_an_element_with_a_t_part():
    K = QuadExt(QQ, -2, 0)  # Q(sqrt 2)
    s = K.elem((3, 2))  # 3 + 2 sqrt 2 = (1 + sqrt 2)^2
    root = sqrt_or_extend(s)
    assert root * root == s
    assert root in (K.elem((1, 1)), K.elem((-1, -1)))
    # 1 - 4 delta = 3 + 2 sqrt 2, so the roots (-1 +- (1 + sqrt 2))/2 split
    delta = K.elem((Fraction(-1, 2), Fraction(-1, 2)))
    roots = quadratic_roots(delta)
    assert set(roots) == {K.elem((0, Fraction(1, 2))), K.elem((-1, Fraction(-1, 2)))}
    # 3 + 4 sqrt 2 has norm 9 - 32 = -23: the refusal names t^2 + t + delta
    delta = K.elem((Fraction(-1, 2), -1))
    with pytest.raises(ExtensionDepthExceeded) as info:
        quadratic_roots(delta)
    assert info.value.minpoly == (delta, K.one)
    with pytest.raises(ExtensionDepthExceeded) as info:
        sqrt_or_extend(K.elem((3, 4)))
    assert info.value.minpoly == (K.elem((-3, -4)), K.zero)


def _extensions_of(p):
    base = PrimeField(p)
    for c0 in range(p):
        for c1 in range(p):
            try:
                yield QuadExt(base, c0, c1)
            except ValueError:  # t^2 + c1 t + c0 splits over F_p
                continue


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_extension_sqrt_exists_exactly_for_the_squares(p):
    for ext in _extensions_of(p):
        elements = [ext.elem((a, b)) for a in range(p) for b in range(p)]
        squares = {(x * x).value for x in elements}
        for x in elements:
            if x.is_zero():
                continue
            if x.value in squares:
                root = sqrt_or_extend(x)
                assert root.field == ext and root * root == x
            else:
                with pytest.raises(ExtensionDepthExceeded) as info:
                    sqrt_or_extend(x)
                assert info.value.minpoly == (-x, ext.zero)


def test_extension_sqrt_of_a_base_value_is_the_depth0_root():
    # an element with no t-part keeps the root it had before the norm route:
    # the base's canonical root, else v * (t + c1/2) for the base root v of
    # 4 a / (c1^2 - 4 c0)
    for p in (7, 11):
        base = PrimeField(p)
        for ext in _extensions_of(p):
            c0, c1 = ext.minpoly
            disc = c1 * c1 - 4 * c0
            for a in range(1, p):
                root = sqrt_or_extend(ext.elem(a))
                r = _sqrt_in_depth0(base, a)
                if r is not None:
                    assert root == ext.elem(r)
                else:
                    v = _sqrt_in_depth0(base, (4 * base.elem(a) / disc).value)
                    assert root == ext.elem(((base.elem(v) * c1 / 2).value, v))


def test_descriptor_encoding_roundtrip():
    for field in FIELDS:
        assert parse_descriptor(field.encode()) == field
    rng = random.Random(17)
    for field in FIELDS:
        for _ in range(50):
            x = _random_element(field, rng)
            assert field.parse(x.encode()) == x


def test_int_coercion_in_expressions():
    a = F101.elem(5)
    assert a + 1 == F101.elem(6)
    assert 2 * a == F101.elem(10)
    assert a / 2 == F101.elem(5) * F101.elem(2).inverse()
    assert -(a + 1) == F101.elem(-6)


M61 = 2**61 - 1


def test_large_prime_accepted_quickly():
    start = time.perf_counter()
    field = PrimeField(M61)
    assert parse_descriptor(f"Fp:{M61}") == field
    assert time.perf_counter() - start < 0.5


def test_pseudoprimes_rejected():
    for n in (561, 1152271):  # Carmichael numbers; 43 * 127 * 211 has no factor below 41
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)
    # strong pseudoprime to every prime base up to 23 (149491 * 747451 * 34233211)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(3825123056546413051)


def test_descriptor_beyond_primality_bound_rejected():
    with pytest.raises(ValueError, match="only decided below 3317044064679887385961981"):
        parse_descriptor("Fp:" + "1" * 40)


@pytest.mark.parametrize("p", [7, 101, 103, 113])
def test_prime_field_sqrt_matches_brute_force(p):
    field = PrimeField(p)
    for a in range(p):
        want = next((r for r in range(p // 2 + 1) if r * r % p == a), None)
        assert _sqrt_in_depth0(field, a) == want


@pytest.mark.parametrize("p", [M61, 998244353])  # 998244353 - 1 = 119 * 2^23
def test_prime_field_sqrt_large_modulus(p):
    field = PrimeField(p)
    for x in (2, 123456789, p - 5):
        a = x * x % p
        assert sqrt_or_extend(field.elem(a)).value == min(x, p - x)


# Q payloads are built on Fraction's private slots (fields._fraction), so the
# module must refuse to import where that layout is not the one it writes
@pytest.mark.parametrize("patch", [
    "fractions.Fraction.__slots__ = ('_n', '_d')",
    "fractions.Fraction.__hash__ = object.__hash__",
], ids=["slots", "hash"])
def test_import_fails_loudly_when_the_fraction_layout_changes(patch):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import fractions\n{patch}\nimport omegalie.fields\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode != 0
    assert "ImportError" in proc.stderr
    assert f"Python {sys.version.split()[0]}" in proc.stderr


PROTOCOL_FIELDS, PROTOCOL_IDS = [QQ, F101, QuadExt(QQ, -2, 0)], ["Q", "F101", "QuadExt"]
PROTOCOL_OPS = [(operator.add, "add"), (operator.sub, "sub"),
                (operator.mul, "mul"), (operator.truediv, "div")]


@pytest.mark.parametrize("field", PROTOCOL_FIELDS, ids=PROTOCOL_IDS)
@pytest.mark.parametrize("apply, method", PROTOCOL_OPS, ids=[m for _, m in PROTOCOL_OPS])
def test_operators_coerce_ints_and_fractions_on_either_side(field, apply, method):
    x = field.elem((Fraction(5, 7), 3)) if field.depth else field.elem(Fraction(5, 7))
    op = getattr(field, method)
    for other in (field.elem(Fraction(-2, 3)), 3, Fraction(2, 3)):
        v = other.value if isinstance(other, FieldElement) else field.coerce(other)
        forward, reflected = apply(x, other), apply(other, x)
        assert isinstance(forward, FieldElement) and isinstance(reflected, FieldElement)
        assert forward.field == field and reflected.field == field
        assert forward.value == op(x.value, v)
        assert reflected.value == op(v, x.value)


@pytest.mark.parametrize("field", PROTOCOL_FIELDS, ids=PROTOCOL_IDS)
@pytest.mark.parametrize("apply", [op for op, _ in PROTOCOL_OPS], ids=lambda op: op.__name__)
def test_operators_refuse_other_types_and_other_fields(field, apply):
    x, stranger = field.elem(3), F7.elem(3)
    with pytest.raises(TypeError):
        apply(x, "a")
    with pytest.raises(TypeError):
        apply("a", x)
    for a, b in ((x, stranger), (stranger, x)):
        with pytest.raises(ValueError, match="mixed fields: "):
            apply(a, b)


@pytest.mark.parametrize("field", PROTOCOL_FIELDS, ids=PROTOCOL_IDS)
def test_reflected_division_by_zero(field):
    with pytest.raises(ZeroDivisionError):
        1 / field.zero
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / field.zero
    assert 1 / field.elem(4) == field.elem(4).inverse()
