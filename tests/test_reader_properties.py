"""Property test for the ideal file reader: texts drawn from a small token
grammar, valid or not, either round-trip through write_ideal_text and
read_ideal_text or are refused with a ValueError, never another exception."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.groebner import read_ideal_text, write_ideal_text

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

VARIABLES = ("x", "y", "z", "t")
GOOD_DESCRIPTORS = ("Q", "Fp:7", "Fp:101", "Fp:2305843009213693951", "QuadExt:Q:2,0",
                    "QuadExt:Q:1,1", "QuadExt:Fp:7:1,0")
# not prime, characteristic 2, not a number, unknown, reducible, a zero
# denominator, a nested tower, a missing or short minimal polynomial
BAD_DESCRIPTORS = ("Fp:4", "Fp:2", "Fp:x", "Fp:", "R", "", "QuadExt:Q:-1,0",
                   "QuadExt:Q:1/0,0", "QuadExt:Fp:7:1/7,0", "QuadExt:QuadExt:Q:-2,0:1,0",
                   "QuadExt:Q", "QuadExt:Q:1")
STRAY = ("", "1", "*", "^", "+", "-", "[", "]", ",", "/", "x^", "1/", "/2", "ring", "over")


def rarely(draw, good, bad):
    """A draw from good, or about one time in eight from bad."""
    return draw(bad if draw(st.integers(0, 7)) == 5 else good)


@st.composite
def scalars(draw, ext):
    def one():
        num = draw(st.integers(-12, 12))
        den = rarely(draw, st.integers(1, 6), st.sampled_from((0, 7)))
        return draw(st.sampled_from((str(num), f"{num}/{den}")))
    single, pair = one(), f"[{one()},{one()}]"
    # extension elements belong to an extension field, single ones elsewhere
    return rarely(draw, st.just(pair if ext else single), st.just(single if ext else pair))


@st.composite
def factors(draw, names, ext):
    var = rarely(draw, st.sampled_from(names or VARIABLES), st.sampled_from(VARIABLES))
    power = rarely(draw, st.integers(0, 3).map(str), st.sampled_from(("", "x", "1/2", "-1")))
    good = st.sampled_from((var, f"{var}^{power}", draw(scalars(ext))))
    return rarely(draw, good, st.sampled_from(STRAY))


@st.composite
def polynomial_lines(draw, names, ext):
    parts = [draw(st.sampled_from(("", "-", "+")))]
    for t in range(draw(st.integers(1, 3))):
        if t:
            parts.append(rarely(draw, st.sampled_from((" + ", " - ", "+", "-")),
                                st.sampled_from(("", " ", "++", "+-"))))
        parts.append("*".join(draw(st.lists(factors(names, ext), min_size=1, max_size=3))))
    return "".join(parts)


@st.composite
def ideal_texts(draw):
    names = rarely(draw, st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=3,
                                  unique=True),
                   st.lists(st.sampled_from(VARIABLES + STRAY), max_size=3))
    field = rarely(draw, st.sampled_from(GOOD_DESCRIPTORS), st.sampled_from(BAD_DESCRIPTORS))
    head = rarely(draw, st.just(f"ring {' '.join(names)} over {field}"),
                  st.sampled_from(("", "ring x", "ring x over", "x over Q")))
    ext = field.startswith("QuadExt")
    lines = draw(st.lists(polynomial_lines(names, ext), max_size=3))
    return "\n".join([head] + lines) + "\n"


@PROPERTY
@given(ideal_texts())
def test_reader_round_trips_or_refuses(text):
    try:
        ideal = read_ideal_text(text)
    except ValueError:
        return
    out = write_ideal_text(ideal)
    again = read_ideal_text(out)
    assert again.ring == ideal.ring
    assert again.gens == ideal.gens
    assert write_ideal_text(again) == out
