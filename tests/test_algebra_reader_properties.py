"""Property test for the algebra file reader: JSON texts of a skew form and a
bracket table, valid or carrying one defect (a bad descriptor, a zero
denominator, a wrong JSON type, a bad key, a wrong length, a broken skew form,
a missing key, cut-off text), either round-trip through algebra_to_json and
algebra_from_json or are refused with ValueError, never another exception."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.omega import algebra_from_json, algebra_to_json

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

GOOD_DESCRIPTORS = ("Q", "Fp:7", "Fp:101", "QuadExt:Q:-2,0", "QuadExt:Fp:7:1,0")
# not prime, characteristic 2, not a number, unknown, reducible, a zero
# denominator, a nested tower, a short minimal polynomial
BAD_DESCRIPTORS = ("Fp:4", "Fp:2", "Fp:x", "R", "", "QuadExt:Q:-1,0", "QuadExt:Q:1/0,0",
                   "QuadExt:Fp:7:1/7,0", "QuadExt:QuadExt:Q:-2,0:1,0", "QuadExt:Q:1")
WRONG_TYPES = (None, 3, 1.5, True, [], {}, ["0"])
# zero denominators (1/7 vanishes in F_7), stray text, wrong extension shapes
BAD_SCALARS = WRONG_TYPES + ("1/0", "1/7", "[1/0,1]", "x", "1/", "", "[1]", "[1,2,3]", "[1,2]")
BAD_KEYS = ("1,0", "0,0", "0", "a,b", "0,1,2", "", "0;1", "9,10", "0,-1")
DEFECTS = ("field", "dim", "omega-type", "omega-rows", "omega-row-length", "omega-entry",
           "omega-not-skew", "brackets-type", "bracket-key", "bracket-length",
           "bracket-type", "bracket-entry", "missing-key", "not-an-object", "cut-short")


@st.composite
def scalars(draw, ext):
    def one():
        num = draw(st.integers(-9, 9))
        return draw(st.sampled_from((str(num), f"{num}/{draw(st.integers(1, 5))}")))
    return f"[{one()},{one()}]" if ext else one()


def negated(text):
    """The text of the negative of a scalar text."""
    if text.startswith("["):
        return "[" + ",".join(negated(part) for part in text[1:-1].split(",")) + "]"
    return text[1:] if text.startswith("-") else f"-{text}"


def _resized(draw, items, filler):
    return items[:-1] if draw(st.booleans()) else items + [filler]


@st.composite
def algebra_texts(draw):
    field = draw(st.sampled_from(GOOD_DESCRIPTORS))
    ext = field.startswith("QuadExt")
    n = draw(st.integers(3, 4))
    upper = {(i, j): draw(scalars(ext)) for i in range(n) for j in range(i + 1, n)}
    omega = [[upper[(i, j)] if i < j else "0" if i == j else negated(upper[(j, i)])
              for j in range(n)] for i in range(n)]
    pairs = sorted(upper)
    brackets = {f"{i},{j}": [draw(scalars(ext)) for _ in range(n)]
                for i, j in draw(st.lists(st.sampled_from(pairs), unique=True))}
    payload = {"field": field, "dim": n, "omega": omega, "brackets": brackets}
    defect = draw(st.sampled_from((None,) + DEFECTS))
    row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    key = draw(st.sampled_from(sorted(brackets))) if brackets else None
    if defect == "field":
        payload["field"] = draw(st.sampled_from(BAD_DESCRIPTORS + WRONG_TYPES))
    elif defect == "dim":
        payload["dim"] = draw(st.sampled_from((2, n + 1, -1, str(n), float(n), True, None)))
    elif defect == "omega-type":
        payload["omega"] = draw(st.sampled_from(WRONG_TYPES))
    elif defect == "omega-rows":
        payload["omega"] = _resized(draw, omega, ["0"] * n)
    elif defect == "omega-row-length":
        omega[row] = _resized(draw, omega[row], "0")
    elif defect == "omega-entry":
        omega[row][col] = draw(st.sampled_from(BAD_SCALARS))
    elif defect == "omega-not-skew":
        omega[row][col] = draw(scalars(ext))
    elif defect == "brackets-type":
        payload["brackets"] = draw(st.sampled_from(WRONG_TYPES))
    elif defect == "bracket-key":
        brackets[draw(st.sampled_from(BAD_KEYS))] = ["0"] * n
    elif key is not None and defect == "bracket-length":
        brackets[key] = _resized(draw, brackets[key], "0")
    elif key is not None and defect == "bracket-type":
        brackets[key] = draw(st.sampled_from(WRONG_TYPES))
    elif key is not None and defect == "bracket-entry":
        brackets[key][col] = draw(st.sampled_from(BAD_SCALARS))
    elif defect == "missing-key":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif defect == "not-an-object":
        payload = draw(st.sampled_from(WRONG_TYPES))
    text = json.dumps(payload)
    return text[:len(text) // 2] if defect == "cut-short" else text


@PROPERTY
@given(algebra_texts())
def test_algebra_reader_round_trips_or_refuses(text):
    try:
        alg = algebra_from_json(text)
    except ValueError:
        return
    out = algebra_to_json(alg)
    again = algebra_from_json(out)
    assert again == alg
    assert algebra_to_json(again) == out
