"""Property test of quotient_dimension's pruned subset scan against a brute
force over every variable subset, on monomial ideals in up to 8 variables.
The reduced basis of a monomial ideal is its minimal generators, and a
subset holds the support of a generator exactly when it holds the support of
a minimal one that divides it, so the brute force may read the generators."""

from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ
from omegalie.groebner import Ideal, PolyRing, Polynomial, quotient_dimension

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@st.composite
def monomial_generators(draw):
    """(n, exponent vectors): each generator a nonconstant monomial, often a
    power of one variable, which is the case the scan prunes."""
    n = draw(st.integers(1, 8))
    supports = st.one_of(st.sets(st.integers(0, n - 1), min_size=1, max_size=1),
                         st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    gens = []
    for support in draw(st.lists(supports, min_size=1, max_size=7)):
        gens.append(tuple(draw(st.integers(1, 2)) if i in support else 0 for i in range(n)))
    return n, gens


def brute_force_dimension(n, gens):
    """The size of the largest variable subset that holds no generator's support."""
    supports = [{i for i, e in enumerate(v) if e} for v in gens]
    return max(k for k in range(n + 1) for subset in combinations(range(n), k)
               if not any(sup <= set(subset) for sup in supports))


@PROPERTY
@given(monomial_generators())
def test_pruned_scan_matches_the_brute_force(case):
    n, gens = case
    ring = PolyRing(QQ, [f"x{i}" for i in range(n)])
    ideal = Ideal(ring, [Polynomial(ring, {v: 1}) for v in gens])
    assert quotient_dimension(ideal) == brute_force_dimension(n, gens)
