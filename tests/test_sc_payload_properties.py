"""Property tests for StructureConstants, which stores raw payloads: the checked
constructor and the unchecked builder must agree, embed must act entry by
entry as the extension's own embed, and every accessor must hand out
FieldElements of the bracket's own field, checked against a reference table
kept here as FieldElements."""

from fractions import Fraction
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.fields import QQ, FieldElement, PrimeField, QuadExt
from omegalie.omega import StructureConstants

F101 = PrimeField(101)
Q_EXT = QuadExt(QQ, 1, 1)
F101_EXT = QuadExt(F101, 25, 1)

PROPERTY = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# few values, so that all-zero brackets and equal tables are drawn often
small = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
FIELDS = {
    "Q": (QQ, small),
    "F101": (F101, small),
    "Q(t)": (Q_EXT, st.tuples(small, small)),
    "F101(t)": (F101_EXT, st.tuples(small, small)),
}
BASES = {"Q": Q_EXT, "F101": F101_EXT}


def draw_table(data, field, values, dim):
    """A reference bracket: {(i, j): FieldElements} on a random set of pairs i < j."""
    pairs = data.draw(st.sets(st.sampled_from(list(combinations(range(dim), 2)))))
    return {pair: tuple(field.elem(data.draw(values)) for _ in range(dim))
            for pair in sorted(pairs)}


def elements(field, vec):
    """vec, checked to hold FieldElements of field only."""
    for x in vec:
        assert isinstance(x, FieldElement) and x.field == field
    return vec


def full_reference(ref, field, dim):
    """[e_i, e_j] for every ordered pair, from the reference upper half."""
    zeros = (field.zero,) * dim
    out = {}
    for i in range(dim):
        for j in range(dim):
            if i < j:
                out[i, j] = ref.get((i, j), zeros)
            elif i > j:
                out[i, j] = tuple(-x for x in ref.get((j, i), zeros))
            else:
                out[i, j] = zeros
    return out


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data(), dim=st.integers(2, 4))
def test_checked_and_unchecked_builds_agree(name, data, dim):
    field, values = FIELDS[name]
    ref = draw_table(data, field, values, dim)
    checked = StructureConstants(field, dim, ref)
    raw = StructureConstants._from_payloads(
        field, dim, {k: tuple(x.value for x in vec) for k, vec in ref.items()})
    assert checked == raw and hash(checked) == hash(raw)
    # raw scalars are coerced into the field by the checked constructor
    coerced = StructureConstants(field, dim, {k: [x.value for x in vec] for k, vec in ref.items()})
    assert coerced == checked and hash(coerced) == hash(checked)


@pytest.mark.parametrize("name", sorted(FIELDS))
@PROPERTY
@given(data=st.data(), dim=st.integers(2, 4))
def test_accessors_hand_out_elements_of_the_own_field(name, data, dim):
    field, values = FIELDS[name]
    ref = draw_table(data, field, values, dim)
    sc = StructureConstants(field, dim, ref)
    for (i, j), vec in full_reference(ref, field, dim).items():
        assert elements(field, sc.bracket(i, j)) == vec
    entries = sc.entries()
    for vec in entries.values():
        elements(field, vec)
    # entries leaves out exactly the all-zero brackets
    assert entries == {k: vec for k, vec in ref.items() if any(vec)}


@pytest.mark.parametrize("name", sorted(BASES))
@PROPERTY
@given(data=st.data(), dim=st.integers(2, 4))
def test_embed_matches_the_entrywise_embed(name, data, dim):
    field, values = FIELDS[name]
    ext = BASES[name]
    ref = draw_table(data, field, values, dim)
    sc = StructureConstants(field, dim, ref).embed(ext)
    assert sc.field == ext
    for (i, j), vec in full_reference(ref, field, dim).items():
        assert elements(ext, sc.bracket(i, j)) == tuple(ext.embed(x) for x in vec)
    assert sc == StructureConstants(
        ext, dim, {k: [ext.embed(x) for x in vec] for k, vec in ref.items()})


@pytest.mark.parametrize("name", sorted(BASES))
@PROPERTY
@given(data=st.data(), dim=st.integers(2, 4))
def test_embed_over_another_base_is_refused(name, data, dim):
    field, values = FIELDS[name]
    other = F101_EXT if field == QQ else Q_EXT
    sc = StructureConstants(field, dim, draw_table(data, field, values, dim))
    with pytest.raises(ValueError, match="is not the base of"):
        sc.embed(other)
