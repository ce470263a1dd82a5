import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbounds import (
    Composition,
    composition_table,
    enumerate_compositions,
    majorizes,
    max_ell_partial_sum,
    multinomial,
)
from lrbounds.compositions import _top_ell_plus_unit

from reference import ref_compositions, ref_multinomial, ref_top_ell


def test_enumeration_matches_stars_and_bars():
    for q in range(1, 5):
        for m in range(0, 7):
            got = [c.entries for c in enumerate_compositions(q, m)]
            assert set(got) == ref_compositions(q, m)
            assert len(got) == len(set(got))
            assert len(got) == math.comb(m + q - 1, q - 1)


def test_enumeration_order_first_coordinate_descending():
    got = [c.entries for c in enumerate_compositions(2, 2)]
    assert got == [(2, 0), (1, 1), (0, 2)]
    firsts = [c.entries[0] for c in enumerate_compositions(3, 4)]
    assert firsts == sorted(firsts, reverse=True)


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_compositions(0, 3))
    with pytest.raises(ValueError):
        list(enumerate_compositions(2, -1))
    with pytest.raises(ValueError):
        composition_table(0, 3, 1)
    with pytest.raises(ValueError):
        composition_table(2, -1, 1)


def test_composition_validates_entries():
    with pytest.raises(ValueError):
        Composition((1, -1))
    with pytest.raises(ValueError):
        Composition((0.5, 0.5))
    with pytest.raises(ValueError):
        Composition(())
    c = Composition((2, 0, 1))
    assert c.total == 3
    assert len(c) == 3
    assert list(c) == [2, 0, 1]
    assert c[0] == 2


@given(
    st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6)
)
def test_multinomial_matches_factorial_formula(a):
    m = sum(a)
    assert multinomial(m, a) == ref_multinomial(m, a)


def test_multinomial_rejects_wrong_total():
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_multinomial_row_sums():
    # sum over A_{q,m} of multinomials is q^m
    for q, m in [(2, 5), (3, 4), (4, 3)]:
        total = sum(multinomial(m, c) for c in enumerate_compositions(q, m))
        assert total == q**m


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=6),
    st.data(),
)
def test_max_ell_partial_sum_matches_sorted_route(a, data):
    ell = data.draw(st.integers(min_value=1, max_value=len(a)))
    assert max_ell_partial_sum(a, ell) == ref_top_ell(a, ell)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda q: st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=q, max_size=q),
            min_size=1,
            max_size=5,
        )
    )
)
def test_top_ell_plus_unit_matches_sorted_route(rows):
    counts = np.array(rows, dtype=np.int64)
    q = counts.shape[1]
    for ell in range(1, q + 1):
        got = _top_ell_plus_unit(counts, ell)
        assert got.shape == counts.shape
        for a, out in zip(rows, got.tolist()):
            assert out == [ref_top_ell(a[:j] + [a[j] + 1] + a[j + 1 :], ell) for j in range(q)]


def test_max_ell_partial_sum_rejects_bad_ell():
    with pytest.raises(ValueError):
        max_ell_partial_sum((1, 2), 0)
    with pytest.raises(ValueError):
        max_ell_partial_sum((1, 2), 3)
    with pytest.raises(ValueError):
        composition_table(2, 3, 0)
    with pytest.raises(ValueError):
        composition_table(2, 3, 3)


def test_majorizes_known_chain():
    # (4,0,0) > (3,1,0) > (2,2,0) > (2,1,1)
    chain = [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]
    for i, a in enumerate(chain):
        for b in chain[i:]:
            assert majorizes(a, b)
    for i, a in enumerate(chain):
        for b in chain[:i]:
            assert not majorizes(a, b)


def test_majorizes_is_order_insensitive_and_validates():
    assert majorizes((0, 3, 1), (2, 1, 1))
    with pytest.raises(ValueError):
        majorizes((1, 2), (1, 2, 0))
    with pytest.raises(ValueError):
        majorizes((1, 0), (1, 1))


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=5,
    )
)
def test_majorizes_reflexive(a):
    assert majorizes(a, a)


def test_composition_table_contents():
    for q, m, ell in [(2, 3, 1), (3, 4, 2), (4, 5, 3), (1, 4, 1), (5, 0, 2), (8, 9, 2), (6, 7, 6)]:
        tab = composition_table(q, m, ell)
        comps = list(enumerate_compositions(q, m))
        assert tab.counts.shape == (len(comps), q)
        assert [tuple(row) for row in tab.counts] == [c.entries for c in comps]
        assert tab.counts.sum(axis=1).tolist() == [m] * len(comps)
        for k, c in enumerate(comps):
            assert tab.multinomials[k] == float(multinomial(m, c))
            assert tab.top_ell[k] == float(max_ell_partial_sum(c, ell))
        assert (tab.exponents == tab.counts).all()


def test_composition_table_read_only_and_cached():
    tab = composition_table(3, 3, 1)
    assert tab is composition_table(3, 3, 1)
    with pytest.raises(ValueError):
        tab.counts[0, 0] = 5


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6))
def test_table_multinomials_sum_property(q, m):
    tab = composition_table(q, m, 1)
    assert math.fsum(tab.multinomials) == q**m
