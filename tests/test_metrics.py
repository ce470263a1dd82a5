import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbounds import (
    Code,
    average_radius_ell,
    hamming_distance,
    hamming_weight,
    lr_distance,
    lr_weight,
    plurality,
    plurality_ell,
)

from reference import (
    ref_avg_radius_by_centers,
    ref_lr_dist,
    ref_plurality_count,
    ref_plurality_ell_count,
    ref_plurality_ell_subset,
)

# up to 8 symbols in at most 8 draws: many symbols tie, most at count 0 or 1
words = st.integers(min_value=2, max_value=8).flatmap(
    lambda q: st.tuples(
        st.just(q),
        st.lists(st.integers(min_value=1, max_value=q), min_size=1, max_size=8),
    )
)


@given(words)
def test_plurality_matches_counter(qx):
    q, x = qx
    sym, cnt = plurality(x, q)
    assert cnt == ref_plurality_count(x)
    assert x.count(sym) == cnt
    # smallest symbol among maximizers
    assert all(x.count(s) < cnt for s in range(1, sym))


@given(words, st.data())
def test_plurality_ell_matches_exhaustive(qx, data):
    q, x = qx
    ell = data.draw(st.integers(min_value=1, max_value=q - 1))
    sub, cnt = plurality_ell(x, q, ell)
    assert cnt == ref_plurality_ell_count(x, q, ell)
    assert sub == ref_plurality_ell_subset(x, q, ell)
    assert sum(x.count(s) for s in sub) == cnt


def test_plurality_tie_breaks_to_smallest():
    assert plurality((1, 1, 2, 2), 3) == (1, 2)
    assert plurality_ell((1, 2, 3, 4), 4, 2) == ((1, 2), 2)


def test_plurality_ell_reduces_to_plurality():
    x = (2, 3, 3, 1)
    sym, cnt = plurality(x, 3)
    sub, cnt2 = plurality_ell(x, 3, 1)
    assert sub == (sym,) and cnt == cnt2


def test_plurality_rejects_bad_input():
    with pytest.raises(ValueError):
        plurality((), 2)
    with pytest.raises(ValueError):
        plurality((0, 1), 2)
    # ell = q is the degenerate full alphabet, anything beyond is invalid
    assert plurality_ell((1, 2), 3, 3) == ((1, 2, 3), 2)
    with pytest.raises(ValueError):
        plurality_ell((1, 2), 3, 4)
    for call in (
        lambda: plurality_ell((1, 2), 3, 1.5),
        lambda: plurality_ell((1, 2), 3.5, 1),
        lambda: lr_weight((1, 2), 3, 1.5),
        lambda: hamming_weight((1, 2), 2.5),
        lambda: average_radius_ell(((1, 2), (2, 1)), 1.5),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_hamming_distance_basics():
    assert hamming_distance((1, 2, 3), (1, 2, 3)) == 0
    assert hamming_distance((1, 2, 3), (3, 2, 1)) == 2
    with pytest.raises(ValueError):
        hamming_distance((1, 2), (1, 2, 3))


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=8),
    st.data(),
)
def test_hamming_distance_is_a_metric(x, data):
    n = len(x)
    y = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)
    )
    z = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n)
    )
    assert hamming_distance(x, y) == hamming_distance(y, x)
    assert 0 <= hamming_distance(x, y) <= n
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)
    assert (hamming_distance(x, y) == 0) == (list(x) == list(y))


def test_weights_are_distances_to_canonical_centers():
    # hamming weight: distance to the all-q word
    assert hamming_weight((3, 3, 3), 3) == 0
    assert hamming_weight((1, 3, 2), 3) == 2
    # lr weight: coordinates missing the top-ell list {q-ell+1..q}
    assert lr_weight((1, 2, 3), 3, 2) == 1
    assert lr_weight((1, 1, 1), 3, 2) == 3
    assert lr_weight((3, 3), 3, 2) == 0


@given(words, st.data())
def test_lr_weight_equals_distance_to_top_list(qx, data):
    q, x = qx
    ell = data.draw(st.integers(min_value=1, max_value=q - 1))
    top = tuple(range(q - ell + 1, q + 1))
    center = tuple(top for _ in x)
    assert lr_weight(x, q, ell) == lr_distance(x, center)


def test_lr_distance_counts_misses():
    assert lr_distance((1, 2, 3), ((1, 2), (1, 3), (1, 2))) == 2
    assert lr_distance((1,), ((1,),)) == 0
    with pytest.raises(ValueError):
        lr_distance((1, 2), ((1,),))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_average_radius_is_the_center_minimum(data):
    q = data.draw(st.integers(min_value=2, max_value=3))
    n = data.draw(st.integers(min_value=1, max_value=3))
    L = data.draw(st.integers(min_value=2, max_value=4))
    ell = data.draw(st.integers(min_value=1, max_value=q - 1))
    xs = tuple(
        tuple(data.draw(st.integers(min_value=1, max_value=q)) for _ in range(n))
        for _ in range(L)
    )
    got = average_radius_ell(xs, ell)
    want = ref_avg_radius_by_centers(xs, q, ell)
    assert got == pytest.approx(want, abs=1e-12)


def test_average_radius_known_values():
    # identical words: radius 0
    assert average_radius_ell(((1, 2), (1, 2)), 1) == 0.0
    # one column split 2-1: plurality 2, radius (3-2)/3 per column
    xs = ((1,), (1,), (2,))
    assert average_radius_ell(xs, 1) == pytest.approx(1.0 / 3.0)
    # ell=2 captures both symbols
    assert average_radius_ell(xs, 2) == 0.0


def test_average_radius_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        average_radius_ell(((1, 2), (1,)), 1)
    with pytest.raises(ValueError):
        average_radius_ell((), 1)


def test_code_validation_and_rate():
    with pytest.raises(ValueError):
        Code(2, 2, ((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        Code(2, 2, ((1, 1), (1, 2, 1)))
    with pytest.raises(ValueError):
        Code(2, 2, ((1, 3),))
    c = Code(2, 4, ((1, 1, 1, 1), (1, 1, 2, 2)))
    assert c.size == 2
    assert c.rate() == pytest.approx(0.25)
    full = Code(2, 2, tuple(itertools.product((1, 2), repeat=2)))
    assert full.rate() == pytest.approx(1.0)
