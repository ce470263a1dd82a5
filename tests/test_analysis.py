import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lrbounds import (
    Distribution,
    G_ell,
    Params,
    SlicedDistribution,
    certify_convexity,
    certify_monotonicity_g,
    certify_schur,
    enumerate_compositions,
    f,
    f_gradient,
    f_hessian,
    g,
    g_prime,
    g_second,
    lipschitz_g,
    schur_ostrowski_value,
    zero_rate_threshold,
)

from lrbounds.analysis import (_BLOCK, _LOG_ZERO, _composition_sums, _f_derivatives,
                               _head_tail_sums, _log_probs, _slice_bernstein, _slice_values)
from lrbounds.exact import _binomial_row, _slice_numerators, _tail_mass_coefficients
from lrbounds.compositions import (_head_tail_layout, _takes_head_tail, _top_ell_table,
                                   composition_table)

from reference import (
    POOL_TRIPLES,
    central_diff,
    ref_composition_sums,
    ref_f,
    ref_f_gradient,
    ref_f_hessian,
    ref_slice_bernstein,
    ref_slice_fractions,
    ref_tail_mass_coefficients,
    ref_top_ell,
    second_central_diff,
    simplex_point,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SMALL_PARAMS = [
    Params(2, 1, 2),
    Params(2, 1, 4),
    Params(3, 1, 3),
    Params(3, 2, 3),
    Params(4, 2, 4),
    Params(4, 3, 5),
    Params(5, 2, 3),
]


def test_params_validation():
    with pytest.raises(ValueError):
        Params(1, 1, 2)
    with pytest.raises(ValueError):
        Params(3, 0, 2)
    with pytest.raises(ValueError):
        Params(3, 3, 2)
    with pytest.raises(ValueError):
        Params(3, 1, 1)
    assert Params(4, 3, 2).w_star == pytest.approx(0.25)


@pytest.mark.parametrize("value", [math.inf, math.nan, 2.5])
def test_params_non_integers_name_the_field(value):
    for field, args in (("q", (value, 1, 2)), ("ell", (3, value, 2)), ("L", (3, 1, value))):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            Params(*args)


def test_binomial_row_is_exact():
    for L in (0, 1, 2, 7, 300, 1100):
        assert _binomial_row(L) == tuple(math.comb(L, k) for k in range(L + 1))


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution((0.5, 0.6))
    with pytest.raises(ValueError):
        Distribution((1.2, -0.2))
    with pytest.raises(ValueError):
        Distribution((math.nan, 0.5, 0.5))
    d = Distribution.uniform(3)
    assert d.as_array() == pytest.approx(np.full(3, 1 / 3))
    # tiny negative noise is clipped, not rejected
    d2 = Distribution((1.0, -1e-15, 1e-15))
    assert min(d2.probs) >= 0.0


def test_sliced_distribution_blocks():
    s = SlicedDistribution(4, 2, 0.3).distribution().probs
    assert s == pytest.approx((0.15, 0.15, 0.35, 0.35))
    # w=0: all mass on the top ell symbols
    s0 = SlicedDistribution(3, 2, 0.0).distribution().probs
    assert s0 == pytest.approx((0.0, 0.5, 0.5))
    # w=w*: uniform
    su = SlicedDistribution(3, 1, 2 / 3).distribution().probs
    assert su == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    with pytest.raises(ValueError):
        SlicedDistribution(3, 1, 1.5)
    for q, ell in [(3.5, 1), (3, 1.5), (math.inf, 1), (3, math.nan)]:
        with pytest.raises(ValueError, match="must be an integer"):
            SlicedDistribution(q, ell, 0.2)
    # whole floats become ints, as in Params
    assert SlicedDistribution(3.0, 1.0, 0.2) == SlicedDistribution(3, 1, 0.2)
    assert type(SlicedDistribution(3.0, 1, 0.2).q) is int


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_f_matches_direct_expectation(params):
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = simplex_point(rng, params.q)
        want = ref_f(params.q, params.ell, params.L, p)
        assert f(params, p) == pytest.approx(want, abs=1e-10)
    # boundary distribution with zeros
    p0 = np.zeros(params.q)
    p0[0] = 1.0
    want = ref_f(params.q, params.ell, params.L, p0)
    assert f(params, p0) == pytest.approx(want, abs=1e-12)


def test_f_accepts_all_input_forms():
    params = Params(3, 1, 3)
    arr = np.array([0.2, 0.3, 0.5])
    val = f(params, arr)
    assert f(params, (0.2, 0.3, 0.5)) == val
    assert f(params, Distribution((0.2, 0.3, 0.5))) == val


def test_f_side_rejects_nan():
    # log NaN must not be floored to log 0 and read as a zero probability
    params = Params(3, 1, 3)
    for fn in (f, f_gradient, f_hessian):
        with pytest.raises(ValueError):
            fn(params, (math.nan, 0.5, 0.5))


def test_f_is_homogeneous_of_degree_L():
    # f extends to a polynomial; scaling the vector scales by t^L
    params = Params(3, 2, 4)
    u = np.full(3, 1 / 3)
    assert f(params, 0.5 * u) == pytest.approx(0.5**4 * f(params, u))


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_f_at_uniform_ties_to_threshold(params):
    val = f(params, Distribution.uniform(params.q))
    pstar = zero_rate_threshold(params)
    assert val == pytest.approx(params.L * (1.0 - pstar), rel=1e-13)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_gradient_matches_finite_differences(params):
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(4):
        p = 0.1 + 0.8 * simplex_point(rng, params.q)
        grad = f_gradient(params, p)
        for j in range(params.q):
            def fj(t, j=j):
                v = p.copy()
                v[j] = t
                return f(params, v)
            assert grad[j] == pytest.approx(central_diff(fj, p[j], h), abs=1e-6)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_hessian_matches_finite_differences(params):
    rng = np.random.default_rng(6)
    h = 1e-4
    p = 0.1 + 0.8 * simplex_point(rng, params.q)
    hess = f_hessian(params, p)
    assert hess == pytest.approx(hess.T, abs=1e-12)
    for i in range(params.q):
        for j in range(params.q):
            def gij(t, i=i, j=j):
                v = p.copy()
                v[j] = t
                return f_gradient(params, v)[i]
            assert hess[i, j] == pytest.approx(central_diff(gij, p[j], h), abs=1e-4)


def test_derivatives_on_faces_match_term_by_term_sums():
    # a zero coordinate kills every term that holds it and leaves the rest alone
    sets = [(q, ell, L) for q in range(2, 6) for L in range(2, 7) for ell in range(1, q)]
    for q, ell, L in sets + [(8, 2, 10)]:
        params = Params(q, ell, L)
        vertex = np.eye(q)[0]
        edge = np.zeros(q)
        edge[:2] = 0.5
        tail = np.zeros(q)
        tail[-2:] = (0.3, 0.7)
        for p in (vertex, edge, tail):
            np.testing.assert_allclose(
                f_gradient(params, p), ref_f_gradient(q, ell, L, p), rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                f_hessian(params, p), ref_f_hessian(q, ell, L, p), rtol=1e-12, atol=1e-12
            )


def test_f_side_at_large_L():
    # C(1100, 550) is about 1e330; the composition sums run in the log domain
    params = Params(2, 1, 1100)
    L = params.L
    val = f(params, Distribution.uniform(2))
    assert val == pytest.approx(L * (1.0 - zero_rate_threshold(params)), rel=1e-12)
    assert f_gradient(params, (1.0, 0.0)).tolist() == [L * L, L * (L - 1)]


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_euler_identity(params):
    # f is homogeneous of degree L, so p . grad f = L f
    rng = np.random.default_rng(7)
    p = simplex_point(rng, params.q)
    lhs = float(p @ f_gradient(params, p))
    assert lhs == pytest.approx(params.L * f(params, p), rel=1e-12)


@pytest.mark.parametrize("params", SMALL_PARAMS + [Params(8, 2, 10), Params(2, 1, 300)])
def test_g_is_f_on_the_slice(params):
    for w in (0.0, 0.17, params.w_star, 0.83, 1.0):
        sliced = SlicedDistribution(params.q, params.ell, w).distribution()
        assert g(params, w) == pytest.approx(f(params, sliced), rel=1e-13)
    assert g(params, 0.0) == pytest.approx(params.L)
    with pytest.raises(ValueError):
        g(params, -0.01)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_g_prime_matches_finite_differences(params):
    for w in (0.11, 0.35, 0.5, 0.77):
        want = central_diff(lambda t: g(params, t), w, 1e-6)
        assert g_prime(params, w) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_g_second_matches_finite_differences(params):
    for w in (0.11, 0.35, 0.5, 0.77):
        want = second_central_diff(lambda t: g(params, t), w, 1e-4)
        got = g_second(params, w)
        assert got == pytest.approx(want, abs=max(1e-5, 1e-3 * abs(got)))


@pytest.mark.parametrize("params", SMALL_PARAMS + [Params(8, 2, 10)])
def test_g_second_is_quadratic_form_in_hessian(params):
    # g'' = v^T (Hess f) v along the slicing direction
    q, ell = params.q, params.ell
    v = np.concatenate(
        [np.full(q - ell, 1.0 / (q - ell)), np.full(ell, -1.0 / ell)]
    )
    for w in (0.12, 0.4, 0.66, 0.9):
        sliced = SlicedDistribution(q, ell, w).distribution()
        hess = f_hessian(params, sliced)
        assert g_second(params, w) == pytest.approx(
            float(v @ hess @ v), rel=1e-10, abs=1e-10
        )


def test_tail_mass_coefficients_match_brute_force():
    sets = [(q, ell, L) for q in range(2, 9) for L in range(2, 9) for ell in range(1, q)
            if math.comb(L + q - 1, q - 1) <= 20_000]
    for q, ell, L in sets + [(3, 1, 40)]:
        assert _tail_mass_coefficients(q, ell, L) == ref_tail_mass_coefficients(q, ell, L)


def test_plus_tables_match_sorted_route():
    # column j_1 q^(k-1) + ... + j_k of the order-k table holds top_ell(a + e_(j_1) + ... + e_(j_k))
    sets = [(q, ell, L) for q in range(2, 6) for L in range(2, 7) for ell in range(1, q)]
    for q, ell, L in sets + [(8, 2, 10)]:
        top = _top_ell_table(q, ell, L, 0)
        assert top.shape == (len(composition_table(q, L).counts), 1)
        for a, row in zip(composition_table(q, L).counts.tolist(), top):
            assert row.tolist() == [ref_top_ell(a, ell)]
        plus = _top_ell_table(q, ell, L - 1, 1)
        for a, row in zip(composition_table(q, L - 1).counts.tolist(), plus):
            want = [ref_top_ell(a[:j] + [a[j] + 1] + a[j + 1 :], ell) for j in range(q)]
            assert row.tolist() == want
        plus2 = _top_ell_table(q, ell, L - 2, 2).reshape(-1, q, q)
        assert np.array_equal(plus2, plus2.transpose(0, 2, 1))
        for a, block in zip(composition_table(q, L - 2).counts.tolist(), plus2):
            for i in range(q):
                for j in range(i, q):
                    b = list(a)
                    b[i] += 1
                    b[j] += 1
                    assert block[i, j] == ref_top_ell(b, ell)


def test_slice_bernstein_is_the_rounded_exact_value():
    # each numerator over D is the exact Fraction, and each float that Fraction rounded once
    sets = [(q, ell, L) for q in range(2, 9) for L in range(2, 9) for ell in range(1, q)]
    for q, ell, L in sets + [(3, 1, 40), (2, 1, 300), (2, 1, 1100)]:
        D = ((q - ell) * ell) ** L
        for order in range(3):
            fractions = [Fraction(b, D) for b in _slice_numerators(q, ell, L, order)]
            assert fractions == ref_slice_fractions(q, ell, L, order), (q, ell, L, order)
            got = _slice_bernstein(q, ell, L, order).tolist()
            assert got == ref_slice_bernstein(q, ell, L, order), (q, ell, L, order)


@pytest.mark.parametrize("params, want", [((7, 3, 4), Fraction(-2, 3)),
                                          ((8, 5, 8), Fraction(-16576, 3125))])
def test_g_second_at_zero_witnesses_are_exact(params, want):
    # g''(0) is the first order-2 coefficient: exact, and what g_second rounds
    q, ell, L = params
    assert Fraction(_slice_numerators(q, ell, L, 2)[0], ((q - ell) * ell) ** L) == want
    assert g_second(Params(q, ell, L), 0.0) == pytest.approx(float(want), rel=1e-12)


def test_G_ell_known_values():
    # quadratic form of the slicing direction on single compositions
    assert G_ell(Params(4, 2, 5), (2, 1, 0, 0)) >= 0.0
    assert G_ell(Params(3, 2, 3), (1, 0, 0)) == pytest.approx(-0.5)
    assert G_ell(Params(4, 3, 4), (1, 1, 0, 0)) == pytest.approx(-2 / 9)
    assert G_ell(Params(5, 3, 4), (1, 1, 0, 0, 0)) == pytest.approx(-2 / 3)
    assert G_ell(Params(5, 4, 5), (1, 1, 1, 0, 0)) == pytest.approx(-1 / 8)


def test_G_ell_nonnegative_for_4_2_5():
    params = Params(4, 2, 5)
    for a in enumerate_compositions(4, 3):
        assert G_ell(params, a.entries) >= -1e-15


def test_schur_ostrowski_zero_at_uniform_and_symmetric():
    for params in SMALL_PARAMS:
        u = Distribution.uniform(params.q)
        for i in range(params.q):
            for j in range(i + 1, params.q):
                v = schur_ostrowski_value(params, u, i, j)
                assert v == pytest.approx(0.0, abs=1e-12)
                w1 = schur_ostrowski_value(params, (0.5, *([0.5 / (params.q - 1)] * (params.q - 1))), i, j)
                w2 = schur_ostrowski_value(params, (0.5, *([0.5 / (params.q - 1)] * (params.q - 1))), j, i)
                assert w1 == pytest.approx(w2, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_schur_certificate_passes_and_reproduces(params):
    c1 = certify_schur(params, samples=60, seed=3)
    c2 = certify_schur(params, samples=60, seed=3)
    assert c1.min_value == c2.min_value
    assert c1.min_value >= -1e-12
    assert c1.samples == 60 and c1.seed == 3
    # the same draw, one (sample, pair) at a time; the gradients agree to rounding
    e = np.random.default_rng(3).standard_exponential((60, params.q))
    ps = e / e.sum(axis=1, keepdims=True)
    pairs = [(i, j) for i in range(params.q) for j in range(i + 1, params.q)]
    want = min(schur_ostrowski_value(params, p, i, j) for p in ps for i, j in pairs)
    assert c1.min_value == pytest.approx(want, rel=1e-9)


def test_convexity_certificate_pass_cases():
    # ell=1 on the default [0,(q-1)/q]
    c = certify_convexity(Params(3, 1, 4))
    assert (c.lo, c.hi) == (0.0, pytest.approx(2 / 3))
    assert c.violations == 0
    assert c.min_value >= -1e-9
    # ell>=2 with G_ell >= 0 pointwise: convex on all of [0,1]
    c2 = certify_convexity(Params(4, 2, 5))
    assert (c2.lo, c2.hi) == (0.0, 1.0)
    assert c2.violations == 0


def test_convexity_fails_where_G_ell_goes_negative():
    # counterexample family: the certificate reports real violations
    c = certify_convexity(Params(3, 2, 3))
    assert c.violations > 0
    assert c.min_value < -1e-9
    assert g_second(Params(3, 2, 3), 1.0) == pytest.approx(-3.0)


def test_g_second_negative_at_zero_for_7_3_4():
    # beta_k is the mean of top_3 when k of the 4 draws land on the 4 head
    # symbols and 4-k on the 3 tail symbols; top_3 is 3 when all four draws
    # differ and 4 otherwise.  beta_0 = 4; beta_1 = 4 - 6/27 = 34/9 (three
    # distinct tail draws); beta_2 = 4 - (3/4)(2/3) = 7/2 (both pairs
    # distinct).  g''(0) = L(L-1)(beta_2 - 2 beta_1 + beta_0)
    # = 12 (7/2 - 68/9 + 4) = -2/3.
    assert g_second(Params(7, 3, 4), 0.0) == pytest.approx(-2 / 3, abs=1e-12)


def test_convexity_may_fail_beyond_w_star_for_ell_1():
    c = certify_convexity(Params(3, 1, 6), interval=(2 / 3 + 1e-6, 1.0))
    assert c.min_value < -1e-9


@pytest.mark.parametrize("params", SMALL_PARAMS + [Params(3, 2, 4), Params(5, 4, 6)])
def test_monotonicity_certificate(params):
    c = certify_monotonicity_g(params)
    assert c.w_star == pytest.approx(params.w_star)
    assert c.max_increase_left <= 1e-9
    assert c.max_decrease_right <= 1e-9


def test_lipschitz_matches_grid_max():
    params = Params(3, 2, 3)
    lip = lipschitz_g(params)
    grid = np.linspace(0.0, 1.0, 10000)
    want = max(abs(g_prime(params, w)) for w in grid)
    assert lip == pytest.approx(want, rel=1e-12)
    assert lip > 0.0


LIPSCHITZ_ELL_1 = [Params(q, 1, L) for q in range(2, 17) for L in range(2, 13)] + [
    Params(2, 1, 300), Params(3, 1, 300), Params(2, 1, 1100)]


def test_lipschitz_is_L_for_ell_1():
    # g' = L sum_k (beta_{k+1} - beta_k) b_{k,L-1}(w) over the Bernstein basis of degree L-1.
    # Moving one draw changes top_ell by at most 1, so |beta_{k+1} - beta_k| <= 1 and
    # |g'| <= L.  For ell = 1, beta_0 - beta_1 = 1, so g'(0) = -L and the maximum is L,
    # a value known without the grid.
    for params in LIPSCHITZ_ELL_1:
        assert lipschitz_g(params) == pytest.approx(params.L, rel=1e-12), params


def test_monotonicity_grid_holds_w_star_once():
    # linspace(0, 1, 1001) holds 0.7000000000000001, one ulp from w* = 0.7; it gives way to
    # w*, so no rounding-noise segment beside w* is counted on either side
    c = certify_monotonicity_g(Params(10, 3, 4), tolerance=0.0)
    assert c.passed
    assert c.grid_points == 1001
    assert c.max_increase_left < -1e-6 and c.max_decrease_right < -1e-6


def test_gradient_sums_track_plurality_bounds():
    # f is bounded by ell <= f <= L on the simplex; gradient keeps f in range
    rng = np.random.default_rng(9)
    for params in SMALL_PARAMS:
        p = simplex_point(rng, params.q)
        val = f(params, p)
        assert params.ell - 1e-12 <= val <= params.L + 1e-12


# --- the composition-sum kernel -------------------------------------------


@pytest.mark.parametrize("q, m, step", [(8, 9, 5), (2, 300, 217)])
def test_composition_sums_match_one_shot_at_chunk_edges(q, m, step):
    tbl = composition_table(q, m)
    K = len(tbl.counts)
    assert max(1, _BLOCK // K) == step
    rng = np.random.default_rng(11)
    one_hot = np.eye(q)
    for n in (0, 1, step - 1, step, step + 1, 3 * step + 1):
        e = rng.standard_exponential((n, q))
        ps = e / e.sum(axis=1, keepdims=True)
        ps[::4] = one_hot[0]  # for q = 2 the rows of w = 0 and w = 1: log p holds _LOG_ZERO
        ps[2::4] = one_hot[q - 1]
        log_p = _log_probs(ps)
        for values in (rng.random(K), rng.random((K, 3))):
            want = np.exp(tbl.exponents[-1] + log_p[:, :-1] @ tbl.counts.T.astype(float)) @ values
            got = _composition_sums(tbl, log_p, values)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0, err_msg=f"n={n}")


@pytest.mark.parametrize("run", [lambda: certify_schur(Params(8, 2, 10)),
                                 lambda: certify_convexity(Params(2, 1, 300))],
                         ids=["schur(8,2,10)", "convexity(2,1,300)"])
def test_composition_sums_hold_one_chunk_buffer(run):
    # one (step, K) buffer of _BLOCK floats per call, not a temporary per step of a chunk
    run()  # warm the table and coefficient caches
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * _BLOCK


def test_composition_sums_hold_only_the_terms():
    # 10 rows over A_{5,7}, 330 terms each: one 26,400-byte array, with no ufunc buffer beside it
    tbl = composition_table(5, 7)
    log_p, values = _log_probs(np.full((10, 5), 0.2)), np.ones(len(tbl.counts))
    _composition_sums(tbl, log_p, values)
    tracemalloc.start()
    try:
        _composition_sums(tbl, log_p, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * 10 * 330


# --- the head/tail split of the composition sums -----------------------------


def _one_hot_rows(rng, n, q):
    """n simplex points; every fourth is e_0 and every fourth from the third e_(q-1)."""
    e = rng.standard_exponential((n, q))
    ps = e / e.sum(axis=1, keepdims=True)
    ps[::4] = np.eye(q)[0]  # log p holds _LOG_ZERO in these rows
    ps[2::4] = np.eye(q)[q - 1]
    return ps


def _flat_sums(q, ell, m, order, log_p):
    return _composition_sums(composition_table(q, m), log_p, _top_ell_table(q, ell, m, order))


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("triple", [(8, 2, 10), (6, 3, 12), (10, 3, 10)], ids=str)
def test_head_tail_sums_match_flat_and_exact(triple, order):
    q, ell, L = triple
    m = L - order
    ps = _one_hot_rows(np.random.default_rng(5), 6, q)
    log_p = _log_probs(ps)
    assert (log_p == _LOG_ZERO).any()
    got = _head_tail_sums(_head_tail_layout(q, ell, m, order), log_p)
    assert got.shape == (6, q**order)
    np.testing.assert_allclose(got, _flat_sums(q, ell, m, order, log_p), rtol=5e-14, atol=0.0)
    for row in (1, 0):  # a point inside the simplex, and the vertex e_0
        want = ref_composition_sums(q, ell, m, order, ps[row])
        err = max(abs(Fraction(float(x)) - w) / w for x, w in zip(got[row], want))
        assert err <= 4e-15, (row, float(err))


def test_head_tail_rule_on_each_side():
    # (8, 9): 11,440 compositions, 715 heads and 715 tails; 10 blocks
    saved = 11_440 - 2 * 715
    assert 19 * saved < 20_000 * 10 < 20 * saved
    assert not _takes_head_tail(8, 9, 19) and _takes_head_tail(8, 9, 20)
    assert not _takes_head_tail(8, 9, 1)  # single-row f, f_gradient, f_hessian stay flat
    for q in (2, 3):  # the split saves nothing
        assert not any(_takes_head_tail(q, m, 10**6) for m in range(0, 300, 7))
    rng = np.random.default_rng(2)
    for triple, split in (((8, 2, 10), True), ((6, 3, 12), True), ((5, 2, 8), False),
                          ((3, 2, 3), False)):
        q, ell, L = triple
        ps = _one_hot_rows(rng, 200, q)
        assert _takes_head_tail(q, L - 1, len(ps)) is split
        if split:
            sums = _head_tail_sums(_head_tail_layout(q, ell, L - 1, 1), _log_probs(ps))
        else:
            sums = _flat_sums(q, ell, L - 1, 1, _log_probs(ps))
        assert np.array_equal(_f_derivatives(Params(*triple), ps, 1), L * sums), triple


@pytest.mark.parametrize("triple, order", [((8, 2, 10), 1), ((6, 3, 12), 2)], ids=str)
def test_head_tail_sums_match_one_shot_at_chunk_edges(triple, order):
    q, ell, L = triple
    m = L - order
    layout = _head_tail_layout(q, ell, m, order)
    width = layout.head.shape[1] + layout.tail.shape[1]
    step = _BLOCK // (width + max(block.values.shape[1] for block in layout.blocks))
    assert 1 < step < 200
    tbl, top = composition_table(q, m), _top_ell_table(q, ell, m, order)
    rng = np.random.default_rng(13)
    for n in (0, 1, step - 1, step, step + 1):
        log_p = _log_probs(_one_hot_rows(rng, n, q))
        want = np.exp(tbl.exponents[-1] + log_p[:, :-1] @ tbl.counts.T.astype(float)) @ top
        got = _head_tail_sums(layout, log_p)
        assert got.shape == want.shape == (n, q**order)
        np.testing.assert_allclose(got, want, rtol=5e-14, atol=0.0, err_msg=f"n={n}")


def test_schur_certificate_leaves_the_whole_table_unbuilt():
    # in a fresh process: certify_schur at (8,2,10) builds neither A_{8,9} nor its top table
    code = (
        "from lrbounds import Params, certify_schur\n"
        "from lrbounds.compositions import _top_ell_table, composition_table\n"
        "assert certify_schur(Params(8, 2, 10)).passed\n"
        "misses = composition_table.cache_info().misses\n"
        "composition_table(8, 9)\n"
        "print(composition_table.cache_info().misses - misses, _top_ell_table.cache_info().currsize)\n"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["1", "0"]


@pytest.mark.parametrize("triple", POOL_TRIPLES, ids=str)
def test_scalar_slice_path_matches_the_grid(triple):
    params = Params(*triple)
    ws = [0.0, 5e-324, 1e-300, *(k / 64 for k in range(65)), params.w_star, 1 - 2**-53, 1.0]
    for order, fn in enumerate((g, g_prime, g_second)):
        coef = _slice_bernstein(*triple, order)
        tol = 1e-15 * float(np.abs(coef).max())
        for w in ws:
            assert abs(fn(params, w) - _slice_values(params, order, [w])[0]) <= tol, (order, w)
        for w, end in ((0.0, coef[0]), (1.0, coef[-1])):
            assert fn(params, w) == _slice_values(params, order, [w])[0] == end, (order, w)


def test_scalar_slice_path_reads_any_real_w_as_float64():
    params = Params(3, 1, 5)
    for w in (Fraction(1, 3), np.float32(0.25), 1, True):
        for order, fn in enumerate((g, g_prime, g_second)):
            assert fn(params, w) == _slice_values(params, order, [float(w)])[0], (w, order)
