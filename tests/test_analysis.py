import math

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

from lrbounds.analysis import _gradient_table, _hessian_table, _tail_mass_coefficients
from lrbounds.compositions import composition_table

from reference import (
    central_diff,
    ref_f,
    ref_tail_mass_coefficients,
    ref_top_ell,
    second_central_diff,
    simplex_point,
)

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


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution((0.5, 0.6))
    with pytest.raises(ValueError):
        Distribution((1.2, -0.2))
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
    # _gradient_table[k, j] = top_ell(a + e_j), _hessian_table[k, i, j] = top_ell(a + e_i + e_j)
    sets = [(q, ell, L) for q in range(2, 6) for L in range(2, 7) for ell in range(1, q)]
    for q, ell, L in sets + [(8, 2, 10)]:
        plus = _gradient_table(q, ell, L)
        for a, row in zip(composition_table(q, L - 1, ell).counts.tolist(), plus):
            want = [ref_top_ell(a[:j] + [a[j] + 1] + a[j + 1 :], ell) for j in range(q)]
            assert row.tolist() == want
        plus2 = _hessian_table(q, ell, L)
        assert np.array_equal(plus2, plus2.transpose(0, 2, 1))
        for a, block in zip(composition_table(q, L - 2, ell).counts.tolist(), plus2):
            for i in range(q):
                for j in range(i, q):
                    b = list(a)
                    b[i] += 1
                    b[j] += 1
                    assert block[i, j] == ref_top_ell(b, ell)


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


def test_gradient_sums_track_plurality_bounds():
    # f is bounded by ell <= f <= L on the simplex; gradient keeps f in range
    rng = np.random.default_rng(9)
    for params in SMALL_PARAMS:
        p = simplex_point(rng, params.q)
        val = f(params, p)
        assert params.ell - 1e-12 <= val <= params.L + 1e-12
