import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrbounds import (
    Params,
    ball_volume,
    ball_volume_bounds,
    comparison_gmrsw,
    comparison_ry_binary4,
    comparison_ry_qary3,
    covering_size_bound,
    covering_size_bound_lr,
    eb_upper_bound_rate,
    entropy_q,
    entropy_q_ell,
    eta_q,
    g,
    lipschitz_g,
    lower_bound_rate,
    lr_ball_volume,
    lr_ball_volume_bounds,
    mgf,
    p_star_w,
    plotkin_constants,
    solve_lambda_star,
    tilted_mean,
    unconstrained_multiplier,
    zero_rate_threshold,
)
from lrbounds import bounds
from lrbounds.bounds import _safeguarded_newton
from lrbounds.exact import _radius_counts, _tail_mass_coefficients

from reference import (
    POOL_TRIPLES,
    ref_ball_count,
    ref_binary_lower_rate,
    ref_degenerate_count,
    ref_eb_rate,
    ref_eta,
    ref_lambda_star_rate,
    ref_lr_ball_count,
    ref_mgf,
    ref_polytope_min,
    ref_threshold,
)

SMALL_PARAMS = [
    Params(2, 1, 2),
    Params(2, 1, 4),
    Params(3, 1, 3),
    Params(3, 2, 3),
    Params(4, 2, 4),
    Params(4, 3, 5),
]


@pytest.mark.parametrize("params", SMALL_PARAMS + [Params(5, 2, 3), Params(5, 4, 4)])
def test_threshold_matches_exact_fraction(params):
    want = ref_threshold(params.q, params.ell, params.L)
    assert zero_rate_threshold(params) == float(want)


def test_threshold_binary_closed_form():
    for L in range(2, 10):
        k = L // 2
        want = 0.5 - math.comb(2 * k, k) / 2 ** (2 * k + 1)
        assert zero_rate_threshold(Params(2, 1, L)) == pytest.approx(want, abs=1e-12)


def test_threshold_unique_decoding_closed_form():
    for q in range(2, 9):
        want = (q - 1) / (2 * q)
        assert zero_rate_threshold(Params(q, 1, 2)) == pytest.approx(want, abs=1e-12)


def test_p_star_w_endpoints():
    for params in SMALL_PARAMS:
        assert p_star_w(params, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert p_star_w(params, params.w_star) == pytest.approx(
            zero_rate_threshold(params), rel=1e-13
        )


def test_large_L_threshold_matches_exact_binomial_sum():
    # for q = 2, ell = 1 the plurality of k ones among L draws is max(k, L-k)
    params = Params(2, 1, 1100)
    L = params.L
    top = Fraction(sum(math.comb(L, k) * max(k, L - k) for k in range(L + 1)), L * 2**L)
    want = float(1 - top)
    assert zero_rate_threshold(params) == pytest.approx(want, abs=1e-12)
    assert p_star_w(params, params.w_star) == pytest.approx(want, abs=1e-12)


POOL = [Params(*P) for P in POOL_TRIPLES]


def test_p_star_w_at_w_star_is_the_threshold():
    # the float Bernstein kernel at w* against the exact integer ratio p*
    for params in POOL:
        assert abs(p_star_w(params, params.w_star) - zero_rate_threshold(params)) <= 1e-12, params


def test_large_L_upper_bound_is_a_rate():
    params = Params(2, 1, 1100)
    pstar = zero_rate_threshold(params)
    rates = [eb_upper_bound_rate(params, pstar * k / 6) for k in range(6)]
    assert all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)
    assert all(a >= b for a, b in zip(rates, rates[1:]))


@st.composite
def small_params(draw, max_L=12, max_tuples=None):
    """Params with q <= 8 and L <= max_L, and q^L <= max_tuples if given."""
    q = draw(st.integers(min_value=2, max_value=8))
    if max_tuples is not None:
        max_L = min(max_L, int(math.log(max_tuples) / math.log(q)))
    return Params(q, draw(st.integers(1, q - 1)), draw(st.integers(2, max_L)))


@settings(max_examples=25)
@given(small_params())
def test_radius_law_counts_are_exact(params):
    q, ell, L = params.q, params.ell, params.L
    N = _radius_counts(q, ell, L)
    assert len(N) == L + 1
    assert sum(N) == q**L
    # sum_t t N_t = sum over [q]^L of top_ell, which is also sum_s c_s behind g
    assert sum(t * n for t, n in enumerate(N)) == sum(_tail_mass_coefficients(q, ell, L))


@settings(max_examples=25)
@given(small_params(max_tuples=20_000))
def test_radius_law_degenerate_count(params):
    q, ell, L = params.q, params.ell, params.L
    assert _radius_counts(q, ell, L)[L] == ref_degenerate_count(q, ell, L)


def test_large_L_lower_bound_matches_binomial_law():
    params = Params(2, 1, 1100)
    pstar = zero_rate_threshold(params)
    ps = [pstar * k / 6 for k in range(6)]
    rates = [lower_bound_rate(params, p) for p in ps]
    for p, r in zip(ps, rates):
        assert r == pytest.approx(ref_binary_lower_rate(params.L, p), abs=1e-9)
    assert all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)
    assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_entropy_values():
    # H(w*) = 1, H(0) = log_q(ell)
    for params in SMALL_PARAMS:
        assert entropy_q_ell(params, params.w_star) == pytest.approx(1.0)
        assert entropy_q_ell(params, 0.0) == pytest.approx(
            math.log(params.ell, params.q), abs=1e-12
        )
    assert entropy_q(2, 0.5) == pytest.approx(1.0)
    assert entropy_q(4, 0.75) == pytest.approx(1.0)
    assert entropy_q(2, 0.11) == pytest.approx(
        -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    )
    # ell=1 slicing agrees with the plain q-ary entropy
    assert entropy_q_ell(Params(3, 1, 2), 0.4) == pytest.approx(entropy_q(3, 0.4))
    # subnormal w: w log2(1/w), not inf from overflowing 1/w
    assert entropy_q(2, 1e-310) == pytest.approx(1e-310 * 310 * math.log2(10), rel=1e-12)


def test_upper_bound_at_subnormal_p_is_the_endpoint():
    for params in (Params(2, 1, 3), Params(8, 2, 10), Params(3, 2, 3)):
        endpoint = eb_upper_bound_rate(params, 0.0)
        for p in (5e-324, 1e-310):
            assert eb_upper_bound_rate(params, p) == pytest.approx(endpoint, abs=1e-12)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_mgf_matches_direct_expectation(params):
    assert mgf(params, 0.0) == pytest.approx(1.0, rel=1e-13)
    for lam in (0.3, 1.0, 4.0):
        want = ref_mgf(params.q, params.ell, params.L, lam)
        assert mgf(params, lam) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_tilted_mean_decreasing_from_threshold(params):
    assert tilted_mean(params, 0.0) == pytest.approx(
        zero_rate_threshold(params), rel=1e-12
    )
    lams = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]
    vals = [tilted_mean(params, lam) for lam in lams]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_fixed_point_residual(params):
    pstar = zero_rate_threshold(params)
    for frac in (0.15, 0.5, 0.9):
        p = frac * pstar
        res = solve_lambda_star(params, p)
        assert res.residual <= 1e-10
        assert tilted_mean(params, res.lambda_star) == pytest.approx(p, abs=1e-9)
        assert res.rate >= 0.0


def test_fixed_point_at_zero_uses_degenerate_count():
    for params in SMALL_PARAMS:
        res = solve_lambda_star(params, 0.0)
        assert math.isinf(res.lambda_star)
        s = ref_degenerate_count(params.q, params.ell, params.L)
        want = (params.L - math.log(s, params.q)) / (params.L - 1)
        assert res.rate == pytest.approx(want, rel=1e-12)
        assert lower_bound_rate(params, 0.0) == pytest.approx(want, rel=1e-12)


def test_fixed_point_relative_residual_at_tiny_p():
    params = Params(2, 1, 1100)
    res = solve_lambda_star(params, 1e-12)
    assert math.isfinite(res.lambda_star)
    assert res.residual <= 1e-6 * 1e-12
    assert tilted_mean(params, res.lambda_star) == pytest.approx(1e-12, rel=1e-6)
    assert res.rate == pytest.approx(ref_binary_lower_rate(params.L, 1e-12), abs=1e-12)
    # the tilted mean at the bracket cap is still above p = 1e-300
    assert tilted_mean(params, 1e6) > 1e-300
    res = solve_lambda_star(params, 1e-300)
    assert math.isinf(res.lambda_star)
    assert res.rate == lower_bound_rate(params, 0.0)
    assert res.residual == 1e-300


def test_fixed_point_rejects_out_of_range():
    params = Params(2, 1, 3)
    pstar = zero_rate_threshold(params)
    with pytest.raises(ValueError):
        solve_lambda_star(params, pstar)
    with pytest.raises(ValueError):
        solve_lambda_star(params, -0.1)


INVERSION_SETS = [
    Params(q, ell, L) for q in range(2, 6) for ell in range(1, q) for L in range(max(2, ell + 1), 7)
] + [Params(8, 2, 10), Params(2, 1, 300), Params(3, 1, 300), Params(2, 1, 1100)]


@pytest.mark.parametrize("params", INVERSION_SETS, ids=str)
def test_newton_rates_match_reference_bisections(params):
    q, ell, L = params.q, params.ell, params.L
    pstar = zero_rate_threshold(params)
    N = _radius_counts(q, ell, L)
    fracs = [1e-9, 1e-4, 1e-2] + [k / 13 for k in range(1, 13)] + [1.0 - 1e-7]
    for p in (pstar * x for x in fracs):
        res = solve_lambda_star(params, p)
        assert res.residual <= min(1e-10, 1e-6 * p)
        assert res.rate == pytest.approx(ref_lambda_star_rate(q, L, N, p), abs=1e-12), p
        want = ref_eb_rate(q, ell, L, p, lambda w: g(params, w))
        assert eb_upper_bound_rate(params, p) == pytest.approx(want, abs=1e-12), p


def test_newton_takes_few_evaluations(monkeypatch):
    g_calls = []
    monkeypatch.setattr(bounds, "g", lambda params, w: g_calls.append(w) or g(params, w))
    for params in (Params(8, 2, 10), Params(2, 1, 1100)):
        ps = [zero_rate_threshold(params) * k / 64 for k in range(1, 64)]
        evaluations = [solve_lambda_star(params, p).iterations for p in ps]
        assert np.mean(evaluations) <= 3.0 and max(evaluations) <= 4
        g_calls.clear()
        for p in ps:
            eb_upper_bound_rate(params, p)
        assert len(g_calls) / len(ps) <= 8.0


def test_lambda_cap_is_evaluated_once():
    params = Params(2, 1, 1100)
    res = solve_lambda_star(params, 1e-300)
    assert math.isinf(res.lambda_star)
    assert res.iterations <= 20
    assert res.rate == lower_bound_rate(params, 0.0)


TABLE_SETS = [Params(2, 1, 3), Params(3, 2, 3), Params(8, 2, 10), Params(2, 1, 1100)]


def _meets_residual(params, p):
    res = solve_lambda_star(params, p)
    assert res.residual <= min(1e-10, 1e-6 * p), p
    assert abs(tilted_mean(params, res.lambda_star) - p) <= min(1e-10, 1e-6 * p), p
    return res


@pytest.mark.parametrize("params", TABLE_SETS, ids=str)
def test_lambda_star_at_and_beside_a_node_mean(params):
    lams, neg_ln_mean, _ = bounds._tilt_table(params.q, params.ell, params.L)
    N = _radius_counts(params.q, params.ell, params.L)
    live = [i for i in range(1, lams.size) if math.isfinite(neg_ln_mean[i])]
    for i in live[:: max(1, len(live) // 6)] + live[-1:]:
        node = tilted_mean(params, float(lams[i]))
        table_mean = math.exp(-float(neg_ln_mean[i]))
        for p in {node, table_mean, math.nextafter(node, 0.0), math.nextafter(node, 1.0)}:
            res = _meets_residual(params, p)
            assert res.iterations <= 2, (i, p)
            want = ref_lambda_star_rate(params.q, params.L, N, p)
            assert res.rate == pytest.approx(want, abs=1e-12), (i, p)


@pytest.mark.parametrize("params", TABLE_SETS, ids=str)
def test_lambda_star_between_zero_and_the_first_node(params):
    lams = bounds._tilt_table(params.q, params.ell, params.L)[0]
    assert lams[0] == 0.0 and lams[1] == 1e-3 and lams[-1] == bounds.LAMBDA_CAP
    pstar = zero_rate_threshold(params)
    first = tilted_mean(params, float(lams[1]))
    N = _radius_counts(params.q, params.ell, params.L)
    for p in (0.5 * (pstar + first), math.nextafter(pstar, 0.0), math.nextafter(first, 1.0)):
        lo, hi, start = bounds._lambda_start(params, math.log(p))
        assert (lo, hi) == (0.0, 1e-3) and lo <= start <= hi
        res = _meets_residual(params, p)
        assert res.rate == pytest.approx(ref_lambda_star_rate(params.q, params.L, N, p), abs=1e-12)


def test_tilt_table_is_cached_and_read_only():
    table = bounds._tilt_table(8, 2, 10)
    assert bounds._tilt_table(8, 2, 10) is table
    lams, neg_ln_mean, slope = table
    assert lams is bounds.LAMBDA_NODES and lams.size == 128
    assert np.all(lams[1:] > lams[:-1]) and np.all(neg_ln_mean[1:] >= neg_ln_mean[:-1])
    assert np.all(slope[np.isfinite(neg_ln_mean)] < 0.0)
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert not any(arr.flags.writeable for arr in bounds._radius_law(8, 2, 10))


def test_safeguarded_newton_bisects_where_slope_is_not_negative():
    seen = []

    def fn(x):  # 1 - x^2 on [0, 2]: slope 0 at the start x = 0
        seen.append(x)
        r = 1.0 - x * x
        return r, -2.0 * x, abs(r) <= 1e-12, x

    x, value, evaluations = _safeguarded_newton(fn, 0.0, 2.0, 0.0)
    assert seen == [0.0, 1.0] and x == value == 1.0 and evaluations == 2
    seen.clear()

    def rising(x):  # a positive slope is never followed either
        seen.append(x)
        return 0.5 - x, 1.0, abs(0.5 - x) <= 1e-12, None

    assert _safeguarded_newton(rising, 0.0, 1.0, 0.0)[0] == 0.5
    assert seen == [0.0, 0.5]


def test_safeguarded_newton_bisects_geometrically_on_wide_brackets():
    seen = []

    def flat(x):  # slope 0 everywhere: every step bisects
        seen.append(x)
        return math.log(10.0 / x), 0.0, abs(x - 10.0) <= 1e-9, None

    assert _safeguarded_newton(flat, 0.0, 1e6, 1.0)[0] == pytest.approx(10.0, abs=1e-9)
    assert seen[1:3] == [1e3, pytest.approx(10**1.5)]  # sqrt(lo hi) while hi > 4 lo


def test_safeguarded_newton_stalls_or_stops_on_a_narrow_bracket():
    # the sign flips at 0.3 with no root: the bracket shrinks to adjacent floats
    def step_fn(x):
        return (1.0 if x < 0.3 else -1.0), 0.0, False, None

    with pytest.raises(ArithmeticError):
        _safeguarded_newton(step_fn, 0.0, 1.0, 0.5)
    x = _safeguarded_newton(step_fn, 0.0, 1.0, 0.5, 1e-15)[0]  # best iterate once narrower than xtol
    assert abs(x - 0.3) < 1e-15


def test_lower_bound_rate_zero_at_and_beyond_threshold():
    for params in SMALL_PARAMS:
        pstar = zero_rate_threshold(params)
        assert lower_bound_rate(params, pstar) == 0.0
        assert lower_bound_rate(params, min(1.0, pstar * 1.2)) == 0.0
        assert lower_bound_rate(params, 0.5 * pstar) > 0.0


def test_lower_bound_continuous_at_zero():
    for params in SMALL_PARAMS[:3]:
        gap = abs(lower_bound_rate(params, 0.0) - lower_bound_rate(params, 1e-12))
        assert gap < 1e-8


def test_hashing_endpoints():
    # lower bound at p=0 for (q, q-1, q)
    for q in (3, 4, 5):
        want = math.log(1.0 / (1.0 - math.factorial(q) / q**q), q) / (q - 1)
        got = lower_bound_rate(Params(q, q - 1, q), 0.0)
        assert got == pytest.approx(want, abs=1e-9)
    # upper bound at p=0 recovers log_q(q/ell)
    for q, ell in ((3, 2), (4, 3), (4, 2)):
        got = eb_upper_bound_rate(Params(q, ell, ell + 1), 0.0)
        assert got == pytest.approx(math.log(q / ell, q), abs=1e-9)
    # perfect-hashing form of the lower endpoint at L = ell + 1
    q, ell = 4, 2
    want = math.log(
        1.0 / (1.0 - math.comb(q, ell + 1) * math.factorial(ell + 1) / q ** (ell + 1)),
        q,
    ) / ell
    assert lower_bound_rate(Params(q, ell, ell + 1), 0.0) == pytest.approx(
        want, abs=1e-9
    )


def test_upper_bound_vanishes_at_threshold():
    for params in SMALL_PARAMS:
        pstar = zero_rate_threshold(params)
        just_below = math.nextafter(pstar, 0.0)
        assert eb_upper_bound_rate(params, just_below) == pytest.approx(0.0, abs=1e-6)
        with pytest.raises(ValueError):
            eb_upper_bound_rate(params, pstar)


@pytest.mark.parametrize("params", SMALL_PARAMS)
def test_sandwich_and_monotonicity(params):
    pstar = zero_rate_threshold(params)
    ps = np.linspace(0.0, pstar, 25, endpoint=False)
    lows = [lower_bound_rate(params, p) for p in ps]
    ups = [eb_upper_bound_rate(params, p) for p in ps]
    for lo, up in zip(lows, ups):
        assert 0.0 <= lo <= up + 1e-12
    assert all(a >= b - 1e-12 for a, b in zip(lows, lows[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(ups, ups[1:]))


def test_gmrsw_closed_form_matches_lower_bound():
    params = Params(2, 1, 3)
    pstar = zero_rate_threshold(params)
    for p in np.linspace(0.0, 0.99 * pstar, 30):
        want = lower_bound_rate(params, float(p))
        assert comparison_gmrsw(float(p)) == pytest.approx(want, abs=1e-4)
    with pytest.raises(ValueError):
        comparison_gmrsw(0.34)


def test_ry_relaxations_match_lower_bounds():
    params4 = Params(2, 1, 4)
    for p in np.linspace(0.0, 0.95 * zero_rate_threshold(params4), 8):
        assert comparison_ry_binary4(float(p)) == pytest.approx(
            lower_bound_rate(params4, float(p)), abs=1e-5
        )
    for q in (3, 4):
        params3 = Params(q, 1, 3)
        for p in np.linspace(0.0, 0.95 * zero_rate_threshold(params3), 6):
            assert comparison_ry_qary3(q, float(p)) == pytest.approx(
                lower_bound_rate(params3, float(p)), abs=1e-5
            )
    with pytest.raises(ValueError):
        comparison_ry_qary3(2, 0.1)


def test_ry_closed_forms_are_the_relaxation_minima():
    # the closed forms may not exceed any feasible value, and the grid gets within 1e-6
    def check(rate, objective, cap, scale):
        want = ref_polytope_min(objective, cap) / scale
        assert rate <= want + 1e-12
        assert rate == pytest.approx(want, abs=1e-6)

    log2_3 = math.log2(3.0)
    for p in np.linspace(0.0, 0.5, 17):
        check(
            comparison_ry_binary4(float(p)),
            lambda x1, x2: 3.0 - ref_eta(x1, x2, 2) - 2.0 * x1 - log2_3 * x2,
            4.0 * p,
            3.0,
        )
    for q in (3, 4, 8):
        c1, c2 = math.log(3 * (q - 1), q), math.log((q - 1) * (q - 2), q)
        for p in np.linspace(0.0, 2.0 / 3.0, 9):
            check(
                comparison_ry_qary3(q, float(p)),
                lambda x1, x2: 2.0 - ref_eta(x1, x2, q) - c1 * x1 - c2 * x2,
                3.0 * p,
                2.0,
            )


def test_plotkin_constants_large_L_match_exact_reference():
    params = Params(2, 1, 300)
    q, L = params.q, params.L
    tau, eps1 = 0.25, 1e-4
    pc = plotkin_constants(params, tau, eps1)
    t2 = Fraction(tau) ** 2
    x1 = Fraction(6400 * L**6 * q ** (4 * L - 2)) / (2 * t2) + 1
    want_c = q**L * (math.log10(x1.numerator) - math.log10(x1.denominator))
    assert pc.log10_c == pytest.approx(want_c, rel=1e-12)
    # m0 is the larger of two terms; the q^(2L) one dominates here
    want_m0 = float(Fraction(2**11 * L**7 * q ** (2 * L)) / t2 + L - 2)
    assert pc.m0 == pytest.approx(want_m0, rel=1e-12)
    with pytest.raises(ValueError, match="log10_c"):
        plotkin_constants(Params(2, 1, 1100), tau, eps1)


def test_plotkin_constants_behave():
    params = Params(2, 1, 3)
    lip = lipschitz_g(params)
    tau = 0.1
    eps_ok = 0.9 * params.L * tau / (8 * lip)
    pc = plotkin_constants(params, tau, eps_ok)
    assert pc.lip == pytest.approx(lip)
    assert pc.log10_c > 0 and pc.m0 > 0
    # shrinking tau can only grow both constants
    pc2 = plotkin_constants(params, tau / 2, eps_ok / 2)
    assert pc2.log10_c > pc.log10_c
    assert pc2.m0 > pc.m0
    with pytest.raises(ValueError):
        plotkin_constants(params, tau, params.L * tau / (8 * lip) * 1.5)
    with pytest.raises(ValueError):
        plotkin_constants(params, 0.0, 1e-3)


def test_unconstrained_multiplier_q_factor_only_for_ell_1():
    tau = 0.1
    p1 = Params(2, 1, 3)
    base1 = 4 * lipschitz_g(p1) / (p1.L * tau) + 1
    assert unconstrained_multiplier(p1, tau) == pytest.approx(p1.q * base1)
    p2 = Params(4, 2, 4)
    base2 = 4 * lipschitz_g(p2) / (p2.L * tau) + 1
    assert unconstrained_multiplier(p2, tau) == pytest.approx(base2)


def test_ball_volume_exact_counts():
    for q, n in [(2, 5), (3, 4), (4, 3)]:
        for r in range(0, n + 1):
            assert ball_volume(q, n, r) == ref_ball_count(q, n, r)
    assert ball_volume(3, 4, 0) == 1
    assert ball_volume(3, 4, 10) == 3**4


def test_lr_ball_volume_exact_counts():
    for q, ell, n in [(3, 2, 4), (4, 2, 3), (4, 3, 4)]:
        params = Params(q, ell, q)
        for r in range(0, n + 1):
            assert lr_ball_volume(params, n, r) == ref_lr_ball_count(q, ell, n, r)


def test_volume_sandwich_in_valid_regime():
    # entropy bounds need 1 <= nw <= n-1 and w at most (q-ell)/q
    for q, n, w in [(2, 10, 0.3), (3, 20, 0.3), (4, 16, 0.5), (2, 8, 0.5)]:
        lo, hi = ball_volume_bounds(q, n, w)
        exact = ball_volume(q, n, int(n * w)) if (n * w) == int(n * w) else None
        assert lo <= hi
        if exact is not None and w <= (q - 1) / q:
            assert lo <= exact <= hi
    params = Params(3, 2, 3)
    for n, w in [(12, 0.25), (18, 1 / 3)]:
        lo, hi = lr_ball_volume_bounds(params, n, w)
        exact = lr_ball_volume(params, n, int(n * w))
        assert lo <= exact <= hi


def test_volume_bounds_reject_degenerate_weights():
    with pytest.raises(ValueError):
        ball_volume_bounds(2, 10, 0.0)
    with pytest.raises(ValueError):
        ball_volume_bounds(2, 10, 1.0)


def test_covering_bound_is_enough_for_a_covering():
    # m balls of radius floor(nw) must at least reach q^n in total volume
    for q, n, w in [(2, 6, 1 / 3), (3, 20, 0.3), (2, 10, 0.5), (4, 8, 0.25)]:
        m = covering_size_bound(q, n, w)
        vol = ball_volume(q, n, int(math.floor(n * w)))
        assert m * vol >= q**n
    params = Params(3, 2, 4)
    for n, w in [(10, 0.2), (12, 0.25)]:
        m = covering_size_bound_lr(params, n, w)
        vol = lr_ball_volume(params, n, int(math.floor(n * w)))
        assert m * vol >= 3**n


def test_eta_q_known_values():
    assert eta_q(3, [1 / 3, 1 / 3]) == pytest.approx(1.0)
    assert eta_q(2, [0.5]) == pytest.approx(1.0)
    x = [0.2, 0.3]
    want = (
        0.2 * math.log(1 / 0.2, 3)
        + 0.3 * math.log(1 / 0.3, 3)
        + 0.5 * math.log(1 / 0.5, 3)
    )
    assert eta_q(3, x) == pytest.approx(want, rel=1e-12)


def test_nan_inputs_raise():
    with pytest.raises(ValueError):
        eta_q(2, [math.nan])
    with pytest.raises(ValueError):
        eta_q(3, [0.2, math.nan])
    with pytest.raises(ValueError):
        comparison_ry_binary4(math.nan)
    with pytest.raises(ValueError):
        comparison_ry_qary3(3, math.nan)


def test_threshold_fraction_identity_small():
    # S/(L q^L) with exact integer S reproduces the Fraction route
    params = Params(3, 2, 4)
    frac = ref_threshold(3, 2, 4)
    assert Fraction(zero_rate_threshold(params)).limit_denominator(
        10**9
    ) == frac
