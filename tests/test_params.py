"""Argument rules: a whole alphabet size q >= 2, a list shape 1 <= ell <= q-1,
whole block lengths, radii and counts with a floor, fractions in [0, 1] and
(0, 1), non-negative reals, finite tolerances and tilts, and words of one
length.

The shared rules live in lrbounds.params (word length in lrbounds.metrics);
these tests pin that every public entry point applies them, whichever module
it sits in, and that NaN fails every float argument.
"""

import math
import warnings

import pytest

from lrbounds import Params
from lrbounds.analysis import (Distribution, G_ell, SlicedDistribution, certify_convexity,
                               certify_monotonicity_g, certify_schur, f, g, g_prime, g_second,
                               schur_ostrowski_value)
from lrbounds.bounds import (ball_volume, ball_volume_bounds, comparison_gmrsw,
                             comparison_ry_binary4, comparison_ry_qary3, covering_size_bound,
                             covering_size_bound_lr, eb_upper_bound_rate, entropy_q,
                             entropy_q_ell, eta_q, lower_bound_rate, lr_ball_volume,
                             lr_ball_volume_bounds, mgf, p_star_w, plotkin_constants,
                             solve_lambda_star, tilted_mean, unconstrained_multiplier)
from lrbounds.compositions import Composition, composition_table
from lrbounds.metrics import Code, average_radius_ell, hamming_weight, lr_weight
from lrbounds.oracle import (check_list_recoverable, exact_radius_ell, random_expurgated_code,
                             verify_covering)

P = Params(3, 1, 2)

REJECTED = [
    (ball_volume, (1, 3, 1)),
    (ball_volume, (2, -1, 1)),
    (ball_volume, (2, 3, -1)),
    (lr_ball_volume, (P, -1, 1)),
    (lr_ball_volume, (P, 3, -1)),
    (ball_volume_bounds, (1, 10, 0.3)),
    (covering_size_bound, (1, 10, 0.3)),
    (covering_size_bound, (2, 1, 0.3)),
    (covering_size_bound, (2, 10, 0)),
    (covering_size_bound_lr, (P, 1, 0.3)),
    (entropy_q, (1, 0.3)),
    (entropy_q, (2, 1.5)),
    (eta_q, (1, [0.1])),
    (entropy_q_ell, (P, -0.1)),
    (lr_weight, ((1,), 3, 3)),
    (lr_weight, ((1,), 3, 0)),
    (hamming_weight, ((1,), 1)),
    (verify_covering, (1, 2, [(1, 1)], 0)),
    (verify_covering, (2, 0, [()], 0)),
    (Code, (1, 3, ())),
    (Code, (2, 0, ())),
    (SlicedDistribution, (3, 3, 0.2)),
    (SlicedDistribution, (1, 1, 0.2)),
    (g, (P, 1.5)),
    (g, (P, math.nan)),
    (g_prime, (P, -0.1)),
    (g_second, (P, 2.0)),
    (comparison_ry_qary3, (2, 0.1)),
    (Distribution, ((1.0,),)),
    (Composition, ((1, math.inf),)),
    (f, (P, (0.5, 0.5))),
    (G_ell, (Params(3, 2, 3), (1, 0))),
    (G_ell, (Params(3, 2, 3), (-1, 1, 0))),
    (schur_ostrowski_value, (P, (0.5, 0.25, 0.25), 0, 0)),
    (certify_schur, (P, 0)),
    (certify_convexity, (P, None, 1)),
    (certify_convexity, (P, (0.5, 0.5))),
    (certify_monotonicity_g, (P, 2)),
    (mgf, (P, -1)),
    (lower_bound_rate, (P, 1.5)),
    (unconstrained_multiplier, (P, 0)),
    (eta_q, (3, [0.7, 0.7])),
    (average_radius_ell, (((1, 2), (2, 1)), 0)),
    (Code(2, 3, ()).rate, ()),
    (exact_radius_ell, ([], 2, 1)),
    (exact_radius_ell, ([(), ()], 2, 1)),
    (exact_radius_ell, ([(1, 2), (1,)], 2, 1)),
    (random_expurgated_code, (P, 1.5, 5, 0.3, 1)),
    (random_expurgated_code, (P, 0.1, 0, 0.3, 1)),
    (random_expurgated_code, (P, 0.1, 5, 0, 1)),
    (verify_covering, (2, 2, [(1,)], 0)),
    # a certificate's tolerance and a tilt lambda are finite and non-negative
    (certify_schur, (P, 20, 1, -1.0)),
    (certify_schur, (P, 20, 1, math.inf)),
    (certify_convexity, (P, None, 11, math.inf)),
    (certify_monotonicity_g, (P, 11, math.inf)),
    (mgf, (P, math.inf)),
    (tilted_mean, (P, math.inf)),
    # NaN fails every float argument: p, w, tau, eps1, lambda, tolerance, radius, target_rate
    (lower_bound_rate, (P, math.nan)),
    (eb_upper_bound_rate, (P, math.nan)),
    (solve_lambda_star, (P, math.nan)),
    (check_list_recoverable, (Code(3, 2, ((1, 1), (2, 2))), math.nan, 1, 2)),
    (random_expurgated_code, (P, math.nan, 5, 0.3, 1)),
    (comparison_gmrsw, (math.nan,)),
    (comparison_ry_binary4, (math.nan,)),
    (comparison_ry_qary3, (3, math.nan)),
    (g_prime, (P, math.nan)),
    (g_second, (P, math.nan)),
    (p_star_w, (P, math.nan)),
    (SlicedDistribution, (3, 1, math.nan)),
    (entropy_q, (2, math.nan)),
    (entropy_q_ell, (P, math.nan)),
    (ball_volume_bounds, (2, 10, math.nan)),
    (covering_size_bound, (2, 10, math.nan)),
    (plotkin_constants, (P, math.nan, 0.01)),
    (plotkin_constants, (P, 0.5, math.nan)),
    (unconstrained_multiplier, (P, math.nan)),
    (mgf, (P, math.nan)),
    (tilted_mean, (P, math.nan)),
    (certify_schur, (P, 20, 1, math.nan)),
    (certify_convexity, (P, None, 11, math.nan)),
    (certify_monotonicity_g, (P, 11, math.nan)),
    (verify_covering, (2, 2, [(1, 1)], math.nan)),
    (random_expurgated_code, (P, 0.1, 5, math.nan, 1)),
]

NOT_WHOLE = [
    (ball_volume, (2.5, 3, 1)),
    (ball_volume, (2, 3.5, 1)),
    (ball_volume, (2, 3, 1.5)),
    (lr_ball_volume, (P, 4.5, 1)),
    (lr_ball_volume, (P, 4, 1.5)),
    (ball_volume_bounds, (2.5, 10, 0.3)),
    (ball_volume_bounds, (2, 10.5, 0.3)),
    (lr_ball_volume_bounds, (P, 10.5, 0.3)),
    (covering_size_bound, (2.5, 10, 0.3)),
    (covering_size_bound, (2, 10.5, 0.3)),
    (covering_size_bound_lr, (P, 10.5, 0.3)),
    (comparison_ry_qary3, (3.5, 0.1)),
    (entropy_q, (2.5, 0.3)),
    (eta_q, (2.5, [0.1])),
    (Code, (2.5, 3, ())),
    (Code, (2, 1.5, ())),
    (G_ell, (Params(3, 2, 3), (1.5, 0, 0))),
    (G_ell, (Params(3, 2, 3), (1.9, 0.2, 0))),
    (schur_ostrowski_value, (P, (0.5, 0.25, 0.25), 0.5, 1)),
    (schur_ostrowski_value, (P, (0.5, 0.25, 0.25), 0, 1.5)),
    (composition_table, (2.5, 3)),
]


def _id(case):
    fn, args = case
    return f"{fn.__qualname__}{args!r}"


@pytest.mark.parametrize("fn,args", REJECTED, ids=[_id(c) for c in REJECTED])
def test_out_of_range_arguments_raise(fn, args):
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("fn,args", NOT_WHOLE, ids=[_id(c) for c in NOT_WHOLE])
def test_non_integer_sizes_raise(fn, args):
    with pytest.raises(ValueError, match="must be an integer"):
        fn(*args)


def test_whole_float_and_bool_indices_are_ints():
    p = (0.5, 0.25, 0.25)
    want = schur_ostrowski_value(P, p, 1, 0)
    assert schur_ostrowski_value(P, p, 1.0, 0) == want
    assert schur_ostrowski_value(P, p, True, 0.0) == want
    assert G_ell(Params(3, 2, 3), (1.0, 0.0, 0)) == G_ell(Params(3, 2, 3), (1, 0, 0))


def test_whole_float_sizes_are_ints():
    assert composition_table(2, 3.0) is composition_table(2, 3)


def test_no_centers_cover_nothing():
    assert verify_covering(2, 2, [], 0) is False


def test_huge_finite_lambda_still_tilts():
    assert 0.0 <= tilted_mean(P, 1e308) < tilted_mean(P, 1.0)
    assert 0.0 < mgf(P, 1e308) < 1.0


def test_huge_finite_lambda_tilts_without_overflow_warnings():
    # lam*rho*log 16 overflows a float at lam = 1e308; the limit is still exact
    P16 = Params(16, 1, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tilted_mean(P16, 1e308) == 0.0
        assert mgf(P16, 1e308) == mgf(P16, 1e300)
