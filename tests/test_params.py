"""Argument rules: a whole alphabet size q >= 2, a list shape 1 <= ell <= q-1,
w in [0, 1], and whole block lengths, radii and counts.

The rules live in lrbounds.params; these tests pin that every public entry
point applies them, whichever module it sits in.
"""

import math

import pytest

from lrbounds import Params
from lrbounds.analysis import (G_ell, SlicedDistribution, g, g_prime, g_second,
                               schur_ostrowski_value)
from lrbounds.bounds import (ball_volume, ball_volume_bounds, comparison_ry_qary3,
                             covering_size_bound, covering_size_bound_lr, entropy_q,
                             entropy_q_ell, eta_q, lr_ball_volume, lr_ball_volume_bounds)
from lrbounds.metrics import Code, hamming_weight, lr_weight
from lrbounds.oracle import verify_covering

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
]


def _id(case):
    fn, args = case
    return f"{fn.__name__}{args!r}"


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
