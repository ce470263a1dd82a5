import itertools
import math
import time

import numpy as np
import pytest

import lrbounds.oracle
from lrbounds import (
    BudgetExceededError,
    Code,
    Params,
    average_radius_ell,
    certify_convexity,
    certify_monotonicity_g,
    certify_schur,
    check_list_recoverable,
    estimate_threshold_mc,
    exact_avg_radius_min,
    exact_radius_ell,
    lr_distance,
    random_expurgated_code,
    verify_covering,
    zero_rate_threshold,
)

from reference import (
    ref_avg_radius_by_centers,
    ref_exact_radius,
    ref_expurgate_restart,
    ref_first_witness,
)


def _random_words(rng, q, n, count):
    idx = rng.choice(q**n, size=count, replace=False)
    out = []
    for v in idx:
        word = []
        x = int(v)
        for _ in range(n):
            word.append(x % q + 1)
            x //= q
        out.append(tuple(word))
    return tuple(sorted(out))


def test_exact_radius_matches_bruteforce():
    rng = np.random.default_rng(3)
    for _ in range(30):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        ell = int(rng.integers(1, q))
        L = int(rng.integers(2, 4))
        if q**n < L:
            continue
        xs = _random_words(rng, q, n, L)
        got, center = exact_radius_ell(xs, q, ell)
        assert got == ref_exact_radius(xs, q, ell)
        assert max(lr_distance(x, center) for x in xs) == got
        assert all(len(c) == ell for c in center)


def test_exact_radius_known_case():
    # three binary words pairwise distance 2: no word center within 1
    xs = ((1, 1), (1, 2), (2, 1))
    r, center = exact_radius_ell(xs, 2, 1)
    assert r == 1
    assert center == ((1,), (1,))


def test_exact_avg_radius_equals_plurality_formula():
    rng = np.random.default_rng(4)
    for _ in range(30):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        ell = int(rng.integers(1, q))
        L = int(rng.integers(2, 5))
        xs = tuple(
            tuple(int(s) for s in rng.integers(1, q + 1, size=n)) for _ in range(L)
        )
        val, center = exact_avg_radius_min(xs, q, ell)
        assert val == average_radius_ell(xs, ell)
        achieved = sum(lr_distance(x, center) for x in xs) / L
        assert achieved == pytest.approx(val, abs=1e-12)
        # nothing beats the plurality center
        assert val == pytest.approx(ref_avg_radius_by_centers(xs, q, ell), abs=1e-12)


def test_avg_radius_never_exceeds_radius():
    rng = np.random.default_rng(5)
    for _ in range(20):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        ell = int(rng.integers(1, q))
        xs = tuple(
            tuple(int(s) for s in rng.integers(1, q + 1, size=n)) for _ in range(3)
        )
        avg, _ = exact_avg_radius_min(xs, q, ell)
        rad, _ = exact_radius_ell(xs, q, ell)
        assert avg <= rad + 1e-12


def test_check_list_recoverable_matches_subset_scan():
    rng = np.random.default_rng(6)
    for _ in range(40):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        ell = int(rng.integers(1, q))
        L = int(rng.integers(2, 4))
        if q**n < L:
            continue
        M = int(rng.integers(L, min(7, q**n) + 1))
        words = _random_words(rng, q, n, M)
        code = Code(q, n, words)
        p = float(rng.uniform(0.0, 0.6))
        ok, wit = check_list_recoverable(code, p, ell, L)
        worst = min(
            exact_radius_ell(tuple(s), q, ell)[0]
            for s in itertools.combinations(words, L)
        )
        assert ok == (worst > n * p)
        assert wit == ref_first_witness(words, q, ell, L, p)
        if wit is not None:
            center, inside = wit
            assert len(inside) >= L
            assert all(lr_distance(x, center) <= n * p for x in inside)


@pytest.mark.parametrize("p", [0.2, 0.4])
def test_check_list_recoverable_prunes_deep(p):
    # 3^8 centers and 40 words: at p = 0.2 a center keeps a word only while
    # it misses at most one coordinate, so most subtrees are cut near the root
    rng = np.random.default_rng(8)
    words = _random_words(rng, 3, 8, 40)
    code = Code(3, 8, words)
    for ell, L in [(1, 2), (1, 3), (2, 4), (2, 12)]:
        got = check_list_recoverable(code, p, ell, L)
        want = ref_first_witness(words, 3, ell, L, p)
        assert got == ((True, None) if want is None else (False, want)), (ell, L)


def test_check_small_codes_trivially_recoverable():
    code = Code(2, 3, ((1, 1, 1),))
    assert check_list_recoverable(code, 0.9, 1, 2) == (True, None)


def test_check_validates_arguments():
    code = Code(3, 2, ((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        check_list_recoverable(code, 1.5, 1, 2)
    with pytest.raises(ValueError):
        check_list_recoverable(code, 0.1, 3, 2)
    with pytest.raises(ValueError):
        check_list_recoverable(code, 0.1, 1, 1)


def test_integer_parameters_must_be_whole():
    code = Code(3, 2, ((1, 1), (2, 2)))
    xs = ((1, 2), (2, 3))
    for call in (
        lambda: check_list_recoverable(code, 0.1, 1, 2.5),
        lambda: check_list_recoverable(code, 0.1, 1.5, 2),
        lambda: check_list_recoverable(code, 0.1, 1, math.nan),
        lambda: exact_avg_radius_min(xs, 3, 1.5),
        lambda: exact_avg_radius_min(xs, 3.5, 1),
        lambda: exact_radius_ell(xs, 3, 1.5),
        lambda: exact_radius_ell(xs, 3.5, 1),
        lambda: verify_covering(2.5, 2, ((1, 1),), 1),
        lambda: verify_covering(2, 2.5, ((1, 1),), 1),
        lambda: verify_covering(3, 2, (((1,), (2,)),), 1, ell=1.5),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # whole floats are accepted, as in Params
    assert check_list_recoverable(code, 0.1, 1.0, 2.0) == check_list_recoverable(code, 0.1, 1, 2)
    assert exact_radius_ell(xs, 3.0, 1.0) == exact_radius_ell(xs, 3, 1)


COUNTS_AND_SEEDS = [  # (function, argument, bad value, other arguments)
    (certify_schur, "samples", 10.5, {}),
    (certify_schur, "seed", 1.5, {}),
    (certify_convexity, "grid_points", 10.5, {}),
    (certify_monotonicity_g, "grid_points", 10.5, {}),
    (random_expurgated_code, "n", 10.5, {"p": 0.1, "target_rate": 0.3, "seed": 1}),
    (random_expurgated_code, "seed", 1.5, {"p": 0.1, "n": 10, "target_rate": 0.3}),
    (estimate_threshold_mc, "samples", 1000.5, {}),
    (estimate_threshold_mc, "seed", 1.5, {}),
]


@pytest.mark.parametrize("fn,name,value,kwargs", COUNTS_AND_SEEDS,
                         ids=[f"{fn.__name__}-{name}" for fn, name, _, _ in COUNTS_AND_SEEDS])
def test_counts_and_seeds_must_be_whole(fn, name, value, kwargs):
    # a ValueError naming the argument, as Params raises
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        fn(Params(2, 1, 2), **kwargs, **{name: value})


def _brute_min_avg_radius(code, params):
    # least average radius over every L-subset of the final code
    subsets = itertools.combinations(code.words, params.L)
    return min((average_radius_ell(list(s), params.ell) for s in subsets), default=math.inf)


def test_expurgation_reference_instance():
    params = Params(2, 1, 2)
    for seed in (1, 2, 3):
        code, rep = random_expurgated_code(params, 0.1, 30, 0.05, seed)
        assert rep.removed_count / rep.target_size < 0.5
        assert rep.achieved_size == code.size
        assert rep.achieved_size == rep.distinct_size - rep.removed_count
        if not math.isinf(rep.min_avg_radius):
            assert rep.min_avg_radius > 30 * 0.1
        assert rep.min_avg_radius == _brute_min_avg_radius(code, params)
        assert rep.achieved_size <= rep.target_size
        assert rep.achieved_rate(2) <= math.log(rep.target_size, 2) / 30 + 1e-12


def test_expurgation_deterministic_and_fully_checkable():
    params = Params(2, 1, 2)
    code1, rep1 = random_expurgated_code(params, 0.1, 8, 0.25, seed=9)
    code2, rep2 = random_expurgated_code(params, 0.1, 8, 0.25, seed=9)
    assert code1.words == code2.words
    assert rep1 == rep2
    assert rep1.min_avg_radius == _brute_min_avg_radius(code1, params)
    ok, _ = check_list_recoverable(code1, 0.1, 1, 2)
    assert ok


def test_expurgation_removes_on_dense_instances():
    # rate far above capacity at this p forces removals
    params = Params(2, 1, 2)
    removed = 0
    for seed in range(1, 6):
        code, rep = random_expurgated_code(params, 0.45, 12, 0.3, seed)
        removed += rep.removed_count
        if not math.isinf(rep.min_avg_radius):
            assert rep.min_avg_radius > 12 * 0.45
        assert rep.min_avg_radius == _brute_min_avg_radius(code, params)
    assert removed > 0


# (q, ell, L), p, n, rate: the benchmark's (2,1,3) instance over the upper
# half of [0, p*) (p = p*·k/64, p* = 1/4), then a spread of other shapes
EXPURGATION_CASES = [((2, 1, 3), 0.25 * k / 64, 10, 0.4) for k in range(32, 64)] + [
    ((2, 1, 3), 0.05, 10, 0.4),
    ((2, 1, 3), 0.2, 10, 0.4),
    ((2, 1, 3), 0.24, 10, 0.4),
    ((2, 1, 2), 0.45, 12, 0.3),
    ((2, 1, 2), 0.1, 30, 0.05),
    ((3, 1, 3), 0.3, 8, 0.4),
    ((4, 2, 3), 0.15, 8, 0.3),
    ((2, 1, 4), 0.2, 11, 0.45),
    ((3, 2, 3), 0.1, 9, 0.35),
]


@pytest.mark.parametrize(
    "triple, p, n, rate",
    EXPURGATION_CASES,
    ids=[f"{t}-p{p}-n{n}-r{r}" for t, p, n, r in EXPURGATION_CASES],
)
def test_expurgation_matches_restarted_scan(monkeypatch, triple, p, n, rate):
    params = Params(*triple)
    for seed in range(1, 11):
        # both sides read one memo of the radius, a pure function of the words
        memo = {}

        def radius(xs, ell):
            key = tuple(xs)
            if key not in memo:
                memo[key] = average_radius_ell(xs, ell)
            return memo[key]

        monkeypatch.setattr(lrbounds.oracle, "average_radius_ell", radius)
        code, rep = random_expurgated_code(params, p, n, rate, seed)
        target_size = math.ceil(float(params.q) ** (n * rate))
        draws = np.random.default_rng(seed).integers(1, params.q + 1, size=(target_size, n))
        words = list(dict.fromkeys(tuple(int(s) for s in row) for row in draws))
        kept, removed, least = ref_expurgate_restart(words, p, params.ell, params.L, n, radius)
        assert code.words == tuple(kept)
        assert (rep.n, rep.target_rate, rep.seed) == (n, rate, seed)
        assert (rep.target_size, rep.distinct_size) == (target_size, len(words))
        assert (rep.achieved_size, rep.removed_count) == (len(kept), removed)
        assert rep.min_avg_radius == least


def test_expurgation_evaluates_each_subset_at_most_once(monkeypatch):
    # one pass over the distinct words, then one scan of the survivors
    calls = []

    def counted(xs, ell):
        calls.append(None)
        return average_radius_ell(xs, ell)

    monkeypatch.setattr(lrbounds.oracle, "average_radius_ell", counted)
    code, rep = random_expurgated_code(Params(2, 1, 3), 0.16, 10, 0.4, seed=5)
    assert rep.removed_count > 0
    assert len(calls) <= math.comb(rep.distinct_size, 3) + math.comb(rep.achieved_size, 3)


def test_mc_threshold_matches_closed_form():
    for triple in [(2, 1, 2), (3, 2, 3)]:
        params = Params(*triple)
        mean, se = estimate_threshold_mc(params, samples=200000, seed=1)
        assert se > 0.0
        assert abs(mean - zero_rate_threshold(params)) <= 5 * se


def test_mc_threshold_counts_do_not_wrap_for_large_L():
    # a symbol count reaches L = 300, beyond int8
    params = Params(2, 1, 300)
    mean, se = estimate_threshold_mc(params, samples=2000, seed=1)
    assert abs(mean - zero_rate_threshold(params)) <= 6 * se


def test_mc_threshold_any_alphabet_size():
    # q = 200 draws symbols past the int8 range; for L = 2, ell = 1, p* = (q-1)/(2q)
    q = 200
    mean, se = estimate_threshold_mc(Params(q, 1, 2), samples=2000, seed=1)
    assert abs(mean - (q - 1) / (2 * q)) <= 6 * se


def test_mc_threshold_deterministic():
    params = Params(3, 1, 3)
    a = estimate_threshold_mc(params, samples=50000, seed=11)
    b = estimate_threshold_mc(params, samples=50000, seed=11)
    c = estimate_threshold_mc(params, samples=50000, seed=12)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        estimate_threshold_mc(params, samples=10, seed=1)


def test_verify_covering_small_cases():
    all3 = tuple(itertools.product((1, 2), repeat=3))
    assert verify_covering(2, 3, all3, 0) is True
    assert verify_covering(2, 3, (all3[0],), 1) is False
    assert verify_covering(2, 3, (all3[0],), 3) is True
    assert verify_covering(2, 3, ((1, 1, 1), (2, 2, 2)), 1) is True
    # list centers of size ell
    lists = tuple(tuple((a,) for a in w) for w in all3)
    assert verify_covering(2, 3, lists, 0, ell=1) is True
    assert verify_covering(2, 3, lists[:1], 0, ell=1) is False
    # Hamming balls are the lr-balls around singleton lists
    for r in range(4):
        for k in range(1, 4):
            words = all3[:: 8 // k][:k]
            singletons = tuple(tuple((s,) for s in w) for w in words)
            assert verify_covering(2, 3, words, r) is verify_covering(2, 3, singletons, r, ell=1)


@pytest.mark.parametrize(
    "centers, radius, ell",
    [
        (((1, 2),), math.nan, None),
        (((1, 2),), -1, None),
        ((((1, 2), (1, 2)),), math.nan, 2),
        ((((1, 2), (1, 2)),), -0.5, 2),
        ((((1, 1), (1, 2)),), 1, 2),  # a repeated symbol is not a list of size 2
        ((((1, 2), (3, 3)),), 0, 2),
        (((1, 1.5),), 1, None),
        ((((1, 2), (1, 2.5)),), 1, 2),
        (((1, 4),), 1, None),
    ],
)
def test_verify_covering_rejects_bad_input(centers, radius, ell):
    with pytest.raises(ValueError):
        verify_covering(3, 2, centers, radius, ell=ell)


def test_budgets_are_enforced():
    assert issubclass(BudgetExceededError, RuntimeError)
    with pytest.raises(BudgetExceededError):
        exact_radius_ell(tuple((1,) * 13 for _ in range(2)), 3, 1)
    big = Code(2, 24, ((1,) * 24, (2,) * 24))
    with pytest.raises(BudgetExceededError):
        check_list_recoverable(big, 0.1, 1, 2)
    with pytest.raises(BudgetExceededError):
        verify_covering(2, 24, ((1,) * 24,), 2)


def test_center_budget_is_checked_before_the_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked past the budget")

    monkeypatch.setattr(lrbounds.oracle, "_center_walk", no_walk)
    with pytest.raises(BudgetExceededError):
        exact_radius_ell(tuple((1,) * 13 for _ in range(2)), 3, 1)
    with pytest.raises(BudgetExceededError):
        check_list_recoverable(Code(2, 24, ((1,) * 24, (2,) * 24)), 0.1, 1, 2)
    # C(60,30) ~ 1.2e17 lists: counted, never listed
    with pytest.raises(BudgetExceededError):
        exact_radius_ell(((1,), (60,)), 60, 30)
    with pytest.raises(BudgetExceededError):
        check_list_recoverable(Code(60, 1, ((1,), (60,))), 0.0, 30, 2)


def test_expurgation_budget_is_checked_before_sampling(monkeypatch):
    def no_sampling(seed):
        raise AssertionError("sampled past the budget")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    with pytest.raises(BudgetExceededError, match="budget"):
        random_expurgated_code(Params(2, 1, 2), 0.1, 40, 1.0, seed=1)
    with pytest.raises(BudgetExceededError):  # q^(n rate) would overflow a float
        random_expurgated_code(Params(2, 1, 2), 0.1, 2000, 1.0, seed=1)


def test_expurgation_budget_is_checked_before_the_subset_scan(monkeypatch):
    def no_scan(*args):
        raise AssertionError("scanned past the budget")

    monkeypatch.setattr(lrbounds.oracle, "average_radius_ell", no_scan)
    # 2^10 draws keep about 650 distinct words: C(650, 3) ~ 4.6e7 subsets
    with pytest.raises(BudgetExceededError, match="subsets exceed the budget"):
        random_expurgated_code(Params(2, 1, 3), 0.1, 10, 1.0, seed=1)


def test_expurgation_stops_drawing_once_the_subsets_pass_the_budget():
    # 2^18 words asked for, nearly all distinct; C(4473, 2) subsets already pass 10^7
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="subsets exceed the budget"):
        random_expurgated_code(Params(2, 1, 2), 0.1, 40, 0.45, seed=1)
    assert time.perf_counter() - start < 1.0
