"""Brute-force ground truth on small instances and seeded experiments.

Exhaustive routines enumerate list-tuple centers (budget 10^6) or all of
[q]^n (budget 10^7) and raise BudgetExceededError beyond that.  The exact
radius and the list-recoverability check share one pruned depth-first walk
over the centers, and covering by Hamming balls is covering by lr-balls
around singleton lists (ell = 1).  Randomized routines (expurgated random
codes, Monte-Carlo threshold estimates) take an explicit seed and use a
fresh PCG64 stream per call; expurgation evaluates each L-subset of the
sampled words at most once, in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .exact import BudgetExceededError
from .metrics import Code, _validate_symbols, _word_length, average_radius_ell, plurality_ell
from .params import Params, _at_least, _list_shape, _nonnegative, _unit, _whole

__all__ = [
    "BudgetExceededError",
    "CENTER_BUDGET",
    "ExpurgationReport",
    "POINT_BUDGET",
    "check_list_recoverable",
    "estimate_threshold_mc",
    "exact_avg_radius_min",
    "exact_radius_ell",
    "random_expurgated_code",
    "verify_covering",
]

CENTER_BUDGET = 10**6
POINT_BUDGET = 10**7


def _validate_words(xs: Sequence[Sequence[int]], q: int) -> tuple[int, int]:
    if len(xs) == 0:
        raise ValueError("need at least one word")
    n = _word_length(xs)
    if n == 0:
        raise ValueError("words must be non-empty")
    for x in xs:
        _validate_symbols(x, q)
    return len(xs), n


def _input_lists(q: int, ell: int, n: int) -> list[tuple[int, ...]]:
    """The C(q,ell) input lists in lexicographic order; raises before listing
    them when the C(q,ell)^n centers exceed CENTER_BUDGET."""
    count = math.comb(q, ell)
    if count**n > CENTER_BUDGET:
        raise BudgetExceededError(f"{count}^{n} centers exceed the budget of {CENTER_BUDGET}")
    return list(combinations(range(1, q + 1), ell))


def _center_walk(
    xs: Sequence[Sequence[int]],
    lists: list[tuple[int, ...]],
    prune: Callable[[list[int]], bool],
) -> Iterator[tuple[tuple[tuple[int, ...], ...], list[int]]]:
    """Centers in lists^n, in product order, with the lr-distances of xs to each.

    Depth-first over coordinates, carrying the vector of distances so far;
    they only grow along a path, so a subtree is skipped as soon as
    prune(dists) says no completion can qualify.  prune is asked afresh at
    every node, so a caller may tighten it between the (center, dists) pairs
    yielded at the leaves that survive.  Each step forms its increments from
    the column of symbols at that coordinate.
    """
    n = len(xs[0])
    columns = list(zip(*xs))
    center: list[tuple[int, ...]] = []

    def walk(j: int, dists: list[int]):
        if prune(dists):
            return
        if j == n:
            yield tuple(center), dists
            return
        col = columns[j]
        for s in lists:
            center.append(s)
            yield from walk(j + 1, [d + (c not in s) for d, c in zip(dists, col)])
            center.pop()

    return walk(0, [0] * len(xs))


def exact_radius_ell(
    xs: Sequence[Sequence[int]], q: int, ell: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimal worst-case lr-distance from xs to any input-list tuple.

    Exhaustive branch-and-bound over all C(q,ell)^n centers, coordinate by
    coordinate; returns the radius and the lexicographically smallest
    minimizing center.
    """
    q, ell = _list_shape(q, ell)
    _, n = _validate_words(xs, q)
    best, best_center = n + 1, None
    for best_center, dists in _center_walk(xs, _input_lists(q, ell, n), lambda d: max(d) >= best):
        best = max(dists)
    assert best_center is not None
    return best, best_center


def exact_avg_radius_min(
    xs: Sequence[Sequence[int]], q: int, ell: int
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """Minimal average lr-distance and its optimal center.

    The average decouples per coordinate, so the optimal list is the
    ell-plurality of each column (lexicographically smallest on ties) and
    the value agrees exactly with average_radius_ell.
    """
    q, ell = _list_shape(q, ell)
    L, n = _validate_words(xs, q)
    center = []
    total = 0
    for j in range(n):
        col = tuple(x[j] for x in xs)
        subset, count = plurality_ell(col, q, ell)
        center.append(subset)
        total += count
    return (n * L - total) / L, tuple(center)


def check_list_recoverable(
    code: Code, p: float, ell: int, L: int
) -> tuple[bool, Optional[tuple]]:
    """Decide (p, ell, L) list-recoverability of a code by exhaustion.

    True when every input-list tuple has fewer than L codewords within
    lr-distance n*p.  Otherwise the witness is the first center in
    lexicographic order with L or more of them, and those codewords in code
    order.  Budget 10^6 centers.
    """
    _unit("p", p)
    params = Params(code.q, ell, L)
    if code.size < params.L:
        return True, None
    threshold = code.n * p
    lists = _input_lists(params.q, params.ell, code.n)
    few = lambda dists: sum(d <= threshold for d in dists) < params.L  # noqa: E731
    for center, dists in _center_walk(code.words, lists, few):
        return False, (center, tuple(w for w, d in zip(code.words, dists) if d <= threshold))
    return True, None


@dataclass(frozen=True)
class ExpurgationReport:
    n: int
    target_rate: float
    seed: int
    target_size: int
    distinct_size: int
    achieved_size: int
    removed_count: int
    min_avg_radius: float

    def achieved_rate(self, q: int) -> float:
        if self.achieved_size < 1:
            return -math.inf
        return math.log(self.achieved_size) / (self.n * math.log(q))


def random_expurgated_code(
    params: Params, p: float, n: int, target_rate: float, seed: int
) -> tuple[Code, ExpurgationReport]:
    """Sample ceil(q^(n*rate)) words and expurgate bad L-subsets.

    Raises BudgetExceededError before sampling when q^(n*rate) exceeds
    POINT_BUDGET words.

    A subset is bad when its average lr-radius is <= n*p.  One pass over
    the L-subsets in combinations order skips those holding a removed word
    and removes the lexicographically largest word of each bad one, so every
    L-subset left has average radius above n*p.  It keeps what a scan
    restarted after each removal would: every surviving subset before the
    current one was evaluated once and found good, and a removal changes no
    other subset's radius, so the restarted scan's first bad subset is the
    pass's next one.  min_avg_radius (inf below L words) is the pass's own
    minimum when nothing was removed, else one more scan of the survivors.
    """
    n, seed = _at_least("n", n, 1), _whole("seed", seed)
    _unit("p", p)
    if not target_rate > 0.0:
        raise ValueError(f"need target_rate > 0, got {target_rate}")
    q, ell, L = params.q, params.ell, params.L
    if n * target_rate * math.log(q) > math.log(POINT_BUDGET):  # before q^(n rate) is formed
        raise BudgetExceededError(
            f"{q}^({n}*{target_rate}) words exceed the budget of {POINT_BUDGET}"
        )
    target_size = math.ceil(float(q) ** (n * target_rate))
    rng = np.random.default_rng(seed)
    draws = rng.integers(1, q + 1, size=(target_size, n))
    words = list(dict.fromkeys(tuple(int(s) for s in row) for row in draws))
    distinct_size = len(words)

    threshold, removed, min_avg = n * p, set(), math.inf
    for idxs in combinations(range(distinct_size), L):
        if removed.isdisjoint(idxs):
            radius = average_radius_ell([words[i] for i in idxs], ell)
            min_avg = min(min_avg, radius)
            if radius <= threshold:
                removed.add(max(idxs, key=words.__getitem__))
    words = [w for i, w in enumerate(words) if i not in removed]
    if removed:
        subsets = combinations(words, L)
        min_avg = min((average_radius_ell(list(s), ell) for s in subsets), default=math.inf)

    code = Code(q, n, tuple(words))
    report = ExpurgationReport(
        n, target_rate, seed, target_size, distinct_size, len(words), len(removed), min_avg
    )
    return code, report


def estimate_threshold_mc(params: Params, samples: int = 10**6, seed: int = 1) -> tuple[float, float]:
    """Monte-Carlo estimate of p* = E[1 - plurality_ell/L] over uniform tuples.

    Returns (mean, standard error); samples must be at least 10^3 for the
    normal-approximation error bar to mean anything.
    """
    samples, seed = _at_least("samples", samples, 10**3), _whole("seed", seed)
    q, ell, L = params.q, params.ell, params.L
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, q, size=(samples, L), dtype=np.min_scalar_type(q - 1))
    counts = np.zeros((samples, q), dtype=np.min_scalar_type(L))  # a count reaches L
    rows = np.arange(samples)
    for j in range(L):
        counts[rows, draws[:, j]] += 1
    counts.sort(axis=1)
    plur = counts[:, q - ell :].sum(axis=1, dtype=np.int64)
    vals = 1.0 - plur / L
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return mean, stderr


def verify_covering(
    q: int,
    n: int,
    centers: Sequence,
    radius: float,
    ell: Optional[int] = None,
) -> bool:
    """Exhaustively confirm that the balls of the given radius cover [q]^n.

    lr-balls around input-list tuples; when ell is None the centers are
    words and the balls Hamming balls, which are the lr-balls around their
    singleton lists (ell = 1).  Budget: q^n <= 10^7 points, checked in chunks.
    """
    if ell is None:
        centers, ell = [tuple((s,) for s in word) for word in centers], 1
    q, ell = _list_shape(q, ell)
    n = _at_least("n", n, 1)
    _nonnegative("radius", radius)
    total = q**n
    if total > POINT_BUDGET:
        raise BudgetExceededError(f"{q}^{n} points exceed the budget of {POINT_BUDGET}")

    outside_tables: list[np.ndarray] = []
    for c in centers:
        if len(c) != n:
            raise ValueError(f"center of length {len(c)}, expected {n}")
        outside = np.ones((n, q + 1), dtype=bool)
        for j, subset in enumerate(c):
            _validate_symbols(subset, q)
            if len(subset) != ell or len(set(subset)) != ell:
                raise ValueError(f"bad input list {subset!r}")
            outside[j, [int(s) for s in subset]] = False
        outside_tables.append(outside.ravel())
    if not outside_tables:
        return False

    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    offsets = np.arange(n) * (q + 1)  # cell (j, s) of a flattened outside table
    chunk = 1 << 15
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cells = (idx[:, None] // place[None, :]) % q + 1 + offsets
        covered = np.zeros(len(idx), dtype=bool)
        for outside in outside_tables:
            covered |= outside[cells].sum(axis=1) <= radius
            if covered.all():
                break
        if not covered.all():
            return False
    return True
