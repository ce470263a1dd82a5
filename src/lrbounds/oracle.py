"""Brute-force ground truth on small instances and seeded experiments.

Exhaustive routines enumerate list-tuple centers (budget 10^6) or all of
[q]^n (budget 10^7) and raise BudgetExceededError beyond that; randomized
routines (expurgated random codes, Monte-Carlo threshold estimates) take an
explicit seed and use a fresh PCG64 stream per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .exact import BudgetExceededError
from .metrics import Code, average_radius_ell, lr_distance, plurality_ell
from .params import Params

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
    n = len(xs[0])
    if n == 0:
        raise ValueError("words must be non-empty")
    for x in xs:
        if len(x) != n:
            raise ValueError("words must share one length")
        for s in x:
            if int(s) != s or not 1 <= s <= q:
                raise ValueError(f"symbol {s!r} outside 1..{q}")
    return len(xs), n


def exact_radius_ell(
    xs: Sequence[Sequence[int]], q: int, ell: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Minimal worst-case lr-distance from xs to any input-list tuple.

    Exhaustive branch-and-bound over all C(q,ell)^n centers, coordinate by
    coordinate; returns the radius and the lexicographically smallest
    minimizing center.
    """
    if not 1 <= ell <= q - 1:
        raise ValueError(f"need 1 <= ell <= q-1, got ell={ell}, q={q}")
    L, n = _validate_words(xs, q)
    subsets = list(combinations(range(1, q + 1), ell))
    if len(subsets) ** n > CENTER_BUDGET:
        raise BudgetExceededError(
            f"{len(subsets)}^{n} centers exceed the budget of {CENTER_BUDGET}"
        )
    # miss[j][t][i]: word i pays at coordinate j under subset t
    miss = [
        [tuple(1 if x[j] not in s else 0 for x in xs) for s in subsets] for j in range(n)
    ]

    best = n + 1
    best_center: tuple[tuple[int, ...], ...] | None = None
    center: list[tuple[int, ...]] = []

    def walk(j: int, dists: tuple[int, ...]) -> None:
        nonlocal best, best_center
        if max(dists) >= best:
            return
        if j == n:
            best = max(dists)
            best_center = tuple(center)
            return
        row = miss[j]
        for t, s in enumerate(subsets):
            center.append(s)
            walk(j + 1, tuple(d + m for d, m in zip(dists, row[t])))
            center.pop()

    walk(0, (0,) * L)
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
    if not 1 <= ell <= q - 1:
        raise ValueError(f"need 1 <= ell <= q-1, got ell={ell}, q={q}")
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
    lr-distance n*p.  On failure returns a witness (center, offending
    codewords).  Centers enumerated lexicographically; budget 10^6.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need p in [0,1], got {p}")
    if not 1 <= ell <= code.q - 1:
        raise ValueError(f"need 1 <= ell <= q-1, got ell={ell}, q={code.q}")
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    if code.size < L:
        return True, None
    n = code.n
    subsets = list(combinations(range(1, code.q + 1), ell))
    if len(subsets) ** n > CENTER_BUDGET:
        raise BudgetExceededError(
            f"{len(subsets)}^{n} centers exceed the budget of {CENTER_BUDGET}"
        )
    threshold = n * p
    for center in product(subsets, repeat=n):
        inside = [w for w in code.words if lr_distance(w, center) <= threshold]
        if len(inside) >= L:
            return False, (center, tuple(inside))
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


def _first_bad_subset(
    words: list[tuple], p: float, ell: int, L: int, n: int
) -> tuple[Optional[tuple[int, ...]], float]:
    """First L-subset with average radius <= n*p, and the least radius seen.

    When no subset is bad the scan has seen them all, so the least radius is
    the minimum over the code (inf below L words).
    """
    least, threshold = math.inf, n * p
    for idxs in combinations(range(len(words)), L):
        radius = average_radius_ell([words[i] for i in idxs], ell)
        least = min(least, radius)
        if radius <= threshold:
            return idxs, least
    return None, least


def random_expurgated_code(
    params: Params, p: float, n: int, target_rate: float, seed: int
) -> tuple[Code, ExpurgationReport]:
    """Sample ceil(q^(n*rate)) words and expurgate bad L-subsets.

    Raises BudgetExceededError before sampling when q^(n*rate) exceeds
    POINT_BUDGET words.

    A subset is bad when its average lr-radius is <= n*p; its
    lexicographically largest codeword is removed and the scan restarts,
    until every L-subset has average radius strictly above n*p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need p in [0,1], got {p}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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

    removed = 0
    while True:
        bad, min_avg = _first_bad_subset(words, p, ell, L, n)
        if bad is None:
            break
        victim = max(words[i] for i in bad)
        words.remove(victim)
        removed += 1

    code = Code(q, n, tuple(words))
    report = ExpurgationReport(
        n, target_rate, seed, target_size, distinct_size, len(words), removed, min_avg
    )
    return code, report


def estimate_threshold_mc(params: Params, samples: int = 10**6, seed: int = 1) -> tuple[float, float]:
    """Monte-Carlo estimate of p* = E[1 - plurality_ell/L] over uniform tuples.

    Returns (mean, standard error); samples must be at least 10^3 for the
    normal-approximation error bar to mean anything.
    """
    if samples < 10**3:
        raise ValueError(f"need samples >= 1000, got {samples}")
    q, ell, L = params.q, params.ell, params.L
    if q > 127:
        raise ValueError("alphabet too large for the int8 fast path")
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, q, size=(samples, L), dtype=np.int8)
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

    Hamming balls around words when ell is None, otherwise lr-balls around
    input-list tuples.  Budget: q^n <= 10^7 points, checked in chunks.
    """
    if q < 2 or n < 1:
        raise ValueError(f"need q >= 2, n >= 1, got q={q}, n={n}")
    total = q**n
    if total > POINT_BUDGET:
        raise BudgetExceededError(f"{q}^{n} points exceed the budget of {POINT_BUDGET}")
    if len(centers) == 0:
        return False

    word_centers: list[np.ndarray] = []
    outside_tables: list[np.ndarray] = []
    if ell is None:
        for c in centers:
            _validate_words([c], q)
            if len(c) != n:
                raise ValueError(f"center of length {len(c)}, expected {n}")
            word_centers.append(np.array(c, dtype=np.int64))
    else:
        if not 1 <= ell <= q - 1:
            raise ValueError(f"need 1 <= ell <= q-1, got ell={ell}, q={q}")
        for c in centers:
            if len(c) != n:
                raise ValueError(f"center of length {len(c)}, expected {n}")
            outside = np.ones((n, q + 1), dtype=bool)
            for j, subset in enumerate(c):
                if len(subset) != ell or any(not 1 <= s <= q for s in subset):
                    raise ValueError(f"bad input list {subset!r}")
                outside[j, list(subset)] = False
            outside_tables.append(outside)

    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    cols = np.arange(n)
    chunk = 1 << 15
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        pts = (idx[:, None] // place[None, :]) % q + 1
        covered = np.zeros(len(idx), dtype=bool)
        if ell is None:
            for cw in word_centers:
                covered |= (pts != cw[None, :]).sum(axis=1) <= radius
                if covered.all():
                    break
        else:
            for outside in outside_tables:
                covered |= outside[cols[None, :], pts].sum(axis=1) <= radius
                if covered.all():
                    break
        if not covered.all():
            return False
    return True
