"""Exact index algebra for sums over symbol-count compositions.

A composition is a length-q vector of non-negative integer counts with total
m, an element of A_{q,m}.  Every closed-form sum downstream (moments and
derivatives; symmetric ones such as thresholds, tilted means and g's
coefficients over sorted orbits only, which exact enumerates without numpy)
runs over one of these index sets, so three things are pinned here: the
order (lexicographic, first coordinate descending), exactness (multinomials
and orbit sizes are Python ints; a cached table's exponents end in the logs
of exact ints, and it knows nothing of ell) and the top_ell tables of
a + e_(j_1) + ... + e_(j_k) for derivatives of order k, all built from one
vectorized int kernel, over A_{q,m} or over its head/tail split (whose rule
is here too).  No table of more than _TABLE_BUDGET entries is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .exact import BudgetExceededError
from .params import _at_least

__all__ = [
    "Composition",
    "CompositionTable",
    "composition_table",
    "enumerate_compositions",
    "majorizes",
    "max_ell_partial_sum",
    "multinomial",
]

MAJORIZATION_TOL = 1e-12


@dataclass(frozen=True)
class Composition:
    """Non-negative integer counts per symbol."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(_at_least("composition entry", e, 0) for e in self.entries)
        if not cleaned:
            raise ValueError("composition needs at least one part")
        object.__setattr__(self, "entries", cleaned)

    @property
    def total(self) -> int:
        return sum(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


CompositionLike = Union[Composition, Sequence[int]]


def _entries(a: CompositionLike) -> tuple[int, ...]:
    if isinstance(a, Composition):
        return a.entries
    return Composition(tuple(a)).entries


def _tuples(q: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(a, m!/prod(a_i!)) for a in A_{q,m}, first coordinate descending; a not validated.

    The multinomial is a product of binomials C(remaining, head) along the
    recursion, each binomial updated from the previous head by one exact step.
    """
    q, m = _at_least("q", q, 1), _at_least("m", m, 0)

    def rec(parts_left: int, remaining: int, prefix: tuple[int, ...], n: int):
        if parts_left == 1:
            yield prefix + (remaining,), n
            return
        binom = 1  # C(remaining, head)
        for head in range(remaining, -1, -1):
            yield from rec(parts_left - 1, remaining - head, prefix + (head,), n * binom)
            binom = binom * head // (remaining - head + 1)

    return rec(q, m, (), 1)


def enumerate_compositions(q: int, m: int) -> Iterator[Composition]:
    """Yield all of A_{q,m}, first coordinate descending.

    For q=2, m=2 the order is (2,0), (1,1), (0,2).  The count is
    binom(m+q-1, q-1).
    """
    for ent, _ in _tuples(q, m):
        yield Composition(ent)


def multinomial(m: int, a: CompositionLike) -> int:
    """Exact multinomial coefficient m! / prod(a_i!); requires sum(a) == m."""
    ent = _entries(a)
    if sum(ent) != m:
        raise ValueError(f"composition sums to {sum(ent)}, expected {m}")
    out = 1
    remaining = m
    for e in ent:
        out *= math.comb(remaining, e)
        remaining -= e
    return out


def max_ell_partial_sum(a: CompositionLike, ell: int) -> int:
    """Sum of the ell largest entries of a."""
    ent = _entries(a)
    if not 1 <= ell <= len(ent):
        raise ValueError(f"need 1 <= ell <= {len(ent)}, got ell={ell}")
    return sum(sorted(ent, reverse=True)[:ell])


def majorizes(a: Sequence[float], b: Sequence[float], tol: float = MAJORIZATION_TOL) -> bool:
    """Whether a majorizes b: sorted-descending prefix sums of a dominate b's.

    Both vectors must have the same length and (within tol) the same total.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    sa = sorted((float(x) for x in a), reverse=True)
    sb = sorted((float(x) for x in b), reverse=True)
    if abs(math.fsum(sa) - math.fsum(sb)) > tol:
        raise ValueError("vectors have different totals")
    run_a = 0.0
    run_b = 0.0
    for xa, xb in zip(sa, sb):
        run_a += xa
        run_b += xb
        if run_a < run_b - tol:
            return False
    return True


class CompositionTable(NamedTuple):
    """Vectorized view of A_{q,m}.

    counts are exact int64 entries, shape (K, q).  exponents is a
    C-contiguous (q + 1, K) float64 matrix: the transposed counts, then the
    logs of the exact multinomials (finite for every m), so that
    [log p, 1] @ exponents is log(C(m,a) p^a) for every a.  Arrays are
    read-only; tables are cached per (q, m).
    """

    counts: np.ndarray
    exponents: np.ndarray


def _top_ell_plus_unit(counts: np.ndarray, ell: int) -> np.ndarray:
    """top_ell(a + e_j) for every count row a and every j; exact int64, shape of counts.

    top_ell(a + e_j) = top_ell(a) + [a_j >= a_(ell)], a_(ell) the ell-th largest
    entry of a.  No ell-set gains more than 1; if a_j >= a_(ell) a top set of a
    holds j and gains it, else a_j + 1 <= a_(ell) and a set holding j does no
    better than one that swaps j for a top entry of a.
    """
    top = np.sort(counts, axis=-1)[..., -ell:]
    return top.sum(axis=-1, keepdims=True) + (counts >= top[..., :1])


def _top_ell_of(counts: np.ndarray, ell: int, order: int) -> np.ndarray:
    """top_ell(a + e_(j_1) + ... + e_(j_order)) for every count row a; exact int64.

    Shape counts.shape[:-1] + (q,) * order.  Order 0 is top_ell(a); higher
    orders add order - 1 unit vectors to the rows and take the last one with
    _top_ell_plus_unit.
    """
    if order == 0:
        return np.sort(counts, axis=-1)[..., -ell:].sum(axis=-1)
    q = counts.shape[-1]
    for _ in range(order - 1):
        counts = counts[..., np.newaxis, :] + np.eye(q, dtype=np.int64)
    return _top_ell_plus_unit(counts, ell)


_TABLE_BUDGET = 10**7  # entries, rows x columns, that one table over A_{q,m} may hold
_HEAD_TAIL_SAVING = 20_000  # exponentials the head/tail split must save per block it loops over


def _check_budget(q: int, m: int, columns: int) -> None:
    """BudgetExceededError before a table of |A_{q,m}| = C(m+q-1, q-1) rows is enumerated."""
    entries = math.comb(m + q - 1, q - 1) * columns
    if entries > _TABLE_BUDGET:
        raise BudgetExceededError(
            f"a table over A_{{{q},{m}}} would hold {entries} entries, "
            f"over the budget of {_TABLE_BUDGET}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def composition_table(q: int, m: int) -> CompositionTable:
    q, m = _at_least("q", q, 1), _at_least("m", m, 0)
    _check_budget(q, m, q)
    rows = list(_tuples(q, m))
    counts = np.array([a for a, _ in rows], dtype=np.int64)
    exponents = np.array([*counts.T, [math.log(n) for _, n in rows]], dtype=np.float64)
    return CompositionTable(_read_only(counts), _read_only(exponents))


@lru_cache(maxsize=None)
def _top_ell_table(q: int, ell: int, m: int, order: int) -> np.ndarray:
    """top_ell(a + e_(j_1) + ... + e_(j_order)) for a in A_{q,m}, shape (K, q**order).

    Column j_1 q^(order-1) + ... + j_order; order 0 is top_ell(a), one
    column.  float64, read-only.
    """
    _check_budget(q, m, q**order)
    counts = composition_table(q, m).counts
    return _read_only(_top_ell_of(counts, ell, order).reshape(len(counts), -1).astype(np.float64))


class _HeadTailBlock(NamedTuple):
    """The compositions a = (b, c) of one tail total r in a _HeadTailLayout.

    heads and tails slice the columns of the head and tail tables that hold
    b in A_{q1,m-r} and c in A_{q2,r}.  values holds
    top_ell(a + e_(j_1) + ... + e_(j_order)) / C(m,r), float64 and read-only,
    with the larger of the two sides first: shape (|heads|, |tails| * cols)
    if head_major, else (|tails|, |heads| * cols).
    """

    heads: slice
    tails: slice
    head_major: bool
    values: np.ndarray


class _HeadTailLayout(NamedTuple):
    """A_{q,m} as heads b, the first q1 = q // 2 counts, and tails c, the other q2.

    The heads are the rows (r, b) of composition_table(q1 + 1, m), which
    groups A_{q1,m-r} by the slack r, the tail total; its multinomial
    m!/(r! prod b!) is C(m,r) C(m-r,b).  head views its exponents past the
    slack row, so [log p_H, 1] @ head is the log of every head term; tail
    reads the rows (m-r, c) of composition_table(q2 + 1, m) alike, with
    multinomial C(m,r) C(r,c).  Since C(m,a) = C(m,r) C(m-r,b) C(r,c), a
    block's values carry the one 1/C(m,r) the two multinomials have too many.
    """

    head: np.ndarray
    tail: np.ndarray
    blocks: tuple[_HeadTailBlock, ...]


def _halves(q: int) -> tuple[int, int]:
    """(q1, q2): the head takes the first q1 = q // 2 symbols, the tail the other q2."""
    return q // 2, (q + 1) // 2


def _takes_head_tail(q: int, m: int, rows: int) -> bool:
    """Whether the head/tail split beats the whole table for rows rows over A_{q,m}.

    The split saves rows * (|A_{q,m}| - |heads| - |tails|) exponentials and
    pays a Python loop over m + 1 blocks per chunk of rows; measured on 2
    cores, it wins once the saving passes about _HEAD_TAIL_SAVING per block.
    For q <= 3 it saves nothing.
    """
    saved = math.comb(m + q - 1, q - 1) - sum(math.comb(m + h, h) for h in _halves(q))
    return rows * saved > _HEAD_TAIL_SAVING * (m + 1)


def _rows_summing_to(parts: int, total: int) -> slice:
    """The rows of composition_table(parts + 1, m) whose last parts counts sum to total.

    The first count, the slack, descends, so the rows of every smaller total
    come first: C(total + parts - 1, parts) of them, by the hockey stick.
    """
    return slice(math.comb(total + parts - 1, parts), math.comb(total + parts, parts))


@lru_cache(maxsize=None)
def _head_tail_layout(q: int, ell: int, m: int, order: int) -> _HeadTailLayout:
    """The head/tail view of A_{q,m} and its top_ell values of the given order.

    Its blocks hold as many values as _top_ell_table(q, ell, m, order) and
    stand in for it: A_{q,m} itself is never enumerated.
    """
    _check_budget(q, m, q**order)
    q1, q2 = _halves(q)
    head, tail = composition_table(q1 + 1, m), composition_table(q2 + 1, m)
    blocks = []
    for r in range(m + 1):
        hs, ts = _rows_summing_to(q1, m - r), _rows_summing_to(q2, r)
        b, c = head.counts[hs, 1:], tail.counts[ts, 1:]
        shape = (len(b), len(c))
        counts = np.concatenate((np.broadcast_to(b[:, np.newaxis], shape + b.shape[1:]),
                                 np.broadcast_to(c[np.newaxis], shape + c.shape[1:])), axis=-1)
        values = _top_ell_of(counts, ell, order).reshape(shape + (-1,)) / float(math.comb(m, r))
        head_major = len(b) >= len(c)
        if not head_major:
            values = values.transpose(1, 0, 2)
        values = np.ascontiguousarray(values).reshape(len(values), -1)
        blocks.append(_HeadTailBlock(hs, ts, head_major, _read_only(values)))
    return _HeadTailLayout(head.exponents[1:], tail.exponents[1:], tuple(blocks))
