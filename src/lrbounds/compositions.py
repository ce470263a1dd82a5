"""Exact index algebra for sums over symbol-count compositions.

A composition is a length-q vector of non-negative integer counts with total
m, an element of A_{q,m}.  Every closed-form sum downstream (moments and
derivatives; symmetric ones such as thresholds and tilted means over the
sorted members only) runs over one of these index sets, so two things are
pinned here: the enumeration order (lexicographic, first coordinate
descending) and exactness (multinomial coefficients and orbit sizes are
Python ints, turned into floats or logs once per cached table).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

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
        cleaned = []
        for e in self.entries:
            ie = int(e)
            if ie != e or ie < 0:
                raise ValueError(f"entries must be non-negative integers, got {e!r}")
            cleaned.append(ie)
        if not cleaned:
            raise ValueError("composition needs at least one part")
        object.__setattr__(self, "entries", tuple(cleaned))

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


def enumerate_compositions(q: int, m: int) -> Iterator[Composition]:
    """Yield all of A_{q,m}, first coordinate descending.

    For q=2, m=2 the order is (2,0), (1,1), (0,2).  The count is
    binom(m+q-1, q-1).
    """
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    if m < 0:
        raise ValueError(f"need m >= 0, got {m}")

    def rec(parts_left: int, remaining: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if parts_left == 1:
            yield prefix + (remaining,)
            return
        for head in range(remaining, -1, -1):
            yield from rec(parts_left - 1, remaining - head, prefix + (head,))

    for ent in rec(q, m, ()):
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
    """Vectorized view of A_{q,m} for fixed ell.

    counts are exact int64 entries, exponents the same matrix as float64
    (ready for broadcasting powers), multinomials and top_ell are float64.
    Arrays are read-only; tables are cached per (q, m, ell).
    """

    counts: np.ndarray
    exponents: np.ndarray
    multinomials: np.ndarray
    top_ell: np.ndarray


@lru_cache(maxsize=None)
def composition_table(q: int, m: int, ell: int) -> CompositionTable:
    comps = list(enumerate_compositions(q, m))
    counts = np.array([c.entries for c in comps], dtype=np.int64)
    exponents = counts.astype(np.float64)
    mults = np.array([float(multinomial(m, c)) for c in comps], dtype=np.float64)
    tops = np.array([float(max_ell_partial_sum(c, ell)) for c in comps], dtype=np.float64)
    for arr in (counts, exponents, mults, tops):
        arr.flags.writeable = False
    return CompositionTable(counts, exponents, mults, tops)


def _orbits(q: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (a, n) for each non-increasing a in A_{q,m}, first part descending.

    n = q!/prod(mult!) * m!/prod(a_i!) counts the tuples in [q]^m whose
    symbol counts sort to a; mult runs over the multiplicities in a.  The
    multinomial is built as a product of binomials along the recursion.
    """

    def rec(parts: int, remaining: int, cap: int, prefix: tuple[int, ...], n: int):
        if parts == 1:
            yield prefix + (remaining,), n
            return
        # head >= ceil(remaining / parts) leaves room for parts - 1 parts <= head
        for head in range(min(remaining, cap), -(-remaining // parts) - 1, -1):
            yield from rec(parts - 1, remaining - head, head, prefix + (head,),
                           n * math.comb(remaining, head))

    for a, n in rec(q, m, m, (), 1):
        yield a, n * (math.factorial(q) // math.prod(map(math.factorial, Counter(a).values())))
