"""Distances, pluralities and radii for words over the alphabet {1, ..., q}.

Symbol q plays the usual role of zero: Hamming weight is distance to the
all-q word, and the reference input-list tuple fixes every coordinate list
to the top block {q-ell+1, ..., q}.  Ties in pluralities resolve to the
smallest symbol (ell = 1) or the lexicographically smallest ell-subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .params import _alphabet, _at_least, _list_shape, _whole

__all__ = [
    "Code",
    "average_radius_ell",
    "hamming_distance",
    "hamming_weight",
    "lr_distance",
    "lr_weight",
    "plurality",
    "plurality_ell",
]

Word = tuple  # word: tuple of symbols in 1..q


def _validate_symbols(x: Sequence[int], q: int) -> None:
    q = _alphabet(q)
    for s in x:
        if int(s) != s or not 1 <= s <= q:
            raise ValueError(f"symbol {s!r} outside 1..{q}")


def _word_length(xs: Sequence[Sequence[int]]) -> int:
    """The one length of the words xs (at least one), or ValueError when lengths differ."""
    n = len(xs[0])
    if any(len(x) != n for x in xs):
        raise ValueError("words must share one length")
    return n


def _symbol_counts(x: Sequence[int], q: int) -> list[int]:
    counts = [0] * (q + 1)  # index 0 unused
    for s in x:
        counts[s] += 1
    return counts


def plurality(x: Sequence[int], q: int) -> tuple[int, int]:
    """Most frequent symbol of x and its count; smallest symbol wins ties."""
    (sym,), count = plurality_ell(x, q, 1)
    return sym, count


def plurality_ell(x: Sequence[int], q: int, ell: int) -> tuple[tuple[int, ...], int]:
    """Best ell-subset of symbols by total count in x, with that count.

    Ties resolve to the lexicographically smallest subset; plurality is the
    ell = 1 case without the (symbol,) wrapping.
    """
    if len(x) == 0:
        raise ValueError("empty tuple has no plurality")
    q, ell = _whole("q", q), _whole("ell", ell)
    if not 1 <= ell <= q:
        raise ValueError(f"need 1 <= ell <= q, got ell={ell}, q={q}")
    _validate_symbols(x, q)
    counts = _symbol_counts(x, q)
    top = sorted(range(1, q + 1), key=lambda s: (-counts[s], s))[:ell]
    return tuple(sorted(top)), sum(counts[s] for s in top)


def hamming_distance(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return sum(1 for a, b in zip(x, y) if a != b)


def hamming_weight(x: Sequence[int], q: int) -> int:
    """Distance to the all-q word: lr_weight at ell = 1."""
    return lr_weight(x, q, 1)


def lr_distance(x: Sequence[int], lists: Sequence[Sequence[int]]) -> int:
    """Number of coordinates of x that fall outside their input list."""
    if len(x) != len(lists):
        raise ValueError(f"length mismatch: {len(x)} vs {len(lists)}")
    return sum(1 for s, ys in zip(x, lists) if s not in ys)


def lr_weight(x: Sequence[int], q: int, ell: int) -> int:
    """lr_distance to the reference tuple ({q-ell+1,...,q}, ..., same)."""
    q, ell = _list_shape(q, ell)
    _validate_symbols(x, q)
    return sum(1 for s in x if s <= q - ell)


def average_radius_ell(xs: Sequence[Sequence[int]], ell: int) -> float:
    """Average list-recovery radius of L words around their plurality center.

    Per coordinate the optimal ell-subset keeps the ell most frequent
    symbols; the value is (n*L - sum of column pluralities) / L.
    """
    L = len(xs)
    if L < 2:
        raise ValueError(f"need at least 2 words, got {L}")
    n, ell = _word_length(xs), _at_least("ell", ell, 1)
    total = 0
    for j in range(n):
        col_counts: dict[int, int] = {}
        for x in xs:
            col_counts[x[j]] = col_counts.get(x[j], 0) + 1
        total += sum(sorted(col_counts.values(), reverse=True)[:ell])
    return (n * L - total) / L


@dataclass(frozen=True)
class Code:
    """A set of distinct words over {1, ..., q}, all of length n."""

    q: int
    n: int
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _alphabet(self.q))
        object.__setattr__(self, "n", _at_least("n", self.n, 1))
        norm = tuple(tuple(int(s) for s in w) for w in self.words)
        for w in norm:
            if len(w) != self.n:
                raise ValueError(f"word of length {len(w)}, expected {self.n}")
            _validate_symbols(w, self.q)
        if len(set(norm)) != len(norm):
            raise ValueError("codewords must be distinct")
        object.__setattr__(self, "words", norm)

    @property
    def size(self) -> int:
        return len(self.words)

    def rate(self) -> float:
        if self.size == 0:
            raise ValueError("empty code has no rate")
        return math.log(self.size) / (self.n * math.log(self.q))
