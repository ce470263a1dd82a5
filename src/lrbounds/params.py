"""Shared parameter triple for list-recovery quantities, and the one home of
each argument rule (whole number, alphabet size, list shape, w in [0, 1])."""

from __future__ import annotations

from dataclasses import dataclass


def _whole(name: str, value) -> int:
    """value as an int, or ValueError when it is not a whole number (inf, NaN, 2.5)."""
    try:
        whole = int(value) == value
    except (OverflowError, ValueError):  # inf, NaN
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _alphabet(q) -> int:
    """q as an int, or ValueError unless it is a whole number >= 2."""
    q = _whole("q", q)
    if q < 2:
        raise ValueError(f"need q >= 2, got q={q}")
    return q


def _list_shape(q, ell) -> tuple[int, int]:
    """(q, ell) as ints, or ValueError unless q is an alphabet and 1 <= ell <= q-1."""
    q, ell = _alphabet(q), _whole("ell", ell)
    if not 1 <= ell <= q - 1:
        raise ValueError(f"need 1 <= ell <= q-1, got ell={ell}, q={q}")
    return q, ell


def _check_w(w: float) -> None:
    """ValueError unless 0 <= w <= 1; NaN fails too."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"need w in [0,1], got {w}")


@dataclass(frozen=True)
class Params:
    """A list-recovery regime (q, ell, L).

    q is the alphabet size, ell the input-list size, L the output-list
    bound (equivalently: L codewords, pluralities taken over ell-subsets).
    Valid ranges: q >= 2, 1 <= ell <= q - 1, L >= 2.
    """

    q: int
    ell: int
    L: int

    def __post_init__(self) -> None:
        q, ell = _list_shape(self.q, self.ell)
        for name, value in (("q", q), ("ell", ell), ("L", _whole("L", self.L))):
            object.__setattr__(self, name, value)
        if self.L < 2:
            raise ValueError(f"need L >= 2, got L={self.L}")

    @property
    def w_star(self) -> float:
        """Mass (q - ell)/q put outside the reference lists by the uniform law."""
        return (self.q - self.ell) / self.q
