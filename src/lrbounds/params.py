"""Shared parameter triple for list-recovery quantities."""

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
        for name in ("q", "ell", "L"):
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.q < 2:
            raise ValueError(f"need q >= 2, got q={self.q}")
        if not 1 <= self.ell <= self.q - 1:
            raise ValueError(f"need 1 <= ell <= q-1, got ell={self.ell}, q={self.q}")
        if self.L < 2:
            raise ValueError(f"need L >= 2, got L={self.L}")

    @property
    def w_star(self) -> float:
        """Mass (q - ell)/q put outside the reference lists by the uniform law."""
        return (self.q - self.ell) / self.q
