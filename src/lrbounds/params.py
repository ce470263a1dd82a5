"""Shared parameter triple for list-recovery quantities, and the one home of
each argument rule that more than one function applies: whole numbers and floors,
alphabet, list shape, [0, 1], (0, 1) and non-negative reals; NaN fails every rule."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Params"]


def _whole(name: str, value) -> int:
    """value as an int, or ValueError when it is not a whole number (inf, NaN, 2.5)."""
    try:
        whole = int(value) == value
    except (OverflowError, ValueError):  # inf, NaN
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _at_least(name: str, value, floor: int) -> int:
    """value as an int, or ValueError unless it is a whole number >= floor."""
    value = _whole(name, value)
    if value < floor:
        raise ValueError(f"need {name} >= {floor}, got {value}")
    return value


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


def _unit(name: str, value: float) -> None:
    """ValueError unless value lies in the closed unit interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"need {name} in [0,1], got {value}")


def _open_unit(name: str, value: float) -> None:
    """ValueError unless value lies in the open unit interval (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"need 0 < {name} < 1, got {value}")


def _nonnegative(name: str, value: float) -> None:
    """ValueError unless value >= 0; inf passes."""
    if not value >= 0.0:
        raise ValueError(f"need {name} >= 0, got {value}")


def _finite_nonnegative(name: str, value: float) -> None:
    """ValueError unless 0 <= value < inf."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"need finite {name} >= 0, got {value}")


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
        for name, value in (("q", q), ("ell", ell), ("L", _at_least("L", self.L, 2))):
            object.__setattr__(self, name, value)

    @property
    def w_star(self) -> float:
        """Mass (q - ell)/q put outside the reference lists by the uniform law."""
        return (self.q - self.ell) / self.q
