"""The numpy-free exact layer: Python-int objects and closed-form curves.

Everything here imports only the standard library and params, so a process
that needs nothing else (`lrb threshold`, `lrb curve --kind gmrsw`,
`ry-binary-4`, `ry-qary-3`) never loads numpy.  It holds

- the sorted orbits of A_{q,m} with their exact tuple counts, the binomial
  row C(L, .), the radius law N_t behind p* and the lower bound, and g as
  integers: the orbit-pair sums T_s and the Bernstein numerators of g and
  its derivatives, all Python ints and cached (c_s = C(L,s) T_s is not);
- the zero-rate threshold p* as one exact integer ratio rounded once;
- the q-ary and list-recovery entropies and eta_q;
- the published comparison curves, closed forms of a Gibbs tilt;
- BudgetExceededError, so the CLI can catch it without importing oracle.

The modules that form arrays take float views of these (analysis divides
each numerator once, bounds takes logs of N) or import them by name.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

from .params import Params, _alphabet, _at_least, _nonnegative, _unit

__all__ = [
    "BudgetExceededError",
    "comparison_gmrsw",
    "comparison_ry_binary4",
    "comparison_ry_qary3",
    "entropy_q",
    "entropy_q_ell",
    "eta_q",
    "zero_rate_threshold",
]


class BudgetExceededError(RuntimeError):
    """Exhaustive enumeration would exceed the hard budget."""


# --- exact integer objects --------------------------------------------------


def _orbits(q: int, m: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (a, n) for each non-increasing a in A_{q,m}, first part descending.

    n = q!/prod(mult!) * m!/prod(a_i!) counts the tuples in [q]^m whose
    symbol counts sort to a; mult runs over the multiplicities in a.  The
    multinomial is a product of binomials C(remaining, head) along the
    recursion, each updated from the previous head by one exact step; the
    multiplicities are the runs of equal parts, so the recursion carries the
    length of the last run and the product of run factorials, and q!/prod
    is formed once per orbit.
    """
    q_fact = math.factorial(q)

    def rec(parts: int, remaining: int, cap: int, prefix: tuple[int, ...], n: int,
            run: int, runs: int):
        # run: length of the trailing run of parts equal to cap; runs: prod of run! so far
        if parts == 1:
            if remaining == cap:
                runs *= run + 1
            yield prefix + (remaining,), n * (q_fact // runs)
            return
        top = min(remaining, cap)
        binom = math.comb(remaining, top)  # C(remaining, head)
        # head >= ceil(remaining / parts) leaves room for parts - 1 parts <= head
        for head in range(top, -(-remaining // parts) - 1, -1):
            extended = (run + 1, runs * (run + 1)) if head == cap else (1, runs)
            yield from rec(parts - 1, remaining - head, head, prefix + (head,), n * binom,
                           *extended)
            binom = binom * head // (remaining - head + 1)

    return rec(q, m, m + 1, (), 1, 0, 1)


@lru_cache(maxsize=None)
def _binomial_row(L: int) -> tuple[int, ...]:
    """C(L, 0..L) by the exact int recurrence C(L, k+1) = C(L, k) (L - k) / (k + 1)."""
    row = [1]
    for k in range(L):
        row.append(row[-1] * (L - k) // (k + 1))
    return tuple(row)


@lru_cache(maxsize=None)
def _split_sums(q: int, ell: int, L: int) -> tuple[int, ...]:
    """Exact T_s = sum n_h n_t top_ell(h, t), s = 0..L, over the sorted head orbits
    h of A_{q-ell,L-s} and tail orbits t of A_{ell,s}.

    top_ell is symmetric within each block, so T_s sums top_ell over the tuples
    of [q]^L whose first L-s draws are on the head and last s on the tail.
    """
    T = []
    for s in range(L + 1):
        tails = list(_orbits(ell, s))
        T.append(sum(n_h * n_t * sum(sorted(h + t)[-ell:])
                      for h, n_h in _orbits(q - ell, L - s) for t, n_t in tails))
    return tuple(T)


def _tail_mass_coefficients(q: int, ell: int, L: int) -> tuple[int, ...]:
    """Exact c_s = sum of C(L,a) * top_ell(a) over a in A_{q,L} with tail mass s.

    The tail mass s(a) is the number of draws on the last ell symbols, so
    g(w) = sum_s c_s (w/(q-ell))^(L-s) ((1-w)/ell)^s and sum_s c_s / q^L = f(uniform).
    c_s = C(L,s) T_s: the s tail draws can sit at any C(L,s) of the L places.
    """
    return tuple(b * t for b, t in zip(_binomial_row(L), _split_sums(q, ell, L)))


@lru_cache(maxsize=None)
def _slice_numerators(q: int, ell: int, L: int, order: int) -> tuple[int, ...]:
    """Integer numerators over D = ((q-ell) ell)^L of the Bernstein coefficients of g^(order).

    Order 0: B_k = T_(L-k) (q-ell)^(L-k) ell^k, so B_k / D is the mean of
    top_ell given k draws on the head and 0 <= B_k / D <= L.  Order r:
    (L-r+1) times the forward difference of order r-1, so L!/(L-r)! times the
    r-th difference of B; g^(r) has degree L-r.
    """
    if order == 0:
        T = _split_sums(q, ell, L)
        return tuple(T[L - k] * (q - ell) ** (L - k) * ell**k for k in range(L + 1))
    prev = _slice_numerators(q, ell, L, order - 1)
    return tuple((L - order + 1) * (b - a) for a, b in zip(prev, prev[1:]))


@lru_cache(maxsize=None)
def _radius_counts(q: int, ell: int, L: int) -> tuple[int, ...]:
    """Exact N_t = #{x in [q]^L with top_ell t}, t = 0..L: the law of rho = 1 - t/L."""
    N = [0] * (L + 1)
    for a, n in _orbits(q, L):
        N[sum(a[:ell])] += n
    return tuple(N)


# --- thresholds -------------------------------------------------------------


@lru_cache(maxsize=None)
def _threshold(q: int, ell: int, L: int) -> float:
    total = L * q**L
    return (total - sum(t * n for t, n in enumerate(_radius_counts(q, ell, L)))) / total


def zero_rate_threshold(params: Params) -> float:
    """p*(q, ell, L) = 1 - E[plurality_ell] / L under the uniform law.

    Computed as an exact integer ratio S / (L * q^L), S = L q^L - sum_t t N_t
    with N the radius law (the same integer as sum_s c_s behind g), before
    the single float division.
    """
    return _threshold(params.q, params.ell, params.L)


# --- entropies --------------------------------------------------------------


def _entropy(q: int, ell: int, w: float) -> float:
    _unit("w", w)
    lnq = math.log(q)
    out = 0.0
    if w > 0.0:  # a difference of logs: (q - ell)/w overflows for subnormal w
        out += w * (math.log(q - ell) - math.log(w)) / lnq
    if w < 1.0:
        out += (1.0 - w) * math.log(ell / (1.0 - w)) / lnq
    return out


def entropy_q(q: int, w: float) -> float:
    """q-ary entropy; 1 at w = (q-1)/q, 0 at w = 0."""
    return _entropy(_alphabet(q), 1, w)


def entropy_q_ell(params: Params, w: float) -> float:
    """List-recovery entropy; log_q(ell) at 0, 1 at (q-ell)/q, log_q(q-ell) at 1."""
    return _entropy(params.q, params.ell, w)


def eta_q(q: int, xs: Sequence[float]) -> float:
    """sum x_i log_q(1/x_i) + (1 - sum x_i) log_q(1/(1 - sum x_i))."""
    q = _alphabet(q)
    vals = [float(x) for x in xs]
    if not all(x >= 0.0 for x in vals):
        raise ValueError(f"need non-negative entries, got {vals}")
    s = math.fsum(vals)
    if not s <= 1.0 + 1e-12:
        raise ValueError(f"entries sum to {s} > 1")
    lnq = math.log(q)
    out = 0.0
    for x in vals + [max(0.0, 1.0 - s)]:
        if x > 0.0:
            out -= x * math.log(x) / lnq
    return out


# --- published comparison curves --------------------------------------------


def comparison_gmrsw(p: float) -> float:
    """Binary (ell=1, L=3) curve (1/2)(2 - H_2(3p) - 3p log2(3)); needs 3p <= 1."""
    if not 0.0 <= 3.0 * p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1/3, got {p}")
    return 0.5 * (2.0 - entropy_q(2, 3.0 * p) - 3.0 * p * math.log2(3.0))


def _divergence_to_cap(u1: float, u2: float, cap: float) -> float:
    """min D(x || pi) in nats over {x1, x2 >= 0, x1 + 2 x2 <= cap, x1 + x2 <= 1}.

    pi = (1, u1, u2)/(1 + u1 + u2) on weights 0, 1, 2, x0 = 1 - x1 - x2.  The
    minimiser is the Gibbs tilt x_i ~ pi_i t^i: t = 1 if pi meets the cap,
    else the positive root of (2 - cap) u2 t^2 + (1 - cap) u1 t - cap = 0,
    with divergence cap ln t - ln Z(t), Z(t) = sum_i pi_i t^i.
    """
    if cap * (1.0 + u1 + u2) >= u1 + 2.0 * u2:
        return 0.0
    if cap == 0.0:
        return math.log1p(u1 + u2)  # x = 0: the t -> 0 limit
    a, b = (2.0 - cap) * u2, (1.0 - cap) * u1
    root = math.sqrt(b * b + 4.0 * a * cap)
    t = 2.0 * cap / (b + root) if b >= 0.0 else (root - b) / (2.0 * a)
    return max(0.0, cap * math.log(t) - math.log((1.0 + t * (u1 + t * u2)) / (1.0 + u1 + u2)))


def comparison_ry_binary4(p: float) -> float:
    """Binary (ell=1, L=4) curve: (1/3) min over the two-weight relaxation."""
    _nonnegative("p", p)
    # 3 - eta_2(x) - 2 x1 - log2(3) x2 = D(x || (1, 4, 3)/8) / ln 2
    return _divergence_to_cap(4.0, 3.0, 4.0 * p) / (3.0 * math.log(2.0))


def comparison_ry_qary3(q: int, p: float) -> float:
    """q-ary (ell=1, L=3) curve: (1/2) min over the two-weight relaxation."""
    q = _at_least("q", q, 3)
    _nonnegative("p", p)
    # 2 - eta_q(x) - log_q(3(q-1)) x1 - log_q((q-1)(q-2)) x2 = D(x || (1, u1, u2)/q^2) / ln q
    u1, u2 = 3.0 * (q - 1), float((q - 1) * (q - 2))
    return _divergence_to_cap(u1, u2, 3.0 * p) / (2.0 * math.log(q))
