"""Moment functions of i.i.d. symbol draws and their certificates.

f(params, P) is the expected ell-plurality of L i.i.d. draws from P over
{1,...,q}.  Its derivatives of order k = 0, 1, 2 (f, gradient, Hessian) come
from one closed form, L!/(L-k)! sum over A_{q,L-k} of
C(L-k,a) p^a top_ell(a + e_(j_1) + ... + e_(j_k)), with the top_ell table of
order k from compositions, never from finite differences.

g restricts f to the two-block sliced family P_w that spreads mass w
uniformly over the first q-ell symbols and 1-w over the last ell.  g depends
on w only through how many draws land on each block, so it is a degree-L
polynomial whose Bernstein coefficients, over the one denominator
((q-ell) ell)^L, have integer numerators.  exact forms those numerators and
their scaled forward differences; here each is divided into a float once,
correctly rounded, and g, g', g'', p_star_w and the Lipschitz constant all
read those floats.

Every sum of the form sum_a C(m,a) p^a v_a goes through one log-domain
kernel, _composition_sums (rows [log p, 1] times a cached table's exponents,
which end in the log exact multinomials): f, its gradient and Hessian at
any P, and the Bernstein basis of g as the q = 2 case.  Many rows of f's
derivatives over a large A_{q,m} (the Schur certificate's samples) take
_head_tail_sums instead: a = (b, c) splits into head and tail counts, so
C(m,a) p^a factors into a head term times a tail term and the exponentials
run over the two half-alphabet tables, not over A_{q,m}; _takes_head_tail
picks the kernel from the input's size alone.  The numerical certificates
(Schur, convexity, monotonicity) evaluate these closed forms on grids or
sampled distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .compositions import (CompositionTable, _HeadTailLayout, _head_tail_layout, _takes_head_tail,
                           _top_ell_plus_unit, _top_ell_table, composition_table)
from .exact import _slice_numerators
from .params import Params, _at_least, _finite_nonnegative, _list_shape, _unit, _whole

__all__ = [
    "ConvexityCertificate",
    "Distribution",
    "G_ell",
    "MonotonicityCertificate",
    "SchurCertificate",
    "SlicedDistribution",
    "certify_convexity",
    "certify_monotonicity_g",
    "certify_schur",
    "f",
    "f_gradient",
    "f_hessian",
    "g",
    "g_prime",
    "g_second",
    "lipschitz_g",
    "schur_ostrowski_value",
]

PROB_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Probability vector over {1,...,q}; validates to within 1e-12."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        ps = tuple(float(p) for p in self.probs)
        if len(ps) < 2:
            raise ValueError("need at least a binary alphabet")
        if not all(p >= -PROB_TOL for p in ps):
            raise ValueError(f"negative or NaN probability in {ps}")
        if not abs(math.fsum(ps) - 1.0) <= PROB_TOL:
            raise ValueError(f"probabilities sum to {math.fsum(ps)!r}, not 1")
        object.__setattr__(self, "probs", tuple(max(p, 0.0) for p in ps))

    @classmethod
    def uniform(cls, q: int) -> "Distribution":
        return cls((1.0 / q,) * q)

    @property
    def q(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.array(self.probs, dtype=np.float64)


@dataclass(frozen=True)
class SlicedDistribution:
    """Two-block law: w/(q-ell) on symbols 1..q-ell, (1-w)/ell on the rest."""

    q: int
    ell: int
    w: float

    def __post_init__(self) -> None:
        for name, value in zip(("q", "ell"), _list_shape(self.q, self.ell)):
            object.__setattr__(self, name, value)
        _unit("w", self.w)

    def distribution(self) -> Distribution:
        return Distribution(_sliced_probs(self.q, self.ell, self.w))


def _sliced_probs(q: int, ell: int, w: float) -> tuple[float, ...]:
    head = w / (q - ell)
    tail = (1.0 - w) / ell
    return (head,) * (q - ell) + (tail,) * ell


DistLike = Union[Distribution, Sequence[float], np.ndarray]


def _prob_vector(q: int, dist: DistLike) -> np.ndarray:
    """Coerce to a length-q non-negative vector.

    The sum is deliberately not checked: the closed forms are polynomials
    and callers (finite-difference checks in particular) evaluate them
    slightly off the simplex.
    """
    if isinstance(dist, Distribution):
        p = dist.as_array()
    else:
        p = np.asarray(dist, dtype=np.float64)
    if p.shape != (q,):
        raise ValueError(f"need a length-{q} vector, got shape {p.shape}")
    if not np.all(p >= -PROB_TOL):  # NaN fails too, as log p would floor it to log 0
        raise ValueError("negative or NaN entries in probability vector")
    return np.clip(p, 0.0, None)


_BLOCK = 1 << 16  # array elements per chunk of rows in _composition_sums
_LOG_ZERO = -1e300  # stands in for log 0: a * _LOG_ZERO sends p^a to 0 for a >= 1, to 1 for a = 0


def _composition_sums(tbl: CompositionTable, log_p: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_a C(m,a) p^a values_a over the table's A_{q,m}, for every row [log p, 1] of log_p.

    Each term is exp([log p, 1] . [a, log C(m,a)]), a column of the table's
    exponents, so neither C(m,a) nor p^a overflows or underflows for m in the
    thousands.  Rows go in chunks of at most _BLOCK terms (one row if it has
    more), so no (rows, |A_{q,m}|) array is built at once; every chunk forms
    and exponentiates its terms in place in one buffer allocated per call.
    """
    n, step = len(log_p), max(1, _BLOCK // len(values))
    if n <= step:  # one chunk: the first product is the buffer
        terms = log_p @ tbl.exponents
        return np.exp(terms, out=terms) @ values
    out = np.empty((n,) + values.shape[1:], dtype=np.float64)
    buf = np.empty((step, len(values)), dtype=np.float64)
    for i in range(0, n, step):
        terms = buf[: min(step, n - i)]
        np.matmul(log_p[i : i + step], tbl.exponents, out=terms)
        np.exp(terms, out=terms)
        np.matmul(terms, values, out=out[i : i + step])
    return out


def _head_tail_sums(layout: _HeadTailLayout, log_p: np.ndarray) -> np.ndarray:
    """_composition_sums over A_{q,m} for the layout's top_ell values, from its heads and tails.

    Per row, exp runs over the heads, X_b = C(m,r) C(m-r,b) p_H^b, and the
    tails, Y_c = C(m,r) C(r,c) p_T^c, not over A_{q,m}; block r adds
    sum_b sum_c X_b Y_c values_(b,c) by one matmul over its larger side and a
    row-wise dot over the smaller.  X and Y are at most C(m,r) <= 2^m, which
    the table budget keeps finite: q >= 4 with m past about 400 is over it.
    Rows go in chunks that keep X, Y and the matmul's output within _BLOCK
    floats, in buffers allocated once per call.
    """
    head, tail, blocks = layout
    q1, cols = len(head) - 1, blocks[0].values.shape[1]  # block r = 0 has one tail, c = 0
    zwidth = max(block.values.shape[1] for block in blocks)
    n, step = len(log_p), max(1, _BLOCK // (head.shape[1] + tail.shape[1] + zwidth))
    ext = np.insert(log_p, q1, 1.0, axis=1)  # [log p_H, 1, log p_T, 1]
    out = np.zeros((n, cols))
    xbuf, ybuf = np.empty((step, head.shape[1])), np.empty((step, tail.shape[1]))
    zbuf = np.empty(step * zwidth)
    for i in range(0, n, step):
        rows, k = slice(i, i + step), min(step, n - i)
        x = np.exp(np.matmul(ext[rows, : q1 + 1], head, out=xbuf[:k]), out=xbuf[:k])
        y = np.exp(np.matmul(ext[rows, q1 + 1 :], tail, out=ybuf[:k]), out=ybuf[:k])
        acc = out[rows]
        for block in blocks:
            big, small = x[:, block.heads], y[:, block.tails]
            if not block.head_major:
                big, small = small, big
            z = np.matmul(big, block.values, out=zbuf[: k * block.values.shape[1]].reshape(k, -1))
            acc += np.matmul(small[:, np.newaxis], z.reshape(k, small.shape[1], cols))[:, 0]
    return out


def _log_probs(ps: np.ndarray) -> np.ndarray:
    """[log p, 1] for every row p of ps, the rows the composition kernels read."""
    log_p = np.full((len(ps), ps.shape[1] + 1), (_LOG_ZERO,) * ps.shape[1] + (1.0,))
    np.log(ps, out=log_p[:, :-1], where=ps > 0.0)
    return log_p


def _f_derivatives(params: Params, ps: np.ndarray, order: int) -> np.ndarray:
    """The order-th derivative of f at every row of ps, flattened to q**order columns.

    d^k f / dp_(j_1)..dp_(j_k) = L!/(L-k)! sum over a in A_{q,L-k} of
    C(L-k,a) p^a top_ell(a + e_(j_1) + ... + e_(j_k)), by the head/tail split
    when _takes_head_tail says it pays, else over the whole table.
    """
    q, ell, m = params.q, params.ell, params.L - order
    log_p = _log_probs(ps)
    if _takes_head_tail(q, m, len(ps)):
        sums = _head_tail_sums(_head_tail_layout(q, ell, m, order), log_p)
    else:
        sums = _composition_sums(composition_table(q, m), log_p, _top_ell_table(q, ell, m, order))
    return math.perm(params.L, order) * sums


def f(params: Params, dist: DistLike) -> float:
    """Expected ell-plurality of L i.i.d. draws from dist."""
    return float(_f_derivatives(params, _prob_vector(params.q, dist)[np.newaxis, :], 0)[0, 0])


def f_gradient(params: Params, dist: DistLike) -> np.ndarray:
    """Gradient of f in P, via the degree-(L-1) closed form."""
    return _f_derivatives(params, _prob_vector(params.q, dist)[np.newaxis, :], 1)[0]


def f_hessian(params: Params, dist: DistLike) -> np.ndarray:
    """Hessian of f in P, via the degree-(L-2) closed form."""
    q = params.q
    return _f_derivatives(params, _prob_vector(q, dist)[np.newaxis, :], 2)[0].reshape(q, q)


def _block_vector(q: int, ell: int) -> np.ndarray:
    """Derivative of the sliced law in w: 1/(q-ell) on the head, -1/ell on the tail."""
    v = np.empty(q, dtype=np.float64)
    v[: q - ell] = 1.0 / (q - ell)
    v[q - ell :] = -1.0 / ell
    return v


@lru_cache(maxsize=None)
def _slice_bernstein(q: int, ell: int, L: int, order: int) -> np.ndarray:
    """Bernstein coefficients of the order-th derivative of g, degree L - order.

    Each is one numerator of exact._slice_numerators over ((q-ell) ell)^L,
    divided once as ints, which Python rounds correctly to the nearest float.
    """
    den = ((q - ell) * ell) ** L
    coef = np.array([b / den for b in _slice_numerators(q, ell, L, order)], dtype=np.float64)
    coef.flags.writeable = False
    return coef


def _slice_values(params: Params, order: int, ws: Sequence[float]) -> np.ndarray:
    """g (order 0), g' (1) or g'' (2) at every w of ws.

    The Bernstein basis C(n,k) w^k (1-w)^(n-k) is the q = 2 composition sum:
    row k of A_{2,n} is (n-k, k), so the kernel reads [log(1-w), log w, 1].
    """
    coef = _slice_bernstein(params.q, params.ell, params.L, order)
    w = np.asarray(ws, dtype=np.float64)
    log_p = np.full((len(w), 3), (_LOG_ZERO, _LOG_ZERO, 1.0))
    np.log1p(-w, out=log_p[:, 0], where=w < 1.0)
    np.log(w, out=log_p[:, 1], where=w > 0.0)
    return _composition_sums(composition_table(2, len(coef) - 1), log_p, coef)


def _slice_value(params: Params, order: int, w: float) -> float:
    """_slice_values at one w, with log p formed from scalars instead of masked arrays.

    The logs stay numpy's: math.log1p differs from np.log1p in the last bit
    for some w, and degree L multiplies that into a 1e-13 relative error.
    """
    _unit("w", w)
    w = float(w)  # as the grid's float64 array would: Fraction and float32 w too
    coef = _slice_bernstein(params.q, params.ell, params.L, order)
    log_p = np.array([[np.log1p(-w) if w < 1.0 else _LOG_ZERO,
                       np.log(w) if w > 0.0 else _LOG_ZERO, 1.0]])
    return float(_composition_sums(composition_table(2, len(coef) - 1), log_p, coef)[0])


def g(params: Params, w: float) -> float:
    """f along the sliced family; g(0) = L, g(w*) = f(uniform)."""
    return _slice_value(params, 0, w)


def g_prime(params: Params, w: float) -> float:
    """First derivative of g; equals <grad f(P_w), dP_w/dw>."""
    return _slice_value(params, 1, w)


def G_ell(params: Params, a: Sequence[int]) -> float:
    """Quadratic form v^T M(a) v with M(a)_{ij} = top_ell(a + e_i + e_j).

    v is the sliced direction (1/(q-ell) head, -1/ell tail).  Not
    sign-definite in general: G_2((1,0,0)) = -1/2 for q=3.
    """
    q, ell = params.q, params.ell
    row = [_at_least("composition entry", x, 0) for x in a]
    if len(row) != q:
        raise ValueError(f"need a length-{q} composition, got {len(row)}")
    M = _top_ell_plus_unit(np.array(row, dtype=np.int64) + np.eye(q, dtype=np.int64), ell)
    v = _block_vector(q, ell)
    return float(v @ M @ v)


def g_second(params: Params, w: float) -> float:
    """Second derivative of g.

    g''(w) = L(L-1) sum_k (beta_{k+2} - 2 beta_{k+1} + beta_k) C(L-2,k) w^k (1-w)^(L-2-k)
    with beta_k the Bernstein coefficients of g.  Matches v^T Hess f(P_w) v.
    """
    return _slice_value(params, 2, w)


def schur_ostrowski_value(params: Params, dist: DistLike, i: int, j: int) -> float:
    """(p_i - p_j)(d_i f - d_j f); non-negative iff the Schur criterion holds at (i,j)."""
    q, i, j = params.q, _whole("i", i), _whole("j", j)
    if not (0 <= i < q and 0 <= j < q) or i == j:
        raise ValueError(f"need distinct indices in 0..{q-1}, got i={i}, j={j}")
    p = _prob_vector(q, dist)
    grad = f_gradient(params, p)
    return float((p[i] - p[j]) * (grad[i] - grad[j]))


# --- certificates ---------------------------------------------------------

CERT_TOL = 1e-9


@dataclass(frozen=True)
class SchurCertificate:
    params: Params
    samples: int
    seed: int
    min_value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.min_value >= -self.tolerance


def certify_schur(
    params: Params, samples: int = 200, seed: int = 1, tolerance: float = CERT_TOL
) -> SchurCertificate:
    """Minimize the Schur-Ostrowski product over sampled distributions.

    Samples are normalized standard exponentials (flat Dirichlet) from a
    seeded PCG64 stream, so certificates are reproducible.
    """
    samples, seed = _at_least("samples", samples, 1), _whole("seed", seed)
    _finite_nonnegative("tolerance", tolerance)
    q = params.q
    # one draw of shape (samples, q) is the same stream as samples draws of q
    e = np.random.default_rng(seed).standard_exponential((samples, q))
    ps = e / e.sum(axis=1, keepdims=True)
    grads = _f_derivatives(params, ps, 1)
    # the product is symmetric in (i, j), so pairs i < j cover every value
    i, j = np.triu_indices(q, 1)
    worst = float(((ps[:, i] - ps[:, j]) * (grads[:, i] - grads[:, j])).min())
    return SchurCertificate(params, samples, seed, worst, tolerance)


@dataclass(frozen=True)
class ConvexityCertificate:
    params: Params
    lo: float
    hi: float
    grid_points: int
    min_value: float
    argmin_w: float
    violations: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def default_interval(params: Params) -> tuple[float, float]:
    """Certification interval: [0,(q-1)/q] for ell = 1, else [0,1].

    The Plotkin reduction evaluates g only on [0, w*], w* = (q-ell)/q: Schur
    convexity compares every column law with the P_w that puts the same
    mass outside its ell most likely symbols, and that mass is at most w*.
    For ell = 1 the default stops at w*; for ell >= 2 it runs to 1, and past
    w* g'' may be negative (g''(1) = -3 for Params(3,2,3)), so a certificate
    on the default interval can FAIL although g is convex on [0, w*].
    """
    if params.ell == 1:
        return (0.0, (params.q - 1) / params.q)
    return (0.0, 1.0)


def certify_convexity(
    params: Params,
    interval: tuple[float, float] | None = None,
    grid_points: int = 1001,
    tolerance: float = CERT_TOL,
) -> ConvexityCertificate:
    """Grid-minimize g'' and count dips below -tolerance."""
    grid_points = _at_least("grid_points", grid_points, 2)
    _finite_nonnegative("tolerance", tolerance)
    lo, hi = interval if interval is not None else default_interval(params)
    if not 0.0 <= lo < hi <= 1.0:
        raise ValueError(f"bad interval [{lo}, {hi}]")
    ws = np.linspace(lo, hi, grid_points)
    vals = _slice_values(params, 2, ws)
    k = int(vals.argmin())
    violations = int((vals < -tolerance).sum())
    return ConvexityCertificate(
        params, lo, hi, grid_points, float(vals[k]), float(ws[k]), violations, tolerance
    )


@dataclass(frozen=True)
class MonotonicityCertificate:
    params: Params
    grid_points: int
    w_star: float
    max_increase_left: float
    max_decrease_right: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.max_increase_left <= self.tolerance
            and self.max_decrease_right <= self.tolerance
        )


def certify_monotonicity_g(
    params: Params, grid_points: int = 1001, tolerance: float = CERT_TOL
) -> MonotonicityCertificate:
    """Check g is non-increasing left of w* = (q-ell)/q and non-decreasing right.

    The grid is linspace(0, 1, grid_points) with w* put in once: any point
    within 1e-15 of w* gives way to w* itself, and the differences split at it.
    """
    grid_points = _at_least("grid_points", grid_points, 3)
    _finite_nonnegative("tolerance", tolerance)
    wstar = params.w_star
    grid = np.linspace(0.0, 1.0, grid_points)
    grid = grid[np.abs(grid - wstar) > 1e-15]  # w* once: no rounding-noise segment beside it
    k = int(np.searchsorted(grid, wstar))
    ws = np.insert(grid, k, wstar)
    diffs = np.diff(_slice_values(params, 0, ws))
    max_inc = float(diffs[:k].max())  # 0 < w* < 1 and 0, 1 stay: neither side is empty
    max_dec = float((-diffs[k:]).max())
    return MonotonicityCertificate(params, len(ws), wstar, max_inc, max_dec, tolerance)


_LIPSCHITZ_GRID = 10_000  # points of the grid lipschitz_g maximizes |g'| over


@lru_cache(maxsize=None)  # Params hashes on (q, ell, L)
def lipschitz_g(params: Params) -> float:
    """max |g'| over the certification interval, on a dense grid."""
    _, hi = default_interval(params)
    ws = np.linspace(0.0, hi, _LIPSCHITZ_GRID)
    return float(np.abs(_slice_values(params, 1, ws)).max())
