"""Moment functions of i.i.d. symbol draws and their certificates.

f(params, P) is the expected ell-plurality of L i.i.d. draws from P over
{1,...,q}; its gradient and Hessian come from composition closed forms (one
degree down per derivative, with top_ell(a + e_i [+ e_j]) tables from the
exact kernel in compositions), never from finite differences.

g restricts f to the two-block sliced family P_w that spreads mass w
uniformly over the first q-ell symbols and 1-w over the last ell.  g depends
on w only through how many draws land on each block, so it is a degree-L
polynomial fixed by L+1 exact integers c_s (s draws on the tail block, summed
over pairs of sorted head and tail orbits).  g, g', g'', p* and the Lipschitz
constant all derive from that one vector: its Bernstein coefficients and
their forward differences are taken exactly as Fractions and turned into
floats once.  The numerical certificates (Schur, convexity, monotonicity)
evaluate these closed forms on grids or sampled distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence, Union

import numpy as np

from .compositions import _orbits, _top_ell_plus_unit, composition_table
from .params import Params

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
        if any(p < -PROB_TOL for p in ps):
            raise ValueError(f"negative probability in {ps}")
        if abs(math.fsum(ps) - 1.0) > PROB_TOL:
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
        if self.q < 2 or not 1 <= self.ell <= self.q - 1:
            raise ValueError(f"bad block shape q={self.q}, ell={self.ell}")
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"need w in [0,1], got {self.w}")

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
    if np.any(p < -PROB_TOL):
        raise ValueError("negative entries in probability vector")
    return np.clip(p, 0.0, None)


def _power_products(p: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    # p is one vector or a stack of rows; 0.0 ** 0.0 == 1.0 under numpy, as needed here
    return np.prod(p[..., np.newaxis, :] ** exponents, axis=-1)


def f(params: Params, dist: DistLike) -> float:
    """Expected ell-plurality of L i.i.d. draws from dist."""
    tbl = composition_table(params.q, params.L, params.ell)
    p = _prob_vector(params.q, dist)
    return float(np.dot(tbl.multinomials * tbl.top_ell, _power_products(p, tbl.exponents)))


@lru_cache(maxsize=None)
def _gradient_table(q: int, ell: int, L: int) -> np.ndarray:
    """top_ell(a + e_j) for a in A_{q,L-1}, shape (K, q)."""
    plus = _top_ell_plus_unit(composition_table(q, L - 1, ell).counts, ell).astype(np.float64)
    plus.flags.writeable = False
    return plus


def _gradients(params: Params, ps: np.ndarray) -> np.ndarray:
    """Gradient of f at every row of ps.

    Rows go in chunks whose power products fit in _BERNSTEIN_BLOCK elements;
    each row is contracted alone, so its bits do not depend on the batch.
    """
    q, ell, L = params.q, params.ell, params.L
    tbl = composition_table(q, L - 1, ell)
    plus = _gradient_table(q, ell, L)
    out = np.empty((len(ps), q), dtype=np.float64)
    step = max(1, _BERNSTEIN_BLOCK // tbl.exponents.size)
    for i in range(0, len(ps), step):
        weights = tbl.multinomials * _power_products(ps[i : i + step], tbl.exponents)
        out[i : i + step] = [L * (w @ plus) for w in weights]
    return out


def f_gradient(params: Params, dist: DistLike) -> np.ndarray:
    """Gradient of f in P, via the degree-(L-1) closed form."""
    return _gradients(params, _prob_vector(params.q, dist)[np.newaxis, :])[0]


@lru_cache(maxsize=None)
def _hessian_table(q: int, ell: int, L: int) -> np.ndarray:
    """top_ell(a + e_i + e_j) for a in A_{q,L-2}, shape (K, q, q)."""
    plus1 = composition_table(q, L - 2, ell).counts[:, np.newaxis, :] + np.eye(q, dtype=np.int64)
    plus2 = _top_ell_plus_unit(plus1, ell).astype(np.float64)
    plus2.flags.writeable = False
    return plus2


def f_hessian(params: Params, dist: DistLike) -> np.ndarray:
    """Hessian of f in P, via the degree-(L-2) closed form."""
    q, ell, L = params.q, params.ell, params.L
    tbl = composition_table(q, L - 2, ell)
    plus2 = _hessian_table(q, ell, L)
    p = _prob_vector(q, dist)
    weights = tbl.multinomials * _power_products(p, tbl.exponents)
    return L * (L - 1) * np.einsum("k,kij->ij", weights, plus2)


def _block_vector(q: int, ell: int) -> np.ndarray:
    """Derivative of the sliced law in w: 1/(q-ell) on the head, -1/ell on the tail."""
    v = np.empty(q, dtype=np.float64)
    v[: q - ell] = 1.0 / (q - ell)
    v[q - ell :] = -1.0 / ell
    return v


@lru_cache(maxsize=None)
def _tail_mass_coefficients(q: int, ell: int, L: int) -> tuple[int, ...]:
    """Exact c_s = sum of C(L,a) * top_ell(a) over a in A_{q,L} with tail mass s.

    The tail mass s(a) is the number of draws on the last ell symbols, so
    g(w) = sum_s c_s (w/(q-ell))^(L-s) ((1-w)/ell)^s and sum_s c_s / q^L = f(uniform).
    top_ell is symmetric within each block, so c_s = C(L,s) sum n_h n_t top_ell(h, t)
    over sorted head orbits h of A_{q-ell,L-s} and tail orbits t of A_{ell,s}.
    """
    c = []
    for s in range(L + 1):
        tails = list(_orbits(ell, s))
        total = sum(n_h * n_t * sum(sorted(h + t)[-ell:])
                    for h, n_h in _orbits(q - ell, L - s) for t, n_t in tails)
        c.append(math.comb(L, s) * total)
    return tuple(c)


@lru_cache(maxsize=None)
def _slice_bernstein(q: int, ell: int, L: int, order: int) -> np.ndarray:
    """Bernstein coefficients of the order-th derivative of g, degree L - order.

    beta_k = c_{L-k} / (C(L,k) (q-ell)^k ell^(L-k)) is the mean of top_ell
    given k draws on the head block, so 0 <= beta_k <= L.  Each derivative
    is a forward difference times the degree; both are exact, and only the
    bounded result is rounded to float.
    """
    c = _tail_mass_coefficients(q, ell, L)
    beta = [
        Fraction(c[L - k], math.comb(L, k) * (q - ell) ** k * ell ** (L - k))
        for k in range(L + 1)
    ]
    for _ in range(order):
        beta = [b - a for a, b in zip(beta, beta[1:])]
    scale = math.perm(L, order)
    coef = np.array([float(scale * b) for b in beta], dtype=np.float64)
    coef.flags.writeable = False
    return coef


@lru_cache(maxsize=None)
def _log_binomials(n: int) -> np.ndarray:
    out = np.array([math.log(math.comb(n, k)) for k in range(n + 1)], dtype=np.float64)
    out.flags.writeable = False
    return out


_BERNSTEIN_BLOCK = 1 << 16  # array elements per chunk of w in _bernstein_sum


def _bernstein_sum(coef: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """sum_k coef_k C(n,k) w^k (1-w)^(n-k) at every w, n = len(coef) - 1.

    The basis is formed in the log domain, so neither C(n,k) nor w^k
    overflows or underflows for n in the thousands; w is taken in chunks so
    that no (len(ws), n+1) array is built for large n.
    """
    n = len(coef) - 1
    k = np.arange(n + 1)
    log_binom = _log_binomials(n)
    out = np.empty(len(ws), dtype=np.float64)
    step = max(1, _BERNSTEIN_BLOCK // (n + 1))
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at w = 0 or 1
        for i in range(0, len(ws), step):
            w = ws[i : i + step, np.newaxis]
            head = k * np.log(w)
            tail = (n - k) * np.log1p(-w)
            head[:, 0] = 0.0  # w^0 = 1, also at w = 0
            tail[:, n] = 0.0
            out[i : i + step] = np.exp(log_binom + head + tail) @ coef
    return out


def _slice_values(params: Params, order: int, ws: Sequence[float]) -> np.ndarray:
    """g (order 0), g' (1) or g'' (2) at every w of ws."""
    coef = _slice_bernstein(params.q, params.ell, params.L, order)
    return _bernstein_sum(coef, np.asarray(ws, dtype=np.float64))


def _check_w(w: float) -> None:
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"need w in [0,1], got {w}")


def g(params: Params, w: float) -> float:
    """f along the sliced family; g(0) = L, g(w*) = f(uniform)."""
    _check_w(w)
    return float(_slice_values(params, 0, [w])[0])


def g_prime(params: Params, w: float) -> float:
    """First derivative of g; equals <grad f(P_w), dP_w/dw>."""
    _check_w(w)
    return float(_slice_values(params, 1, [w])[0])


def G_ell(params: Params, a: Sequence[int]) -> float:
    """Quadratic form v^T M(a) v with M(a)_{ij} = top_ell(a + e_i + e_j).

    v is the sliced direction (1/(q-ell) head, -1/ell tail).  Not
    sign-definite in general: G_2((1,0,0)) = -1/2 for q=3.
    """
    q, ell = params.q, params.ell
    row = [int(x) for x in a]
    if len(row) != q:
        raise ValueError(f"need a length-{q} composition, got {len(row)}")
    if any(x < 0 for x in row):
        raise ValueError("composition entries must be non-negative")
    M = _top_ell_plus_unit(np.array(row, dtype=np.int64) + np.eye(q, dtype=np.int64), ell)
    v = _block_vector(q, ell)
    return float(v @ M @ v)


def g_second(params: Params, w: float) -> float:
    """Second derivative of g.

    g''(w) = L(L-1) sum_k (beta_{k+2} - 2 beta_{k+1} + beta_k) C(L-2,k) w^k (1-w)^(L-2-k)
    with beta_k the Bernstein coefficients of g.  Matches v^T Hess f(P_w) v.
    """
    _check_w(w)
    return float(_slice_values(params, 2, [w])[0])


def schur_ostrowski_value(params: Params, dist: DistLike, i: int, j: int) -> float:
    """(p_i - p_j)(d_i f - d_j f); non-negative iff the Schur criterion holds at (i,j)."""
    q = params.q
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
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    q = params.q
    # one draw of shape (samples, q) is the same stream as samples draws of q
    e = np.random.default_rng(seed).standard_exponential((samples, q))
    ps = e / e.sum(axis=1, keepdims=True)
    grads = _gradients(params, ps)
    # the product is symmetric in (i, j), so pairs i < j cover every value
    worst = min(
        float(((ps[:, i] - ps[:, j]) * (grads[:, i] - grads[:, j])).min())
        for i, j in combinations(range(q), 2)
    )
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
    if grid_points < 2:
        raise ValueError(f"need grid_points >= 2, got {grid_points}")
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
    """Check g is non-increasing left of w* = (q-ell)/q and non-decreasing right."""
    if grid_points < 3:
        raise ValueError(f"need grid_points >= 3, got {grid_points}")
    wstar = params.w_star
    ws = np.unique(np.append(np.linspace(0.0, 1.0, grid_points), wstar))
    vals = _slice_values(params, 0, ws)
    diffs = np.diff(vals)
    left = ws[1:] <= wstar + 1e-15
    right = ws[:-1] >= wstar - 1e-15
    max_inc = float(diffs[left].max()) if left.any() else 0.0
    max_dec = float((-diffs[right]).max()) if right.any() else 0.0
    return MonotonicityCertificate(params, len(ws), wstar, max_inc, max_dec, tolerance)


@lru_cache(maxsize=None)
def _lipschitz_cached(q: int, ell: int, L: int, grid_points: int) -> float:
    params = Params(q, ell, L)
    _, hi = default_interval(params)
    ws = np.linspace(0.0, hi, grid_points)
    return float(np.abs(_slice_values(params, 1, ws)).max())


def lipschitz_g(params: Params, grid_points: int = 10_000) -> float:
    """max |g'| over the certification interval, on a dense grid."""
    if grid_points < 2:
        raise ValueError(f"need grid_points >= 2, got {grid_points}")
    return _lipschitz_cached(params.q, params.ell, params.L, grid_points)
