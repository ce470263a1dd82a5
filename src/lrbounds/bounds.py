"""Zero-rate thresholds, rate bounds, entropies, and auxiliary constants.

The threshold p* and its sliced generalization come from the moment
functions in analysis; the lower rate bound is the random-coding exponent
obtained by exponential tilting of the average-radius law, the upper bound
is the entropy inversion of the sliced threshold.  Also here: exact and
estimated ball volumes, covering-size bounds, the explicit list-size
constants, and published comparison curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .analysis import g, lipschitz_g
from .compositions import _orbits
from .params import Params

__all__ = [
    "BoundCurve",
    "FixedPointResult",
    "PlotkinConstants",
    "ball_volume",
    "ball_volume_bounds",
    "comparison_gmrsw",
    "comparison_ry_binary4",
    "comparison_ry_qary3",
    "covering_size_bound",
    "covering_size_bound_lr",
    "eb_upper_bound_rate",
    "entropy_q",
    "entropy_q_ell",
    "eta_q",
    "lower_bound_rate",
    "lr_ball_volume",
    "lr_ball_volume_bounds",
    "mgf",
    "p_star_w",
    "plotkin_constants",
    "solve_lambda_star",
    "tilted_mean",
    "unconstrained_multiplier",
    "zero_rate_threshold",
]

LAMBDA_CAP = 1e6
LAMBDA_RESIDUAL = 1e-10
LAMBDA_RELATIVE = 1e-6  # residual bound relative to p, for p below 1e-4


# --- thresholds -----------------------------------------------------------


@lru_cache(maxsize=None)
def _radius_law(q: int, ell: int, L: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Exact N_t = #{x in [q]^L with top_ell t}, the law of the radius rho = 1 - t/L.

    Returns N and, on its support, rho_t and log P(rho_t) = log N_t - L log q.
    """
    N = [0] * (L + 1)
    for a, n in _orbits(q, L):
        N[sum(a[:ell])] += n
    ts = [t for t, n in enumerate(N) if n]
    rho = 1.0 - np.array(ts, dtype=np.float64) / L
    log_p = np.array([math.log(N[t]) for t in ts]) - L * math.log(q)
    for arr in (rho, log_p):
        arr.flags.writeable = False
    return tuple(N), rho, log_p


@lru_cache(maxsize=None)
def _threshold(q: int, ell: int, L: int) -> float:
    total = L * q**L
    return (total - sum(t * n for t, n in enumerate(_radius_law(q, ell, L)[0]))) / total


def zero_rate_threshold(params: Params) -> float:
    """p*(q, ell, L) = 1 - E[plurality_ell] / L under the uniform law.

    Computed as an exact integer ratio S / (L * q^L), S = L q^L - sum_t t N_t
    with N the radius law (the same integer as sum_s c_s behind g), before
    the single float division.
    """
    return _threshold(params.q, params.ell, params.L)


def p_star_w(params: Params, w: float) -> float:
    """Sliced threshold 1 - g(w)/L; equals zero_rate_threshold at w = (q-ell)/q."""
    return 1.0 - g(params, w) / params.L


# --- entropies ------------------------------------------------------------


def _entropy(q: int, ell: int, w: float) -> float:
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"need w in [0,1], got {w}")
    lnq = math.log(q)
    out = 0.0
    if w > 0.0:
        out += w * math.log((q - ell) / w) / lnq
    if w < 1.0:
        out += (1.0 - w) * math.log(ell / (1.0 - w)) / lnq
    return out


def entropy_q(q: int, w: float) -> float:
    """q-ary entropy; 1 at w = (q-1)/q, 0 at w = 0."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return _entropy(q, 1, w)


def entropy_q_ell(params: Params, w: float) -> float:
    """List-recovery entropy; log_q(ell) at 0, 1 at (q-ell)/q, log_q(q-ell) at 1."""
    return _entropy(params.q, params.ell, w)


# --- tilted average-radius law and the lower bound ------------------------


def _tilt(params: Params, lam: float) -> tuple[np.ndarray, np.ndarray, float]:
    """rho_t, weights proportional to P(rho_t) q^(-lam rho_t), and log E[q^(-lam rho)]."""
    if lam < 0.0:
        raise ValueError(f"need lam >= 0, got {lam}")
    _, rho, log_p = _radius_law(params.q, params.ell, params.L)
    x = log_p - lam * rho * math.log(params.q)
    m = float(x.max())
    tw = np.exp(x - m)
    return rho, tw, m + math.log(float(tw.sum()))


def mgf(params: Params, lam: float) -> float:
    """E[q^(-lam * rho)] under the uniform tuple law, by log-sum-exp."""
    return math.exp(_tilt(params, lam)[2])


def tilted_mean(params: Params, lam: float) -> float:
    """Mean of rho under the lam-tilted law; decreasing, equals p* at lam = 0."""
    rho, tw, _ = _tilt(params, lam)
    return float((tw @ rho) / tw.sum())


def _rate_at_zero(params: Params) -> float:
    # N_L counts the L-tuples whose symbols fit inside some ell-subset
    s = _radius_law(params.q, params.ell, params.L)[0][params.L]
    return (params.L - math.log(s) / math.log(params.q)) / (params.L - 1)


@dataclass(frozen=True)
class FixedPointResult:
    """Solution of tilted_mean(lam) = p.

    lambda_star is math.inf when p = 0, or when the tilted mean at the bracket
    cap 1e6 is still above p (at (2,1,1100) it is 2.2e-274); then the rate is
    the exact lam -> inf limit and residual the limiting gap p - 0.
    """

    lambda_star: float
    rate: float
    iterations: int
    residual: float


def solve_lambda_star(params: Params, p: float) -> FixedPointResult:
    """Bisect the decreasing tilted mean to residual <= min(1e-10, 1e-6 p), unless at the marker."""
    pstar = zero_rate_threshold(params)
    if not 0.0 <= p < pstar:
        raise ValueError(f"need 0 <= p < p* = {pstar}, got {p}")
    if p == 0.0:
        return FixedPointResult(math.inf, _rate_at_zero(params), 0, 0.0)

    lo, hi = 0.0, 1.0
    iterations = 0
    while tilted_mean(params, hi) > p:
        lo, hi = hi, hi * 2.0
        iterations += 1
        if hi > LAMBDA_CAP:
            return FixedPointResult(math.inf, _rate_at_zero(params), iterations, p)

    lam = hi
    residual = abs(tilted_mean(params, lam) - p)
    tol = min(LAMBDA_RESIDUAL, LAMBDA_RELATIVE * p)
    while residual > tol and iterations < 500:
        mid = 0.5 * (lo + hi)
        r = tilted_mean(params, mid) - p
        if abs(r) <= residual:
            lam, residual = mid, abs(r)
        if r > 0.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    if residual > tol:
        raise ArithmeticError(
            f"lambda* bisection stalled at residual {residual:.3e} for p={p}"
        )
    lnq = math.log(params.q)
    exponent = -lam * p - _tilt(params, lam)[2] / lnq
    rate = max(0.0, exponent / (params.L - 1))
    return FixedPointResult(lam, rate, iterations, residual)


def lower_bound_rate(params: Params, p: float) -> float:
    """Random-coding rate bound; positive below p*, exactly 0 from p* on."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need p in [0,1], got {p}")
    if p >= zero_rate_threshold(params):
        return 0.0
    return solve_lambda_star(params, p).rate


# --- Elias-Bassalygo style upper bound ------------------------------------


def eb_upper_bound_rate(params: Params, p: float) -> float:
    """Entropy inversion of the sliced threshold on [0, (q-ell)/q].

    Defined for 0 <= p < p*; at p = 0 the exact endpoint log_q(q/ell) is
    returned (w = 0).
    """
    pstar = zero_rate_threshold(params)
    if not 0.0 <= p < pstar:
        raise ValueError(f"need 0 <= p < p* = {pstar}, got {p}")
    if p == 0.0:
        return 1.0 - math.log(params.ell) / math.log(params.q)
    lo, hi = 0.0, params.w_star
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if p_star_w(params, mid) < p:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    return max(0.0, 1.0 - entropy_q_ell(params, w))


# --- explicit list-size constants ------------------------------------------


@dataclass(frozen=True)
class PlotkinConstants:
    tau: float
    eps1: float
    lip: float
    log10_c: float
    m0: float


def plotkin_constants(params: Params, tau: float, eps1: float) -> PlotkinConstants:
    """Explicit constants (c, M0) for list sizes at p = (1 - tau) p*.

    c is reported as log10(c).  Requires 0 < tau < 1 and
    0 < eps1 <= L tau / (8 lip(g)).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"need 0 < tau < 1, got {tau}")
    q, ell, L = params.q, params.ell, params.L
    lip = lipschitz_g(params)
    cap = L * tau / (8.0 * lip)
    if not 0.0 < eps1 <= cap * (1.0 + 1e-12):
        raise ValueError(f"need 0 < eps1 <= L*tau/(8*lip) = {cap}, got {eps1}")
    # log10_c = q^L log10(x + 1), x = 6400 L^6 q^(4L-2) / (2 tau^2), and
    # m0_a = 2^11 L^7 q^(2L) / tau^2 + L - 2, both formed from their logs
    log10_x = math.log10(6400.0 * L**6 / (2.0 * tau**2)) + (4 * L - 2) * math.log10(q)
    ln_c = L * math.log(q) + math.log(log10_x + math.log10(1.0 + 10.0**-log10_x))
    field = "log10_c"
    try:  # math.exp raises OverflowError rather than return inf
        log10_c = math.exp(ln_c)
        field = "m0"
        m0_a = math.exp(math.log(2.0**11 * L**7 / tau**2) + 2 * L * math.log(q)) + L - 2
    except OverflowError:
        raise ValueError(f"{field} is not representable as a float") from None
    pstar = zero_rate_threshold(params)
    m0_b = (L - 1) * L * (pstar / ((1.0 / L) * lip * eps1) + 2.0) + 1.0
    return PlotkinConstants(tau, eps1, lip, log10_c, max(m0_a, m0_b))


def unconstrained_multiplier(params: Params, tau: float) -> float:
    """Size factor moving from weight-bounded to arbitrary codes.

    4 lip(g) / (L tau) + 1, with an extra factor q in the ell = 1 case
    (translation classes instead of weight shells).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"need 0 < tau < 1, got {tau}")
    base = 4.0 * lipschitz_g(params) / (params.L * tau) + 1.0
    return params.q * base if params.ell == 1 else base


# --- volumes and covering sizes --------------------------------------------


def ball_volume(q: int, n: int, radius: int) -> int:
    """Exact Hamming ball volume sum_{i<=r} C(n,i)(q-1)^i."""
    if q < 2 or n < 0:
        raise ValueError(f"need q >= 2, n >= 0, got q={q}, n={n}")
    if radius < 0:
        raise ValueError(f"need radius >= 0, got {radius}")
    r = min(radius, n)
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def lr_ball_volume(params: Params, n: int, radius: int) -> int:
    """Exact volume of the lr-ball around an input-list tuple."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if radius < 0:
        raise ValueError(f"need radius >= 0, got {radius}")
    q, ell = params.q, params.ell
    r = min(radius, n)
    return sum(math.comb(n, i) * (q - ell) ** i * ell ** (n - i) for i in range(r + 1))


def _volume_bounds(q: int, ell: int, n: int, w: float) -> tuple[float, float]:
    nw = n * w
    if not (1.0 - 1e-9 <= nw <= n - 1.0 + 1e-9):
        raise ValueError(f"need 1 <= n*w <= n-1, got n*w = {nw}")
    h = _entropy(q, ell, w)
    bulk = float(q) ** (n * h)
    lo = bulk / math.sqrt(8.0 * nw * (1.0 - w))
    hi = nw * bulk
    return lo, hi


def ball_volume_bounds(q: int, n: int, w: float) -> tuple[float, float]:
    """Entropy sandwich for the radius-nw Hamming ball, valid for 1 <= nw <= n-1."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    return _volume_bounds(q, 1, n, w)


def lr_ball_volume_bounds(params: Params, n: int, w: float) -> tuple[float, float]:
    """Entropy sandwich for the radius-nw lr-ball, valid for 1 <= nw <= n-1."""
    return _volume_bounds(params.q, params.ell, n, w)


def covering_size_bound(q: int, n: int, w: float) -> float:
    """Greedy covering-code size: n ln(q) sqrt(8 n w (1-w)) q^{n(1-H_q(w))} + 1."""
    if q < 2 or n < 2:
        raise ValueError(f"need q >= 2, n >= 2, got q={q}, n={n}")
    if not 0.0 < w < 1.0:
        raise ValueError(f"need 0 < w < 1, got {w}")
    return n * math.log(q) * math.sqrt(8.0 * n * w * (1.0 - w)) * float(q) ** (
        n * (1.0 - entropy_q(q, w))
    ) + 1.0


def covering_size_bound_lr(params: Params, n: int, w: float) -> float:
    """Greedy cover of [q]^n by lr-balls around input-list tuples."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < w < 1.0:
        raise ValueError(f"need 0 < w < 1, got {w}")
    return n * math.log(params.q) * math.sqrt(8.0 * n * w * (1.0 - w)) * float(
        params.q
    ) ** (n * (1.0 - entropy_q_ell(params, w))) + 1.0


# --- published comparison curves -------------------------------------------


def eta_q(q: int, xs: Sequence[float]) -> float:
    """sum x_i log_q(1/x_i) + (1 - sum x_i) log_q(1/(1 - sum x_i))."""
    if q < 2:
        raise ValueError(f"need q >= 2, got {q}")
    vals = [float(x) for x in xs]
    if any(x < 0.0 for x in vals):
        raise ValueError(f"need non-negative entries, got {vals}")
    s = math.fsum(vals)
    if s > 1.0 + 1e-12:
        raise ValueError(f"entries sum to {s} > 1")
    lnq = math.log(q)
    out = 0.0
    for x in vals + [max(0.0, 1.0 - s)]:
        if x > 0.0:
            out -= x * math.log(x) / lnq
    return out


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
    if p < 0.0:
        raise ValueError(f"need p >= 0, got {p}")
    # 3 - eta_2(x) - 2 x1 - log2(3) x2 = D(x || (1, 4, 3)/8) / ln 2
    return _divergence_to_cap(4.0, 3.0, 4.0 * p) / (3.0 * math.log(2.0))


def comparison_ry_qary3(q: int, p: float) -> float:
    """q-ary (ell=1, L=3) curve: (1/2) min over the two-weight relaxation."""
    if q < 3:
        raise ValueError(f"need q >= 3, got {q}")
    if p < 0.0:
        raise ValueError(f"need p >= 0, got {p}")
    # 2 - eta_q(x) - log_q(3(q-1)) x1 - log_q((q-1)(q-2)) x2 = D(x || (1, u1, u2)/q^2) / ln q
    u1, u2 = 3.0 * (q - 1), float((q - 1) * (q - 2))
    return _divergence_to_cap(u1, u2, 3.0 * p) / (2.0 * math.log(q))


# --- emitted curves ---------------------------------------------------------


@dataclass(frozen=True)
class BoundCurve:
    """A (p, rate) table with strictly increasing p and non-negative rates."""

    kind: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ps = [p for p, _ in self.points]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("p values must be strictly increasing")
        if any(r < 0.0 for _, r in self.points):
            raise ValueError("rates must be non-negative")
