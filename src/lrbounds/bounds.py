"""Zero-rate thresholds, rate bounds, entropies, and auxiliary constants.

The sliced threshold comes from the moment functions in analysis; the lower
rate bound is the random-coding exponent obtained by exponential tilting of
the average-radius law, the upper bound is the entropy inversion of the
sliced threshold.  Also here: exact and estimated ball volumes,
covering-size bounds and the explicit list-size constants.  The exact
threshold p*, the radius-law counts, the entropies and the published
comparison curves need no numpy and are defined in exact; they are
imported here under their public names.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .analysis import g, g_prime, lipschitz_g
from .exact import (_entropy, _radius_counts, comparison_gmrsw, comparison_ry_binary4,
                    comparison_ry_qary3, entropy_q, entropy_q_ell, eta_q, zero_rate_threshold)
from .params import Params, _alphabet, _at_least, _finite_nonnegative, _open_unit, _unit, _whole

__all__ = [
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
TILT_BLOCK = 2048  # elements per block of the tilt table's build
EB_W_TOL = 1e-15  # accuracy of the entropy-inversion w
NEWTON_EVALUATIONS = 200  # more than bisection to EB_W_TOL or down to adjacent floats takes
# the lam nodes of the tilt table that brackets lam*: 0, then 127 geometric on
# [1e-3, 1e6 = LAMBDA_CAP], by Python's pow (np.geomspace adds 0.4 MB of RSS at import)
LAMBDA_NODES = np.array([0.0] + [10.0 ** (-3.0 + 9.0 * k / 126) for k in range(127)])
LAMBDA_NODES.flags.writeable = False


# --- thresholds -----------------------------------------------------------


@lru_cache(maxsize=None)
def _radius_law(q: int, ell: int, L: int) -> tuple[np.ndarray, ...]:
    """The law of the radius rho = 1 - t/L as floats, from exact._radius_counts N.

    Returns, on the support of N, rho_t, rho_t^2, rho_t ln q and
    log P(rho_t) = log N_t - L log q: the four vectors a tilt reads.
    """
    N = _radius_counts(q, ell, L)
    ts = [t for t, n in enumerate(N) if n]
    rho = 1.0 - np.array(ts, dtype=np.float64) / L
    log_p = np.array([math.log(N[t]) for t in ts]) - L * math.log(q)
    law = (rho, rho * rho, rho * math.log(q), log_p)
    for arr in law:
        arr.flags.writeable = False
    return law


def p_star_w(params: Params, w: float) -> float:
    """Sliced threshold 1 - g(w)/L; equals zero_rate_threshold at w = (q-ell)/q."""
    return 1.0 - g(params, w) / params.L


# --- tilted average-radius law and the lower bound ------------------------


def _tilt_rows(law: tuple[np.ndarray, ...], lam) -> tuple[Any, Any, Any, Any]:
    """The lam-tilted radius law, one row per lam: a float gives one row, an (n, 1) column n.

    Returns each row's mean and variance of rho, and the max m and sum s of
    its log weights, with log E[q^(-lam rho)] = m + ln s.  The weights are
    tw ~ P(rho_t) q^(-lam rho_t), scaled so each row's largest is 1; each
    row's sums are tw.sum and the matrix-vector products tw @ rho and
    tw @ rho^2, so no multi-row matmul runs.  lam is not checked here.
    """
    rho, rho_sq, rho_lnq, log_p = law
    tw = np.multiply(lam, rho_lnq)  # one buffer: log weights, shifted, then weights
    np.subtract(log_p, tw, out=tw)
    m = tw.max(axis=-1)
    tw -= m[..., None]
    np.exp(tw, out=tw)
    total = tw.sum(axis=-1)
    mean = (tw @ rho) / total
    return mean, (tw @ rho_sq) / total - mean * mean, m, total


def _tilt(params: Params, lam: float) -> tuple[float, float]:
    """Mean of rho under the lam-tilted law and log E[q^(-lam rho)], for a checked lam."""
    _finite_nonnegative("lam", lam)
    # lam*rho*log q overflows to inf where rho > 0 only if lam*log q (a Python
    # float, silently inf) does; -inf is then the exact weight limit, and the
    # rho = 0 atom (N_L >= 1) keeps the row max finite.  errstate costs a
    # sixth of a tilt, so it is entered only then.
    overflows = lam * math.log(params.q) == math.inf
    with np.errstate(over="ignore") if overflows else nullcontext():
        mean, _, m, total = _tilt_rows(_radius_law(params.q, params.ell, params.L), lam)
    return float(mean), float(m) + math.log(float(total))


def mgf(params: Params, lam: float) -> float:
    """E[q^(-lam * rho)] under the uniform tuple law, by log-sum-exp."""
    return math.exp(_tilt(params, lam)[1])


def tilted_mean(params: Params, lam: float) -> float:
    """Mean of rho under the lam-tilted law; decreasing, equals p* at lam = 0."""
    return _tilt(params, lam)[0]


@lru_cache(maxsize=None)
def _tilt_table(q: int, ell: int, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tilted law at the fixed lam of LAMBDA_NODES, built in blocks of about TILT_BLOCK elements.

    Returns the nodes lam_i, -ln mean_i (ascending, +inf where the mean
    underflows to 0) and the slope d lam / d ln mean = -mean / (ln q Var)
    at each node.
    """
    law, lams = _radius_law(q, ell, L), LAMBDA_NODES
    mean, var = np.empty_like(lams), np.empty_like(lams)
    rows = max(1, TILT_BLOCK // law[0].size)
    for i in range(0, lams.size, rows):
        mean[i:i + rows], var[i:i + rows], _, _ = _tilt_rows(law, lams[i:i + rows, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (lams, -np.log(mean), -mean / (math.log(q) * var))
    for arr in table[1:]:
        arr.flags.writeable = False
    return table


def _lambda_start(params: Params, ln_p: float) -> tuple[float, float, float]:
    """Bracket [lo, hi] of lam* and a start inside it, from the cached tilt table.

    One searchsorted finds the nodes with mean_lo > p >= mean_hi (clamped to
    the first or last pair, where rounding puts p past p* or the cap's mean
    is still above p); the start is the inverse cubic Hermite interpolant of
    lam in ln mean through both nodes, or the left node's tangent, or the
    bracket's midpoint, whichever first lands inside the bracket.
    """
    lams, neg_ln_mean, slope = _tilt_table(params.q, params.ell, params.L)
    i = min(max(int(neg_ln_mean.searchsorted(-ln_p)), 1), lams.size - 1)
    lo, hi = lams.item(i - 1), lams.item(i)
    u0, d0, d1 = -neg_ln_mean.item(i - 1), slope.item(i - 1), slope.item(i)
    h = -neg_ln_mean.item(i) - u0  # ln mean_hi - ln mean_lo < 0; -inf if mean_hi = 0
    s = min(max((ln_p - u0) / h, 0.0), 1.0)
    x = (1.0 + 2.0 * s) * (1.0 - s) ** 2 * lo + s * s * (3.0 - 2.0 * s) * hi + (
        s * (1.0 - s) * h * ((1.0 - s) * d0 - s * d1))
    if not lo <= x <= hi:  # NaN too: mean_hi = 0, or a slope that is not finite
        x = lo + d0 * (ln_p - u0)
        if not lo <= x <= hi:
            x = 0.5 * (lo + hi)
    return lo, hi, x


def _rate_at_zero(params: Params) -> float:
    # N_L counts the L-tuples whose symbols fit inside some ell-subset
    s = _radius_counts(params.q, params.ell, params.L)[params.L]
    return (params.L - math.log(s) / math.log(params.q)) / (params.L - 1)


@dataclass(frozen=True)
class FixedPointResult:
    """Solution of tilted_mean(lam) = p.

    iterations counts the tilts the solve evaluates after the cached tilt
    table (0 at p = 0; the table's own tilts, paid once per (q, ell, L), are
    not counted).
    lambda_star is math.inf when p = 0, or when the tilted mean at the cap
    1e6 is still above p (at (2,1,1100) it is 2.2e-274); then the rate is the
    exact lam -> inf limit and residual the limiting gap p - 0.
    """

    lambda_star: float
    rate: float
    iterations: int
    residual: float


def _below_threshold(params: Params, p: float) -> float:
    """p* of params, or ValueError unless 0 <= p < p*."""
    pstar = zero_rate_threshold(params)
    if not 0.0 <= p < pstar:
        raise ValueError(f"need 0 <= p < p* = {pstar}, got {p}")
    return pstar


def _safeguarded_newton(
    fn: Callable[[float], tuple[float, float, bool, Any]], lo: float, hi: float, x: float,
    xtol: float = 0.0,
) -> tuple[float, Any, int]:
    """Root of a residual that decreases on [lo, hi], by Newton steps kept inside a bracket.

    fn(x) evaluates once and returns (residual, slope, done, value); done says
    x meets the caller's stopping rule.  The residual's sign moves lo or hi
    to x.  The Newton step x - residual/slope is taken when slope < 0 and it
    lands strictly inside [lo, hi]; a step at or past an hi never evaluated
    goes to hi, so that end is evaluated at most once; any other step bisects,
    geometrically when lo > 0 and hi > 4 lo, else arithmetically (the
    "rtsafe" hybrid of Numerical Recipes).  Returns (x, value, evaluations)
    of the first done iterate, or of the best one once hi - lo < xtol, and
    raises ArithmeticError after NEWTON_EVALUATIONS evaluations without either.
    """
    hi_open = True
    best = (math.inf, x, None)
    for evaluations in range(1, NEWTON_EVALUATIONS + 1):
        r, slope, done, value = fn(x)
        if done:
            return x, value, evaluations
        if abs(r) <= best[0]:
            best = (abs(r), x, value)
        if r > 0.0:
            lo = x
        else:
            hi, hi_open = x, False
        if hi - lo < xtol:
            return best[1], best[2], evaluations
        step = x - r / slope if slope < 0.0 else math.nan
        if lo < step < hi:
            x = step
        elif step >= hi and hi_open:
            x = hi
        elif lo > 0.0 and hi > 4.0 * lo:
            x = math.sqrt(lo * hi)
        else:
            x = 0.5 * (lo + hi)
    raise ArithmeticError(f"Newton inversion stalled at residual {best[0]:.3e}")


def solve_lambda_star(params: Params, p: float) -> FixedPointResult:
    """lam* with tilted_mean(lam*) = p to residual <= min(1e-10, 1e-6 p), by safeguarded Newton.

    Newton runs on ln tilted_mean(lam) - ln p, with slope
    -ln q Var_lam(rho) / mean, inside the bracket of two adjacent nodes of
    the cached tilt table and from its inverse Hermite start
    (_lambda_start); mean, variance and log E[q^(-lam rho)] all come from
    one tilt of the radius law.  About 2 tilts per point, at most 3 on the
    grid p* k/64; when the cap's mean is still above p the start is the cap,
    evaluated once.
    """
    _below_threshold(params, p)
    if p == 0.0:
        return FixedPointResult(math.inf, _rate_at_zero(params), 0, 0.0)

    law = _radius_law(params.q, params.ell, params.L)
    lnq, ln_p = math.log(params.q), math.log(p)
    tol = min(LAMBDA_RESIDUAL, LAMBDA_RELATIVE * p)

    def log_residual(lam: float):
        mean, var, m, total = _tilt_rows(law, lam)
        mean, log_z = float(mean), float(m) + math.log(float(total))
        gap = mean - p
        done = abs(gap) <= tol or (lam >= LAMBDA_CAP and gap > 0.0)
        if not mean > 0.0:  # every weight off rho = 0 underflowed
            return -math.inf, math.nan, done, (gap, log_z)
        return math.log(mean) - ln_p, -lnq * float(var) / mean, done, (gap, log_z)

    try:
        lam, (gap, log_z), evaluations = _safeguarded_newton(
            log_residual, *_lambda_start(params, ln_p))
    except ArithmeticError as exc:
        raise ArithmeticError(f"lambda* {exc} for p={p}") from None
    if gap > tol:  # still above p at the cap
        return FixedPointResult(math.inf, _rate_at_zero(params), evaluations, p)
    exponent = -lam * p - log_z / lnq
    rate = max(0.0, exponent / (params.L - 1))
    return FixedPointResult(lam, rate, evaluations, abs(gap))


def lower_bound_rate(params: Params, p: float) -> float:
    """Random-coding rate bound; positive below p*, exactly 0 from p* on."""
    _unit("p", p)
    if p >= zero_rate_threshold(params):
        return 0.0
    return solve_lambda_star(params, p).rate


# --- Elias-Bassalygo style upper bound ------------------------------------


def eb_upper_bound_rate(params: Params, p: float) -> float:
    """Entropy inversion of the sliced threshold on [0, (q-ell)/q].

    Defined for 0 <= p < p*; at p = 0 the exact endpoint log_q(q/ell) is
    returned (w = 0).  w solves g(w) = L(1 - p), i.e. p_star_w(w) = p, to
    1e-15 by safeguarded Newton with slope g'(w) (where g' >= 0 it bisects).
    It starts from the root of the quadratic model of g with g(0) = L,
    g(w*) = L(1 - p*) and g'(w*) = 0, and takes about 4-6 evaluations of g
    and g' per point.
    """
    pstar = _below_threshold(params, p)
    if p == 0.0:
        return 1.0 - math.log(params.ell) / math.log(params.q)
    target = params.L * (1.0 - p)

    def residual(w: float):
        r, slope = g(params, w) - target, g_prime(params, w)
        return r, slope, abs(r) <= -EB_W_TOL * slope, None

    # root of the quadratic through g(0) = L, g(w*) = L(1 - p*) with g'(w*) = 0
    x = p / pstar
    start = params.w_star * x / (1.0 + math.sqrt(1.0 - x))
    w = _safeguarded_newton(residual, 0.0, params.w_star, start, EB_W_TOL)[0]
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
    _open_unit("tau", tau)
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
    _open_unit("tau", tau)
    base = 4.0 * lipschitz_g(params) / (params.L * tau) + 1.0
    return params.q * base if params.ell == 1 else base


# --- volumes and covering sizes --------------------------------------------


def _ball_volume(q: int, ell: int, n: int, radius: int) -> int:
    n, radius = _at_least("n", n, 0), _at_least("radius", radius, 0)
    r = min(radius, n)
    return sum(math.comb(n, i) * (q - ell) ** i * ell ** (n - i) for i in range(r + 1))


def ball_volume(q: int, n: int, radius: int) -> int:
    """Exact Hamming ball volume sum_{i<=r} C(n,i)(q-1)^i."""
    return _ball_volume(_alphabet(q), 1, n, radius)


def lr_ball_volume(params: Params, n: int, radius: int) -> int:
    """Exact volume of the lr-ball around an input-list tuple."""
    return _ball_volume(params.q, params.ell, n, radius)


def _volume_bounds(q: int, ell: int, n: int, w: float) -> tuple[float, float]:
    n = _whole("n", n)
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
    return _volume_bounds(_alphabet(q), 1, n, w)


def lr_ball_volume_bounds(params: Params, n: int, w: float) -> tuple[float, float]:
    """Entropy sandwich for the radius-nw lr-ball, valid for 1 <= nw <= n-1."""
    return _volume_bounds(params.q, params.ell, n, w)


def _covering_size(q: int, ell: int, n: int, w: float) -> float:
    n = _at_least("n", n, 2)
    _open_unit("w", w)
    return n * math.log(q) * math.sqrt(8.0 * n * w * (1.0 - w)) * float(q) ** (
        n * (1.0 - _entropy(q, ell, w))
    ) + 1.0


def covering_size_bound(q: int, n: int, w: float) -> float:
    """Greedy covering-code size: n ln(q) sqrt(8 n w (1-w)) q^{n(1-H_q(w))} + 1."""
    return _covering_size(_alphabet(q), 1, n, w)


def covering_size_bound_lr(params: Params, n: int, w: float) -> float:
    """Greedy cover of [q]^n by lr-balls around input-list tuples."""
    return _covering_size(params.q, params.ell, n, w)
