"""Seeded request generation for the lrbounds benchmark.

Every workload draws its Params from one shared pool.  The composition of a
session (how many requests of each kind on each Params) is fixed, so runs
with different seeds do the same amount of work; the seed picks the order,
the grid points (stratified over the grid p*·k/N), which session each
request falls in, curve point counts and oracle seeds.  The program under
test only ever sees the generated inputs.

The timed phase plays the plan PASSES times, each pass in its own seeded
order, so each request is timed at several points of the run and its
latency is the median of its timings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

GRID = 64  # p = p*·k/GRID, w = k/GRID

POOL = [
    (2, 1, 3), (3, 1, 5), (4, 2, 6), (5, 2, 8), (6, 3, 8), (8, 2, 10),  # ROADMAP range
    (3, 2, 3),  # certificate FAILs by design: 2·ell > q
    (2, 1, 300), (3, 1, 300),  # large L
    (2, 1, 1100),  # multinomials overflow float
]
ROADMAP_RANGE = POOL[:6]
RY_QARY_QS = (3, 4, 8)

# Params behind each comparison curve; its p* bounds the curve's p grid.
COMPARISON_PARAMS = {"gmrsw": (2, 1, 3), "ry-binary-4": (2, 1, 4)}

# Certificates at (3,1,300) take ~5 s warm and at (2,1,1100) only repeat the
# overflow already counted by the upper-bound points; the Lipschitz constant
# behind plotkin/unconstrained overflows float(q)**(4L-2) for L = 300.
CERT_PARAMS = ROADMAP_RANGE + [(3, 2, 3), (2, 1, 300)]
CONSTANT_PARAMS = ROADMAP_RANGE + [(3, 2, 3)]
TAUS = (0.25, 0.5, 0.75)
EPS1S = (1e-4, 1e-3)
CURVE_POINTS = (8, 10, 12)
MC_SAMPLES = (4000, 8000)
EXPURGATE = {(2, 1, 3): (10, 0.4)}  # n, rate: 2^10 centers for the exhaustive check

# Per session: (kind, Params, count).  lib-* counts are per Params.
LIB_RATES = [("lower", P, 6) for P in POOL] + [
    ("ry-binary-4", None, 4),
    *[("ry-qary-3", q, 4) for q in RY_QARY_QS],
    ("gmrsw", None, 4),
]
LIB_SLICED = (
    [(k, P, 1) for P in CERT_PARAMS
     for k in ("certify_schur", "certify_convexity", "certify_monotonicity_g")]
    + [("upper", P, 4) for P in POOL]
    + [("p_star_w", P, 4) for P in POOL]
    + [(k, P, 2) for P in CONSTANT_PARAMS for k in ("plotkin", "unconstrained")]
)
CLI_COLD = (
    [("threshold", P, 1) for P in [(2, 1, 3), (8, 2, 10), (3, 2, 3), (3, 1, 300), (2, 1, 1100)]]
    + [("curve:lower", P, 1) for P in [(3, 1, 5), (8, 2, 10), (2, 1, 1100)]]
    + [("curve:upper", P, 1) for P in [(5, 2, 8), (2, 1, 300), (2, 1, 1100)]]
    + [("curve:gmrsw", None, 1), ("curve:ry-binary-4", None, 1), ("curve:ry-qary-3", None, 1)]
    + [("certify", P, 1) for P in [(5, 2, 8), (3, 2, 3)]]
    + [("mc", P, 1) for P in [(5, 2, 8), (2, 1, 300)]]
    + [("expurgate", (2, 1, 3), 1)]
)
SESSIONS = {"lib-rates": LIB_RATES, "lib-sliced": LIB_SLICED, "cli-cold": CLI_COLD}

# Seconds one pass over one session took on 2 cores when the benchmark was
# defined.  The number of sessions in a run follows from --seconds, these
# constants and PASSES, never from a measurement, so every commit does the
# same work for the same arguments (at 16 s: 13, 2 and 3 sessions).
NOMINAL_SESSION_S = {"lib-rates": 0.41, "lib-sliced": 2.8, "cli-cold": 5.7}
# Timings per request.  A cli-cold request is a whole process, timed once.
PASSES = {"lib-rates": 3, "lib-sliced": 3, "cli-cold": 1}


def exact_pstar(q: int, ell: int, L: int) -> Fraction:
    """p* = E[L - top_ell(a)] / L under the uniform law, by stars and bars."""
    total = 0
    for bars in combinations(range(L + q - 1), q - 1):
        parts, prev = [], -1
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(L + q - 2 - prev)
        coef, rest = 1, L
        for a in parts:
            coef *= math.comb(rest, a)
            rest -= a
        total += coef * (L - sum(sorted(parts, reverse=True)[:ell]))
    return Fraction(total, L * q**L)


def pstar_table() -> dict[tuple[int, int, int], Fraction]:
    keys = set(POOL) | set(COMPARISON_PARAMS.values()) | {(q, 1, 3) for q in RY_QARY_QS}
    return {P: exact_pstar(*P) for P in sorted(keys)}


def grid_p(pstar: Fraction, k: int) -> float:
    return float(pstar * k / GRID)


def sessions_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (NOMINAL_SESSION_S[workload] * PASSES[workload])))


def _strata(rng: random.Random, count: int, hi: int) -> list[int]:
    """count draws from range(hi), one per stratum of equal width."""
    return [int((i + rng.random()) * hi / count) for i in range(count)]


def _cycle(rng: random.Random, options, count: int) -> list:
    """count picks that use every option equally often, in seeded order."""
    order = list(options)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def _requests(kind: str, P, count: int, rng: random.Random, pstars) -> list[dict]:
    """The count requests of one (kind, Params) group over a whole run."""
    if kind in ("lower", "upper"):
        return [{"kind": kind, "params": P, "k": k, "p": grid_p(pstars[P], k)}
                for k in _strata(rng, count, GRID)]
    if kind in ("ry-binary-4", "gmrsw"):
        ps = pstars[COMPARISON_PARAMS[kind]]
        return [{"kind": kind, "k": k, "p": grid_p(ps, k)} for k in _strata(rng, count, GRID)]
    if kind == "ry-qary-3":
        ps = pstars[(P, 1, 3)]
        return [{"kind": kind, "q": P, "k": k, "p": grid_p(ps, k)}
                for k in _strata(rng, count, GRID)]
    if kind == "p_star_w":
        return [{"kind": kind, "params": P, "k": k, "w": k / GRID}
                for k in _strata(rng, count, GRID + 1)]
    if kind == "plotkin":
        return [{"kind": kind, "params": P, "tau": tau, "eps1": eps1} for tau, eps1 in
                zip(_cycle(rng, TAUS, count), _cycle(rng, EPS1S, count))]
    if kind == "unconstrained":
        return [{"kind": kind, "params": P, "tau": tau} for tau in _cycle(rng, TAUS, count)]
    if kind.startswith("certify_") or kind in ("threshold", "certify"):
        return [{"kind": kind, "params": P} for _ in range(count)]
    if kind.startswith("curve:"):
        curve = kind.split(":", 1)[1]
        reqs = [{"kind": "curve", "curve": curve, "points": n}
                for n in _cycle(rng, CURVE_POINTS, count)]
        for req, q in zip(reqs, _cycle(rng, RY_QARY_QS, count)):
            if P is not None:
                req["params"] = P
            if curve == "ry-qary-3":
                req["q"] = q
        return reqs
    if kind == "mc":
        return [{"kind": "mc", "params": P, "samples": n, "seed": rng.randrange(1, 10**6)}
                for n in _cycle(rng, MC_SAMPLES, count)]
    if kind == "expurgate":
        n, rate = EXPURGATE[P]
        # p in the upper half of [0, p*), where expurgation removes words
        return [{"kind": "expurgate", "params": P, "k": k, "p": grid_p(pstars[P], k),
                 "n": n, "rate": rate, "seed": rng.randrange(1, 10**6)}
                for k in (GRID // 2 + k for k in _strata(rng, count, GRID // 2))]
    raise ValueError(f"unknown request kind {kind!r}")


def make_plan(workload: str, seed: int, seconds: float, pstars=None) -> list[dict]:
    """The seeded request list: whole sessions, each shuffled on its own.

    Grid points are stratified over the whole run, not per session, so runs
    with different seeds ask for nearly the same set of points.  Every
    request carries 'session' and 'id'.  On cli-cold an expurgate request is
    followed directly by the 'check' of the code it saves.
    """
    if workload not in SESSIONS:
        raise ValueError(f"unknown workload {workload!r}")
    pstars = pstar_table() if pstars is None else pstars
    rng = random.Random(f"{workload}:{seed}")
    sessions = sessions_for(workload, seconds)
    per_session: list[list[dict]] = [[] for _ in range(sessions)]
    for kind, P, count in SESSIONS[workload]:
        group = _requests(kind, P, count * sessions, rng, pstars)
        rng.shuffle(group)
        for i, req in enumerate(group):
            per_session[i % sessions].append(req)
    plan: list[dict] = []
    for s, reqs in enumerate(per_session):
        rng.shuffle(reqs)
        for req in reqs:
            follow = []
            if req["kind"] == "expurgate":
                req["code"] = f"code_{len(plan)}.txt"
                follow = [dict(req, kind="check")]
            for r in [req] + follow:
                r["session"] = s
                r["id"] = len(plan)
                plan.append(r)
    return plan


def pass_orders(plan: list[dict], workload: str, seed: int) -> list[list[int]]:
    """Request ids in the order each pass plays them.

    The first pass plays the plan as generated; every later pass plays the
    sessions in turn, each in a fresh seeded order.  A 'check' stays right
    behind the expurgate request that saves its code.
    """
    units: list[list[int]] = []
    for req in plan:
        if req["kind"] == "check":
            units[-1].append(req["id"])
        else:
            units.append([req["id"]])
    session = {req["id"]: req["session"] for req in plan}
    orders = [[req["id"] for req in plan]]
    for n in range(1, PASSES[workload]):
        rng = random.Random(f"{workload}:{seed}:pass{n}")
        by_session: dict[int, list[list[int]]] = {}
        for unit in units:
            by_session.setdefault(session[unit[0]], []).append(unit)
        order: list[int] = []
        for s in sorted(by_session):
            group = by_session[s]
            rng.shuffle(group)
            order += [rid for unit in group for rid in unit]
        orders.append(order)
    return orders


def params_key(req: dict) -> str:
    """Label of a request's kind and Params, for per-kind counts."""
    kind = req["kind"] if req["kind"] != "curve" else "curve:" + req["curve"]
    if "params" in req:
        return f"{kind}({','.join(map(str, req['params']))})"
    if "q" in req:
        return f"{kind}(q={req['q']})"
    return kind
