"""Brute-force reference implementations used as test oracles.

Everything here trades speed for obviousness: direct enumeration over
[q]^L or the whole code space, factorial formulas, finite differences.
Deliberately independent of the library internals.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

# (q, ell, L) of the benchmark pool: the ROADMAP range, a certificate that
# fails by design, large L, and L = 1100, where multinomials overflow float.
POOL_TRIPLES = [(2, 1, 3), (3, 1, 5), (4, 2, 6), (5, 2, 8), (6, 3, 8), (8, 2, 10),
                (3, 2, 3), (2, 1, 300), (3, 1, 300), (2, 1, 1100)]


def ref_compositions(q, m):
    """All length-q tuples of nonnegative ints summing to m, as a set.

    Stars-and-bars route: choose q-1 bar positions among m+q-1 slots.
    """
    out = set()
    for bars in itertools.combinations(range(m + q - 1), q - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(m + q - 2 - prev)
        out.add(tuple(parts))
    return out


def ref_multinomial(m, a):
    num = math.factorial(m)
    den = 1
    for ai in a:
        den *= math.factorial(ai)
    return num // den


def ref_top_ell(a, ell):
    return sum(sorted(a, reverse=True)[:ell])


def ref_orbits(q, m):
    """[(a, n)] for the non-increasing a in A_{q,m}, first part descending, as a list.

    n = q!/prod(mult!) * m!/prod(a_i!), with the multinomial as a product of
    math.comb along the recursion and the multiplicities from a Counter.
    """
    def rec(parts, remaining, cap, prefix, n):
        if parts == 1:
            yield prefix + (remaining,), n
            return
        for head in range(min(remaining, cap), -(-remaining // parts) - 1, -1):
            yield from rec(parts - 1, remaining - head, head, prefix + (head,),
                           n * math.comb(remaining, head))

    return [(a, n * (math.factorial(q) // math.prod(map(math.factorial, Counter(a).values()))))
            for a, n in rec(q, m, m, (), 1)]


def ref_tail_mass_coefficients(q, ell, L):
    """c_s = sum of multinomial(L, a) * top_ell(a) over a in A_{q,L} with s draws on the last ell symbols."""
    c = [0] * (L + 1)
    for a in ref_compositions(q, L):
        c[sum(a[q - ell :])] += ref_multinomial(L, a) * ref_top_ell(a, ell)
    return tuple(c)


def ref_slice_fractions(q, ell, L, order):
    """Bernstein coefficients of the order-th derivative of g, as exact Fractions.

    beta_k = c_(L-k) / (C(L,k) (q-ell)^k ell^(L-k)), differenced order times
    and scaled by L!/(L-order)!.
    """
    c = ref_tail_mass_coefficients(q, ell, L)
    beta = [Fraction(c[L - k], math.comb(L, k) * (q - ell) ** k * ell ** (L - k))
            for k in range(L + 1)]
    for _ in range(order):
        beta = [b - a for a, b in zip(beta, beta[1:])]
    return [math.perm(L, order) * b for b in beta]


def ref_slice_bernstein(q, ell, L, order):
    """ref_slice_fractions rounded once to floats."""
    return [float(b) for b in ref_slice_fractions(q, ell, L, order)]


def ref_plurality_count(x):
    return Counter(x).most_common(1)[0][1]


def ref_plurality_ell_count(x, q, ell):
    """Max symbols captured by an ell-subset, by trying every subset."""
    counts = Counter(x)
    best = 0
    for sub in itertools.combinations(range(1, q + 1), ell):
        best = max(best, sum(counts[s] for s in sub))
    return best


def ref_plurality_ell_subset(x, q, ell):
    """Lexicographically smallest maximizing ell-subset."""
    target = ref_plurality_ell_count(x, q, ell)
    counts = Counter(x)
    for sub in itertools.combinations(range(1, q + 1), ell):
        if sum(counts[s] for s in sub) == target:
            return sub
    raise AssertionError("unreachable")


def ref_f(q, ell, L, probs):
    """E[plur_ell(X_1..X_L)] by direct summation over [q]^L."""
    terms = []
    for x in itertools.product(range(1, q + 1), repeat=L):
        pr = 1.0
        for s in x:
            pr *= probs[s - 1]
        terms.append(ref_plurality_ell_count(x, q, ell) * pr)
    return math.fsum(terms)


def _ref_monomials(probs, m):
    """p^e for every e in A_{q,m}; 0.0**0 == 1.0."""
    return {e: math.prod(p**k for p, k in zip(probs, e)) for e in ref_compositions(len(probs), m)}


def ref_f_gradient(q, ell, L, probs):
    """d/dp_j of sum over b in A_{q,L} of multinomial(L, b) p^b top_ell(b), term by term."""
    mono = _ref_monomials(probs, L - 1)
    terms = [[] for _ in range(q)]
    for b in ref_compositions(q, L):
        weight = ref_multinomial(L, b) * ref_top_ell(b, ell)
        for j in range(q):
            if b[j] > 0:
                e = list(b)
                e[j] -= 1
                terms[j].append(weight * b[j] * mono[tuple(e)])
    return np.array([math.fsum(t) for t in terms])


def ref_f_hessian(q, ell, L, probs):
    """d^2/dp_i dp_j of the same polynomial, term by term."""
    mono = _ref_monomials(probs, L - 2)
    terms = [[[] for _ in range(q)] for _ in range(q)]
    for b in ref_compositions(q, L):
        weight = ref_multinomial(L, b) * ref_top_ell(b, ell)
        for i in range(q):
            if b[i] == 0:
                continue
            d = list(b)
            d[i] -= 1
            for j in range(q):
                if d[j] > 0:
                    e = list(d)
                    e[j] -= 1
                    terms[i][j].append(weight * b[i] * d[j] * mono[tuple(e)])
    return np.array([[math.fsum(t) for t in row] for row in terms])


def ref_composition_sums(q, ell, m, order, probs):
    """sum over a in A_{q,m} of multinomial(m, a) p^a top_ell(a + e_(j_1) + ... + e_(j_order)), exactly.

    One Fraction per column j_1 q^(order-1) + ... + j_order, with p the exact
    values of the floats in probs.  Floats are dyadic, so with D the largest
    denominator every p_j is N_j / D and the sum is one integer over D^m.
    """
    comps = sorted(ref_compositions(q, m))
    exact = [Fraction(float(p)) for p in probs]
    D = max(x.denominator for x in exact)
    N = [x.numerator * (D // x.denominator) for x in exact]
    weights = np.empty(len(comps), dtype=object)
    weights[:] = [ref_multinomial(m, a) * math.prod(n**k for n, k in zip(N, a)) for a in comps]
    counts = np.array(comps, dtype=np.int64)
    for _ in range(order):
        counts = counts[..., np.newaxis, :] + np.eye(q, dtype=np.int64)
    top = np.sort(counts, axis=-1)[..., -ell:].sum(axis=-1).reshape(len(comps), -1)
    return [Fraction(int(s), D**m) for s in weights @ top.astype(object)]


def ref_threshold(q, ell, L):
    """Exact p* = E[L - plur_ell]/L under the uniform law, as a Fraction."""
    total = 0
    for x in itertools.product(range(1, q + 1), repeat=L):
        total += L - ref_plurality_ell_count(x, q, ell)
    return Fraction(total, L * q**L)


def ref_mgf(q, ell, L, lam):
    """E[q^(-lam * (1 - plur_ell/L))] by direct summation."""
    terms = []
    for x in itertools.product(range(1, q + 1), repeat=L):
        rho = 1.0 - ref_plurality_ell_count(x, q, ell) / L
        terms.append(q ** (-lam * rho))
    return math.fsum(terms) / q**L


def ref_degenerate_count(q, ell, L):
    """Tuples in [q]^L using at most ell distinct symbols."""
    return sum(
        1
        for x in itertools.product(range(1, q + 1), repeat=L)
        if len(set(x)) <= ell
    )


def central_diff(fn, x, h):
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def second_central_diff(fn, x, h):
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def ref_lr_dist(x, lists):
    return sum(1 for xi, li in zip(x, lists) if xi not in li)


def ref_avg_radius_by_centers(xs, q, ell):
    """Min over all ell-list centers of the mean lr-distance.

    The real minimization, no plurality shortcut.  Exponential in n.
    """
    n = len(xs[0])
    L = len(xs)
    subsets = list(itertools.combinations(range(1, q + 1), ell))
    best = None
    for center in itertools.product(subsets, repeat=n):
        tot = sum(ref_lr_dist(x, center) for x in xs)
        if best is None or tot < best:
            best = tot
    return best / L


def ref_exact_radius(xs, q, ell):
    """Min over all ell-list centers of the max lr-distance."""
    n = len(xs[0])
    subsets = list(itertools.combinations(range(1, q + 1), ell))
    best = None
    for center in itertools.product(subsets, repeat=n):
        worst = max(ref_lr_dist(x, center) for x in xs)
        if best is None or worst < best:
            best = worst
    return best


def ref_first_witness(words, q, ell, L, p):
    """First center in product order with >= L words within n*p, and those
    words in code order; None when no center has L of them."""
    n = len(words[0])
    subsets = list(itertools.combinations(range(1, q + 1), ell))
    for center in itertools.product(subsets, repeat=n):
        inside = tuple(w for w in words if ref_lr_dist(w, center) <= n * p)
        if len(inside) >= L:
            return center, inside
    return None


def ref_ball_count(q, n, radius):
    """Words within Hamming distance radius of a fixed center, counted."""
    center = tuple(1 for _ in range(n))
    return sum(
        1
        for x in itertools.product(range(1, q + 1), repeat=n)
        if sum(a != b for a, b in zip(x, center)) <= radius
    )


def ref_lr_ball_count(q, ell, n, radius):
    """Words missing the top-ell list in at most radius coordinates."""
    top = set(range(q - ell + 1, q + 1))
    return sum(
        1
        for x in itertools.product(range(1, q + 1), repeat=n)
        if sum(1 for s in x if s not in top) <= radius
    )


def simplex_point(rng, q):
    """Uniform Dirichlet(1) sample via normalized exponentials."""
    e = rng.exponential(size=q)
    return e / e.sum()


def ref_binary_lower_rate(L, p):
    """Random-coding rate bound for q = 2, ell = 1 from the binomial law.

    The plurality of L binary draws is t with probability 2 C(L,t) / 2^L for
    t > L/2 (C(L,t) / 2^L at t = L/2); logs come from lgamma.  lambda* is
    found by bisection of the tilted mean of rho = 1 - t/L.
    """
    if p == 0.0:
        return (L - 1.0) / (L - 1)  # two tuples with rho = 0
    ln2 = math.log(2.0)
    law = []
    for t in range((L + 1) // 2, L + 1):
        mult = 1 if 2 * t == L else 2
        log_n = math.log(mult) + math.lgamma(L + 1) - math.lgamma(t + 1) - math.lgamma(L - t + 1)
        law.append((1.0 - t / L, log_n - L * ln2))

    def tilted(lam):
        xs = [lp - lam * rho * ln2 for rho, lp in law]
        m = max(xs)
        ws = [math.exp(x - m) for x in xs]
        mean = math.fsum(w * rho for w, (rho, _) in zip(ws, law)) / math.fsum(ws)
        return mean, m + math.log(math.fsum(ws))

    lo, hi = 0.0, 1.0
    while tilted(hi)[0] > p:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tilted(mid)[0] > p:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    log_mgf = tilted(lam)[1]
    return max(0.0, (-lam * p - log_mgf / ln2) / (L - 1))


def _xlnx(x):
    return np.where(x > 0.0, x * np.log(np.where(x > 0.0, x, 1.0)), 0.0)


def ref_eta(x1, x2, base):
    """eta_base(x1, x2) over arrays: entropy of (x1, x2, 1 - x1 - x2)."""
    x0 = np.clip(1.0 - x1 - x2, 0.0, None)
    return -(_xlnx(x1) + _xlnx(x2) + _xlnx(x0)) / math.log(base)


def ref_polytope_min(objective, cap, steps=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6), width=10):
    """Smallest objective(x1, x2) over grid points of the feasible polytope.

    The polytope is {x1, x2 >= 0, x1 + 2 x2 <= cap, x1 + x2 <= 1}.  The first
    grid spans it; each later grid, ten times finer, spans `width` old steps
    around the best point so far.  Every x2 row also holds its largest
    feasible x1, so points on the cap line are candidates too.  Every
    candidate is feasible, so the result is never below the true minimum.
    """
    hi1, hi2 = min(1.0, cap), min(1.0, cap / 2.0)
    best, b1, b2 = math.inf, 0.0, 0.0
    lo1, up1, lo2, up2 = 0.0, hi1, 0.0, hi2
    for h in steps:
        x1 = np.arange(lo1, up1 + h / 2, h)
        x2 = np.arange(lo2, up2 + h / 2, h)
        x2 = x2[x2 <= hi2]
        edge = np.clip(np.minimum(cap - 2.0 * x2, 1.0 - x2), 0.0, None)
        X1 = np.concatenate([np.broadcast_to(x1[:, None], (len(x1), len(x2))), edge[None, :]])
        X2 = np.broadcast_to(x2[None, :], X1.shape)
        feasible = (X1 + 2.0 * X2 <= cap) & (X1 + X2 <= 1.0)
        feasible[-1, :] = True
        vals = np.where(feasible, objective(X1, X2), np.inf)
        k = np.unravel_index(int(np.argmin(vals)), vals.shape)
        if vals[k] < best:
            best, b1, b2 = float(vals[k]), float(X1[k]), float(X2[k])
        lo1, up1 = max(0.0, b1 - width * h), min(hi1, b1 + width * h)
        lo2, up2 = max(0.0, b2 - width * h), min(hi2, b2 + width * h)
    return best


def ref_lambda_star_rate(q, L, N, p):
    """Random-coding rate at p by bisection of the tilted mean, from the radius law N.

    N[t] counts the tuples of [q]^L whose ell-plurality is t, so rho = 1 - t/L
    has P(rho_t) = N[t] / q^L.  The bracket doubles from [0, 1] and, past a
    cap of 1e6, the rate is the lam -> inf limit (L - log_q N[L]) / (L - 1);
    otherwise lam* is bisected until the midpoint stops moving.
    """
    lnq = math.log(q)
    if p == 0.0:
        return (L - math.log(N[L]) / lnq) / (L - 1)
    ts = [t for t, n in enumerate(N) if n]
    rho = np.array([1.0 - t / L for t in ts])
    log_p = np.array([math.log(N[t]) - L * lnq for t in ts])

    def tilted(lam):
        x = log_p - lam * rho * lnq
        m = float(x.max())
        w = np.exp(x - m)
        return math.fsum(w * rho) / math.fsum(w), m + math.log(math.fsum(w))

    lo, hi = 0.0, 1.0
    while tilted(hi)[0] > p:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            return (L - math.log(N[L]) / lnq) / (L - 1)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if tilted(mid)[0] > p:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return max(0.0, (-mid * p - tilted(mid)[1] / lnq) / (L - 1))


def ref_eb_rate(q, ell, L, p, g):
    """Entropy-inversion rate at p by bisection of g(w) = L(1 - p) on [0, (q-ell)/q].

    g is the sliced moment function as a callable of w, non-increasing on
    the interval; w is bisected to a bracket of 1e-15 and the rate is
    1 - H_{q,ell}(w) at its midpoint, log_q(q/ell) at p = 0.
    """
    if p == 0.0:
        return 1.0 - math.log(ell) / math.log(q)
    lo, hi = 0.0, (q - ell) / q
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if g(mid) > L * (1.0 - p):
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)
    h = (w * math.log((q - ell) / w) if w > 0.0 else 0.0) + (1.0 - w) * math.log(ell / (1.0 - w))
    return max(0.0, 1.0 - h / math.log(q))


def ref_expurgate_restart(words, p, ell, L, n, radius):
    """Expurgation by restarted scans: find the first L-subset (combinations
    order over the current words) with radius <= n*p, drop its
    lexicographically largest word, rescan from the start; stop when a scan
    finds none.  Returns (kept words, removed count, least radius of the
    final scan), the least radius inf below L words.
    """
    words = list(words)
    removed = 0
    while True:
        least, bad = math.inf, None
        for idxs in itertools.combinations(range(len(words)), L):
            r = radius([words[i] for i in idxs], ell)
            least = min(least, r)
            if r <= n * p:
                bad = idxs
                break
        if bad is None:
            return words, removed, least
        words.remove(max(words[i] for i in bad))
        removed += 1
