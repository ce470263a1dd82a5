"""Correctness gate: every answer is checked, every failure is counted.

Values are compared with bench/expected.json, a table over the finite request
universe written once by bench/make_expected.py at the seed commit, at a
tolerance no tighter than the routine's own accuracy.  Thresholds and Monte
Carlo estimates are checked against p* recomputed exactly with Fraction
(plan.exact_pstar), and expurgated codes by brute force over their L-subsets.

A request fails when it raises, exits with an unexpected code or returns a
wrong answer.  A request whose seed entry is an error failed at the seed
already (a known defect); once it returns a value, that value must be finite,
lie in [0, 1] and be non-increasing in p.  Any other failure is a regression,
and the run is then not correct.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import combinations

from plan import params_key

# Absolute tolerances.  The ry comparison curves come from a grid refinement
# that is only accurate to about 1e-7 in x, so their values get 1e-5.
TOL = {"lower": 1e-7, "upper": 1e-9, "p_star_w": 1e-9, "ry-binary-4": 1e-5,
       "ry-qary-3": 1e-5, "gmrsw": 1e-12}
REL_TOL_LIPSCHITZ = 1e-6  # lipschitz_g is a max over a 10^4-point grid
CURVE_PRINT_TOL = 1e-6  # `lrb curve` prints 6 decimals
MC_MAX_Z = 6.0
VERDICT_KEYS = ("schur", "convexity", "monotonicity", "overall")


def expected_key(req: dict) -> str:
    kind = req["kind"]
    P = ",".join(map(str, req["params"])) if "params" in req else ""
    if kind in ("lower", "upper", "p_star_w"):
        return f"{kind}|{P}|{req['k']}"
    if kind in ("ry-binary-4", "gmrsw"):
        return f"{kind}|{req['k']}"
    if kind == "ry-qary-3":
        return f"{kind}|{req['q']}|{req['k']}"
    if kind == "plotkin":
        return f"plotkin|{P}|{req['tau']}|{req['eps1']}"
    if kind == "unconstrained":
        return f"unconstrained|{P}|{req['tau']}"
    if kind == "curve":
        return f"curve|{req['curve']}|{P or req.get('q', '')}|{req['points']}"
    return f"{kind}|{P}"


def key_values(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


def parse_curve(stdout: str) -> list[tuple[float, float]]:
    return [tuple(float(t) for t in line.split()) for line in stdout.splitlines() if line]


def _close(a, b, tol) -> bool:
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= tol


def _avg_radius(words, ell: int) -> float:
    L, n = len(words), len(words[0])
    top = sum(sum(sorted(Counter(col).values(), reverse=True)[:ell]) for col in zip(*words))
    return (n * L - top) / L


def check_code(text: str | None, req: dict) -> str | None:
    """None when the saved code is a valid expurgated code, else the reason."""
    if text is None:
        return "code file missing"
    q, ell, L = req["params"]
    rows = [list(map(int, ln.split())) for ln in text.splitlines() if ln.split("#")[0].strip()]
    (cq, n, m), words = rows[0], [tuple(r) for r in rows[1:]]
    if (cq, n, m) != (q, req["n"], len(words)) or len(set(words)) != m:
        return "bad code header or repeated words"
    if any(len(w) != n or not all(1 <= s <= q for s in w) for w in words):
        return "bad codeword"
    if m >= L and min(_avg_radius(s, ell) for s in combinations(words, L)) <= n * req["p"]:
        return "an L-subset has average radius <= n*p"
    return None


def _lib_value(req, value, ref) -> bool:
    kind = req["kind"]
    if kind in TOL:
        return _close(value, ref, TOL[kind])
    if kind.startswith("certify_"):
        return isinstance(value, dict) and value.get("passed") == ref["passed"]
    if kind == "plotkin":
        return isinstance(value, dict) and all(
            _close(value.get(f), ref[f], REL_TOL_LIPSCHITZ * abs(ref[f])) for f in ref)
    if kind == "unconstrained":
        return _close(value, ref, REL_TOL_LIPSCHITZ * abs(ref))
    raise ValueError(f"no check for {kind!r}")


def cli_answer(req, res, ref, pstars, codes) -> str | None:
    """None when a cli answer is right, else why it is wrong."""
    kind, rc, out = req["kind"], res["rc"], res["stdout"]
    want_rc = ref.get("rc", 0) if ref else 0
    if rc != want_rc:
        tail = res["stderr"].strip().splitlines()
        return f"exit {rc}: {tail[-1][:100] if tail else ''}"
    kv = key_values(out)
    if kind == "threshold":
        exact = pstars[tuple(req["params"])]
        return None if _close(float(out), float(exact), 1e-12) else "p* differs from exact"
    if kind == "mc":
        exact = float(pstars[tuple(req["params"])])
        mean, se = float(kv["mean"]), float(kv["std_error"])
        if not _close(float(kv["closed_form"]), exact, 1e-12):
            return "closed_form differs from exact p*"
        z = abs(mean - exact) / se if se > 0 else math.inf
        return None if z <= MC_MAX_Z else f"mean more than {MC_MAX_Z:g} std errors from p*"
    if kind == "certify":
        got = {k: kv.get(k) for k in VERDICT_KEYS}
        return None if got == ref["verdicts"] else f"verdicts {got}"
    if kind == "expurgate":
        q, n, rate = req["params"][0], req["n"], req["rate"]
        sizes = [int(kv[k]) for k in ("target_size", "distinct_size", "achieved_size")]
        if kv.get("post_check") != "PASS" or kv.get("full_check") not in ("PASS", "SKIPPED"):
            return "expurgated code fails its own check"
        if sizes[0] != math.ceil(float(q) ** (n * rate)) or not sizes[2] <= sizes[1] <= sizes[0]:
            return f"sizes {sizes}"
        codes[req["code"]] = sizes[2]
        return check_code(res.get("code_text"), req)
    if kind == "check":
        if kv.get("verdict") != "RECOVERABLE" or int(kv["size"]) != codes.get(req["code"]):
            return f"verdict {kv.get('verdict')} size {kv.get('size')}"
        return None
    if kind == "curve":
        got = parse_curve(out)
        if ref is None:  # no seed value: only plausibility
            return _plausible(got)
        want = ref["points"]
        tol = TOL.get(req["curve"], TOL["lower"]) + CURVE_PRINT_TOL
        if len(got) != len(want) or not all(
                _close(p, wp, CURVE_PRINT_TOL) and _close(r, wr, tol)
                for (p, r), (wp, wr) in zip(got, want)):
            return "curve differs from seed"
        return None
    raise ValueError(f"no check for {kind!r}")


def _plausible(points) -> str | None:
    """Finite rates in [0, 1], non-increasing in p."""
    points = sorted(points)
    rates = [r for _, r in points]
    if not all(isinstance(r, (int, float)) and math.isfinite(r) and -1e-12 <= r <= 1 + 1e-12
               for r in rates):
        return "rate not finite or outside [0, 1]"
    if any(b > a + 1e-9 for a, b in zip(rates, rates[1:])):
        return "rate increases with p"
    return None


def check(plan: list[dict], results: list[dict], expected: dict, pstars: dict) -> dict:
    """Verdict on every result: counts, failure causes and the correct flag."""
    by_id = {r["id"]: r for r in results}
    why: dict[int, str | None] = {}
    later_values = defaultdict(list)  # values where the seed failed, by (kind, Params)
    codes: dict[str, int] = {}
    for req in plan:
        res = by_id.get(req["id"])
        key = expected_key(req)
        entry = expected.get(key, {})
        ref = entry.get("value")
        if res is None:
            why[req["id"]] = "no result"
        elif "error" in res:
            why[req["id"]] = res["error"].splitlines()[0][:120]
        elif not entry:
            why[req["id"]] = f"no seed entry {key}"
        elif "rc" in res:
            try:
                why[req["id"]] = cli_answer(req, res, ref, pstars, codes)
            except (ValueError, KeyError, IndexError) as exc:
                why[req["id"]] = f"unreadable output: {type(exc).__name__}"
        elif "error" in entry:
            point = (req.get("p", 0.0), res["value"])
            if req["kind"] in ("lower", "upper"):
                later_values[(req["kind"], tuple(req["params"]))].append(point)
            why[req["id"]] = _plausible([point])
        else:
            why[req["id"]] = None if _lib_value(req, res["value"], ref) else "value differs from seed"
    for (kind, params), points in later_values.items():
        if _plausible(points) is not None:
            for req in plan:
                if (req["kind"], tuple(req.get("params", ()))) == (kind, params) \
                        and "error" in expected.get(expected_key(req), {}):
                    why[req["id"]] = why[req["id"]] or "rate increases with p"
    failures: Counter = Counter()
    regressions: Counter = Counter()
    for req in plan:
        if why[req["id"]] is None:
            continue
        label = f"{why[req['id']]} [{params_key(req)}]"
        failures[label] += 1
        if "error" not in expected.get(expected_key(req), {}):
            regressions[label] += 1
    return {"attempted": len(plan), "failed": sum(failures.values()), "correct": not regressions,
            "failures": dict(failures), "regressions": dict(regressions)}


def check_passes(plan: list[dict], passes: list[list[dict]], expected: dict, pstars: dict) -> dict:
    """check() on the results of every pass, summed: each timing is an attempt."""
    out = {"attempted": 0, "failed": 0, "correct": True, "failures": Counter(),
           "regressions": Counter()}
    for results in passes:
        verdict = check(plan, results, expected, pstars)
        out["attempted"] += verdict["attempted"]
        out["failed"] += verdict["failed"]
        out["correct"] = out["correct"] and verdict["correct"]
        out["failures"].update(verdict["failures"])
        out["regressions"].update(verdict["regressions"])
    out["failures"] = dict(out["failures"])
    out["regressions"] = dict(out["regressions"])
    return out
