"""Write bench/expected.json: the seed's answer to every request the plans can make.

    PYTHONPATH=src python3 bench/make_expected.py

Run once, at the commit that defines the benchmark; later commits are
checked against this table and must not regenerate it.  Each entry is
{"value": ...} or, where the seed itself fails, {"error": ...}.  Library
values are stored as returned; a cli entry holds the exit code and what the
checker compares (curve points, certificate verdicts).  Thresholds, Monte
Carlo estimates and expurgated codes are checked independently, so their
entries only record whether the seed answers them correctly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import checker
import plan
import worker

HERE = os.path.dirname(os.path.abspath(__file__))


def lib_universe(pstars):
    for P in plan.POOL:
        for k in range(plan.GRID):
            for kind in ("lower", "upper"):
                yield {"kind": kind, "params": P, "k": k, "p": plan.grid_p(pstars[P], k)}
        for k in range(plan.GRID + 1):
            yield {"kind": "p_star_w", "params": P, "k": k, "w": k / plan.GRID}
    for k in range(plan.GRID):
        for kind, P in plan.COMPARISON_PARAMS.items():
            yield {"kind": kind, "k": k, "p": plan.grid_p(pstars[P], k)}
        for q in plan.RY_QARY_QS:
            yield {"kind": "ry-qary-3", "q": q, "k": k, "p": plan.grid_p(pstars[(q, 1, 3)], k)}
    for P in plan.CERT_PARAMS:
        for kind in ("certify_schur", "certify_convexity", "certify_monotonicity_g"):
            yield {"kind": kind, "params": P}
    for P in plan.CONSTANT_PARAMS:
        for tau in plan.TAUS:
            yield {"kind": "unconstrained", "params": P, "tau": tau}
            for eps1 in plan.EPS1S:
                yield {"kind": "plotkin", "params": P, "tau": tau, "eps1": eps1}


def cli_universe(pstars):
    """Every curve the plans can draw, and one representative of each other group."""
    for kind, P, _ in plan.CLI_COLD:
        if kind.startswith("curve:"):
            curve = kind.split(":", 1)[1]
            qs = plan.RY_QARY_QS if curve == "ry-qary-3" else [None]
            for q in qs:
                for points in plan.CURVE_POINTS:
                    req = {"kind": "curve", "curve": curve, "points": points}
                    if P is not None:
                        req["params"] = P
                    if q is not None:
                        req["q"] = q
                    yield req
        else:
            req = plan._requests(kind, P, 1, _FixedRng(), pstars)[0]
            if kind == "expurgate":
                req["code"] = "code_0.txt"
                yield req
                yield dict(req, kind="check")
            else:
                yield req


class _FixedRng:
    """Stands in for random.Random: no shuffling, middle of every range."""

    def random(self):
        return 0.5

    def shuffle(self, seq):
        pass

    def randrange(self, lo, hi):
        return (lo + hi) // 2


def main() -> int:
    import lrbounds as lrb

    pstars = plan.pstar_table()
    table = {}
    for req in lib_universe(pstars):
        try:
            table[checker.expected_key(req)] = {"value": worker.LIB_CALLS[req["kind"]](lrb, req)}
        except Exception as exc:
            table[checker.expected_key(req)] = {"error": f"{type(exc).__name__}: {exc}"}
    workdir = os.path.join(os.path.dirname(HERE), ".bench_out", "expected")
    os.makedirs(workdir, exist_ok=True)
    codes: dict[str, int] = {}
    for req in cli_universe(pstars):
        proc = subprocess.run([sys.executable, "-m", "lrbounds", *worker.cli_argv(req)],
                              cwd=workdir, capture_output=True, text=True)
        res = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if req["kind"] == "expurgate":
            with open(os.path.join(workdir, req["code"]), encoding="ascii") as fh:
                res["code_text"] = fh.read()
        key = checker.expected_key(req)
        kv = checker.key_values(proc.stdout)
        if req["kind"] == "curve" and proc.returncode == 0:
            ref = {"rc": 0, "points": checker.parse_curve(proc.stdout)}
        elif req["kind"] == "certify":
            ref = {"rc": proc.returncode, "verdicts": {k: kv.get(k) for k in checker.VERDICT_KEYS}}
        else:
            ref = {"rc": 0}
        why = checker.cli_answer(req, res, ref, pstars, codes)
        table[key] = {"value": ref} if why is None else {"error": why}
    out = os.path.join(HERE, "expected.json")
    with open(out, "w", encoding="utf-8") as fh:  # one entry per line
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                      for k, v in sorted(table.items())) + "\n}\n")
    errors = Counter(f"{k.rsplit('|', 1)[0] if k.rsplit('|', 1)[-1].isdigit() else k}: {v['error']}"
                     for k, v in table.items() if "error" in v)
    print(f"{len(table)} entries, {sum(errors.values())} failing at this commit")
    for group, count in sorted(errors.items()):
        print(f"  {count} x {group}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
