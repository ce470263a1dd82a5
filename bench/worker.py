"""One fresh interpreter of a benchmark run: set up, then play the plan.

    python bench/worker.py --mode {setup,run,trace} --workload W --plan PLAN.json --out OUT.json

bench/run.py spawns this with the BLAS thread counts at 1 and src/ on
PYTHONPATH.  'setup' stops once set-up is done, so run.py can time set-up
several times; 'run' also plays the plan, closed loop with a single client,
once per pass in the pass's order (PLAN.json holds the requests and the
orders); 'trace' does the same with every public function of the
library wrapped (bench/spans.py).  On lib-* the requests are library calls
in this process; on cli-cold each one is a fresh `python -m lrbounds`
process (or, traced, a fresh bench/launcher.py process).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _params(lrb, req):
    return lrb.Params(*req["params"])


def _cert(c) -> dict:
    return {"passed": bool(c.passed)}


def _plotkin(c) -> dict:
    return {"lip": c.lip, "log10_c": c.log10_c, "m0": c.m0}


# Library requests resolve names on the package at call time, so the traced
# run goes through the wrapped bindings.
LIB_CALLS = {
    "lower": lambda lrb, r: lrb.lower_bound_rate(_params(lrb, r), r["p"]),
    "upper": lambda lrb, r: lrb.eb_upper_bound_rate(_params(lrb, r), r["p"]),
    "p_star_w": lambda lrb, r: lrb.p_star_w(_params(lrb, r), r["w"]),
    "ry-binary-4": lambda lrb, r: lrb.comparison_ry_binary4(r["p"]),
    "ry-qary-3": lambda lrb, r: lrb.comparison_ry_qary3(r["q"], r["p"]),
    "gmrsw": lambda lrb, r: lrb.comparison_gmrsw(r["p"]),
    "certify_schur": lambda lrb, r: _cert(lrb.certify_schur(_params(lrb, r))),
    "certify_convexity": lambda lrb, r: _cert(lrb.certify_convexity(_params(lrb, r))),
    "certify_monotonicity_g": lambda lrb, r: _cert(lrb.certify_monotonicity_g(_params(lrb, r))),
    "plotkin": lambda lrb, r: _plotkin(lrb.plotkin_constants(_params(lrb, r), r["tau"], r["eps1"])),
    "unconstrained": lambda lrb, r: lrb.unconstrained_multiplier(_params(lrb, r), r["tau"]),
}


def cli_argv(req: dict) -> list[str]:
    """Arguments of the `lrb` command a cli-cold request stands for."""
    P = req.get("params")
    popts = ["--q", str(P[0]), "--ell", str(P[1]), "--L", str(P[2])] if P else []
    kind = req["kind"]
    if kind == "threshold":
        return ["threshold", *popts]
    if kind == "curve":
        argv = ["curve", "--kind", req["curve"], "--points", str(req["points"]), *popts]
        return argv + (["--q", str(req["q"])] if "q" in req else [])
    if kind == "certify":
        return ["certify", *popts]
    if kind == "mc":
        return ["oracle", "mc-threshold", *popts, "--samples", str(req["samples"]),
                "--seed", str(req["seed"])]
    if kind == "expurgate":
        return ["oracle", "expurgate", *popts, "--p", repr(req["p"]), "--n", str(req["n"]),
                "--rate", repr(req["rate"]), "--seed", str(req["seed"]), "--save", req["code"]]
    if kind == "check":
        return ["oracle", "check", "--code", req["code"], "--p", repr(req["p"]),
                "--ell", str(P[1]), "--L", str(P[2])]
    raise ValueError(f"unknown cli request kind {kind!r}")


def _group(req: dict) -> tuple:
    return (req["kind"], tuple(req.get("params") or ()), req.get("q"))


def _play_lib(lrb, plan: list[dict], tracer) -> list[dict]:
    results = []
    for req in plan:
        call = LIB_CALLS[req["kind"]]
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.request"):
                value = call(lrb, req)
            out = {"value": value}
        except Exception as exc:  # a failed request is data, not a crash
            out = {"error": f"{type(exc).__name__}: {exc}"}
        out["lat"] = time.perf_counter() - t0
        out["id"] = req["id"]
        results.append(out)
    return results


def span_path(span_dir: str, pass_no: int, req: dict) -> str:
    return os.path.join(span_dir, f"{pass_no}_{req['id']}.json")


def _play_cli(plan: list[dict], workdir: str, span_dir: str | None, pass_no: int) -> list[dict]:
    results = []
    for req in plan:
        argv = cli_argv(req)
        if span_dir is None:
            cmd = [sys.executable, "-m", "lrbounds", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
                   span_path(span_dir, pass_no, req), *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=workdir, capture_output=True)
        lat = time.perf_counter() - t0
        out = {"id": req["id"], "lat": lat, "rc": proc.returncode,
               "stdout": proc.stdout.decode("utf-8", "replace"),
               "stderr": proc.stderr.decode("utf-8", "replace")[-2000:]}
        if req["kind"] == "expurgate":
            try:
                with open(os.path.join(workdir, req["code"]), encoding="ascii") as fh:
                    out["code_text"] = fh.read()
            except OSError:
                out["code_text"] = None
        results.append(out)
    return results


class _NoTrace:
    def span(self, name):
        return contextlib.nullcontext()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--plan", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import lrbounds as lrb

    tracer = _NoTrace()
    if args.mode == "trace":
        import spans

        if args.workload != "cli-cold":
            tracer = spans.Tracer()
            tracer.install()
    with open(args.plan, encoding="utf-8") as fh:
        loaded = json.load(fh)
    plan = loaded["requests"]
    by_id = {req["id"]: req for req in plan}
    passes = [[by_id[i] for i in order] for order in loaded["passes"]]

    # One cold call per (request kind, Params) on lib-*; cli-cold pays these
    # costs inside every request instead.
    if args.workload != "cli-cold":
        seen = set()
        with tracer.span("bench.setup"):
            for req in plan:
                if _group(req) in seen:
                    continue
                seen.add(_group(req))
                try:
                    LIB_CALLS[req["kind"]](lrb, req)
                except Exception:  # failures are counted in the timed phase
                    pass
    ready = time.perf_counter()
    record = {"ready": ready}
    if args.mode != "setup":
        span_dir = None
        if args.mode == "trace" and args.workload == "cli-cold":
            span_dir = os.path.join(args.workdir, "spans")
            os.makedirs(span_dir, exist_ok=True)
        t0 = time.perf_counter()
        results = []
        for pass_no, ordered in enumerate(passes):
            if args.workload == "cli-cold":
                results.append(_play_cli(ordered, args.workdir, span_dir, pass_no))
            else:
                results.append(_play_lib(lrb, ordered, tracer))
        record["wall_s"] = time.perf_counter() - t0
        record["results"] = results
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        record["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if args.mode == "trace":
            if args.workload == "cli-cold":
                record["layers"] = spans.merge_files(
                    [span_path(span_dir, n, r)
                     for n, ordered in enumerate(passes) for r in ordered],
                    [r["lat"] for pass_results in results for r in pass_results])
            else:
                span_file = os.path.join(args.workdir, "spans.json")
                tracer.dump(span_file)
                record["layers"] = tracer.summary()
                record["spans_file"] = span_file
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
