"""lrbounds benchmark: seeded requests, checked answers, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {lib-rates,lib-sliced,cli-cold} --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the directory holding src/lrbounds).  The
users are people computing bounds at a desk: they wait for one library call
in a script or notebook (caches warm after first use), or for one `lrb`
command (imports and table builds paid on every run).  Load is a closed
loop with one client.  Workloads (bench/plan.py):

  lib-rates   λ*-tilted lower bound and comparison curves, in process; never
              calls g, so a change to analysis must not move it.
  lib-sliced  g, g', g'' along the slice: certificates, upper bound, p_star_w,
              Lipschitz constants, in process; never calls tilted_mean, so a
              λ* change must not move it.  lipschitz_g is cached per Params
              and lands in setup_s.
  cli-cold    one fresh `python -m lrbounds` process per request; pays the
              import and cold table builds every time, and is the only
              workload that runs the oracle, metrics and cli modules.

Each run spawns fresh interpreters (bench/worker.py): with --trace 0, set-up
is timed three times (median reported) and the last interpreter also plays
the plan; with --trace 1, one untraced and one traced interpreter play the
same plan and the per-layer metrics come from the traced one
(bench/spans.py).  On lib-* the plan is played in three passes, each in its
own order, and a request's latency is the median of its three timings;
req_s.p50 and req_s.tail are taken over these per-request latencies.  Every
answer of every pass is checked (bench/checker.py).  Human
readable lines come first; the last line of stdout is the JSON result.  A
record with provenance goes to .bench_out/BENCH_<workload>_s<seed>_t<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

sys.path.insert(0, HERE)
import checker  # noqa: E402
import plan as planner  # noqa: E402
import spans  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("LRB_THREADS", None)  # documented default: one thread
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    return env


def run_worker(mode: str, workload: str, plan_file: str, tag: str, env: dict) -> dict:
    """Spawn one fresh worker interpreter; its set-up time is spawn to ready."""
    workdir = os.path.join(OUT, f"work-{tag}")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode, "--workload",
           workload, "--plan", plan_file, "--out", out, "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["ready"] - t0
    return record


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh largest sample, the nearest-rank percentile
    100 * (n - 10) / n.  Returns (value, percentile, n); with fewer than
    eleven samples it is the smallest.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, n - 10)
    return xs[rank - 1], 100.0 * rank / n, n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(planner.SESSIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lrbounds", "__init__.py")):
        print(f"error: no lrbounds package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    # bytecode caches warm before anything is timed, as for an installed package
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "lrbounds")],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    pstars = planner.pstar_table()
    plan = planner.make_plan(args.workload, args.seed, args.seconds, pstars)
    orders = planner.pass_orders(plan, args.workload, args.seed)
    tag = f"{args.workload}_s{args.seed}_t{args.trace}"
    plan_file = os.path.join(OUT, f"plan_{tag}.json")
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump({"requests": plan, "passes": orders}, fh)

    if args.trace:
        plain = run_worker("run", args.workload, plan_file, tag + "_plain", env)
        traced = run_worker("trace", args.workload, plan_file, tag, env)
        verdicts = [checker.check_passes(plan, r["results"], expected, pstars)
                    for r in (plain, traced)]
        same_stdout = all(a.get("stdout") == b.get("stdout")
                          for pa, pb in zip(plain["results"], traced["results"])
                          for a, b in zip(pa, pb))
        verdict = verdicts[1]
        verdict["correct"] = verdicts[0]["correct"] and verdict["correct"] and same_stdout
        overhead = traced["wall_s"] / plain["wall_s"]
        metrics = spans.layer_metrics(traced["layers"], overhead)
        lines = [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
        lines.append(f"traced stdout identical to untraced: {same_stdout}")
        record_extra = {"spans_file": traced.get("spans_file"), "wall_s_untraced": plain["wall_s"],
                        "wall_s_traced": traced["wall_s"]}
    else:
        setups = [run_worker("setup", args.workload, plan_file, f"{tag}_setup{i}", env)["setup_s"]
                  for i in range(SETUP_REPEATS - 1)]
        timed = run_worker("run", args.workload, plan_file, tag, env)
        setups.append(timed["setup_s"])
        verdict = checker.check_passes(plan, timed["results"], expected, pstars)
        session = {req["id"]: req["session"] for req in plan}
        timings = defaultdict(list)  # request id -> its latency in each pass
        per_unit = Counter()  # (pass, session) -> time
        for pass_no, results in enumerate(timed["results"]):
            for res in results:
                timings[res["id"]].append(res["lat"])
                per_unit[pass_no, session[res["id"]]] += res["lat"]
        lats = [statistics.median(ts) for ts in timings.values()]
        tail_v, tail_pct, n = tail(lats)
        # total of the timed phase, as (passes x sessions) x the median time
        # of one session's pass, so that a burst of host noise in one of them
        # does not move it
        wall_s = len(per_unit) * statistics.median(per_unit.values())
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "req_s.p50": {"value": statistics.median(lats), "unit": "s"},
            "req_s.tail": {"value": tail_v, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": timed["peak_rss_mb"], "unit": "MB"},
        }
        ratio = verdict["failed"] / verdict["attempted"]
        lines = [
            f"wall_s = {wall_s:.4f} s ({len(per_unit)} session passes x median; "
            f"measured total {timed['wall_s']:.4f} s)",
            f"req_s.p50 = {metrics['req_s.p50']['value']:.6f} s (n={n}, "
            f"{len(timed['results'])} timings each, their median)",
            f"req_s.tail = {tail_v:.6f} s (p{tail_pct:.4g}, n={n})",
            f"setup_s = {metrics['setup_s']['value']:.4f} s (median of {len(setups)}: "
            + ", ".join(f"{s:.4f}" for s in setups) + ")",
            f"peak_rss_mb = {timed['peak_rss_mb']:.1f} MB",
            f"failed_ratio = {ratio:.4f} ({verdict['failed']}/{verdict['attempted']})",
        ]
        record_extra = {"setup_s_samples": setups, "tail_percentile": tail_pct, "failed_ratio": ratio}

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"sessions={planner.sessions_for(args.workload, args.seconds)} requests={len(plan)} "
          f"passes={len(orders)}")
    for line in lines:
        print(line)
    for label, count in sorted(verdict["failures"].items()):
        known = "" if label in verdict["regressions"] else " (failed at the seed too)"
        print(f"failed: {count} x {label}{known}")

    import numpy

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": {v: env[v] for v in THREAD_VARS},
        "lrb_threads": env.get("LRB_THREADS"),
        "requests": dict(sorted(Counter(planner.params_key(r) for r in plan).items())),
        "passes": len(orders),
        "metrics": metrics, **verdict, **record_extra,
    }
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": verdict["correct"], "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
