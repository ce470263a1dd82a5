"""Command line front end.

Data goes to stdout (bare threshold value, two-column curves, key=value
reports); diagnostics and warnings go to stderr.  Exit codes: 0 success or
PASS, 2 invalid configuration, 3 certificate or check FAIL, 4 enumeration
budget exceeded.  LRB_THREADS is accepted (it must be an integer) but has no
effect: curve points cost well under a millisecond and run in one thread.

Only the numpy-free modules (exact, params, metrics) are imported at the
top; each subcommand imports what else it needs.  `lrb threshold` and the
comparison curves (gmrsw, ry-binary-4, ry-qary-3) run on the exact layer
alone and never load numpy; the lower and upper curves import bounds,
certify imports analysis and the oracle commands import oracle.

Usage sketch:
    lrb threshold --q 2 --ell 1 --L 2
    lrb curve --kind lower --q 2 --ell 1 --L 3 --pmax 0.25 --points 50
    lrb certify --q 4 --ell 2 --L 5
    lrb oracle mc-threshold --q 2 --ell 1 --L 3 --seed 7
    lrb oracle expurgate --q 2 --ell 1 --L 2 --p 0.1 --n 30 --rate 0.05 --seed 3
    lrb oracle check --code code.txt --p 0.2 --ell 1 --L 2
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Sequence

from . import exact
from .metrics import Code
from .params import Params, _at_least

CURVE_KINDS = ("lower", "upper", "gmrsw", "ry-binary-4", "ry-qary-3")


def _params_from(args: argparse.Namespace) -> Params:
    if args.q is None or args.ell is None or args.L is None:
        raise ValueError("this command needs --q, --ell and --L")
    return Params(args.q, args.ell, args.L)


# --- code file round trip ---------------------------------------------------


def read_code_file(path: str) -> Code:
    """Parse 'q n M' followed by M rows of n symbols; '#' starts a comment."""
    rows: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                rows.append([int(tok) for tok in body.split()])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer token") from None
    if not rows:
        raise ValueError(f"{path}: empty code file")
    header = rows[0]
    if len(header) != 3:
        raise ValueError(f"{path}: header must be 'q n M', got {header}")
    q, n, m = header
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: header promises {m} words, found {len(rows) - 1}")
    for row in rows[1:]:
        if len(row) != n:
            raise ValueError(f"{path}: word of length {len(row)}, expected {n}")
    return Code(q, n, tuple(tuple(row) for row in rows[1:]))


def write_code_file(path: str, code: Code) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{code.q} {code.n} {code.size}\n")
        for w in code.words:
            fh.write(" ".join(str(s) for s in w) + "\n")


# --- threshold ---------------------------------------------------------------


def _cmd_threshold(args: argparse.Namespace) -> int:
    """p* from the radius law N; consistency: sum_t t N_t == sum_s c_s, both exact ints.

    At w* the sliced law is uniform, so g(w*) = sum_s c_s / q^L and
    p_star_w(w*) is the exact ratio (L q^L - sum_s c_s) / (L q^L).
    """
    params = _params_from(args)
    q, ell, L = params.q, params.ell, params.L
    pstar = exact.zero_rate_threshold(params)
    mass = sum(exact._tail_mass_coefficients(q, ell, L))
    ok = sum(t * n for t, n in enumerate(exact._radius_counts(q, ell, L))) == mass
    total = L * q**L
    print(f"{pstar:.12f}")
    print(f"w_star={params.w_star:.12f}", file=sys.stderr)
    print(f"p_star_w={(total - mass) / total:.12f}", file=sys.stderr)
    print(f"consistency={'PASS' if ok else 'FAIL'}", file=sys.stderr)
    return 0 if ok else 3


# --- curve -------------------------------------------------------------------


def _curve_grid(pmin: float, pmax: float, points: int | None, step: float | None) -> list[float]:
    if not 0.0 <= pmin < pmax:
        raise ValueError(f"need 0 <= pmin < pmax, got pmin={pmin}, pmax={pmax}")
    if step is not None:
        if not 0.0 < step < math.inf:  # NaN fails too; a NaN step would never reach pmax
            raise ValueError(f"need finite step > 0, got {step}")
        grid = []
        k = 0
        while True:
            p = pmin + k * step
            if p > pmax + 1e-12:
                break
            grid.append(min(p, pmax))
            k += 1
        return grid
    count = 100 if points is None else _at_least("points", points, 2)
    return [pmin + (pmax - pmin) * i / (count - 1) for i in range(count)]


def _cmd_curve(args: argparse.Namespace) -> int:
    if args.kind in ("lower", "upper"):
        from . import bounds

        params = _params_from(args)
        bound = bounds.lower_bound_rate if args.kind == "lower" else bounds.eb_upper_bound_rate
        pstar = exact.zero_rate_threshold(params)
        default_pmax = clamp = pstar
        rate = lambda p: bound(params, p) if p < pstar else 0.0  # noqa: E731
    else:  # a published curve checks its own range and is never clamped
        if args.kind == "ry-qary-3" and args.q is None:
            raise ValueError("ry-qary-3 needs --q")
        curve, default_pmax = {
            "gmrsw": (exact.comparison_gmrsw, 1.0 / 3.0),
            "ry-binary-4": (exact.comparison_ry_binary4, 0.5),
            "ry-qary-3": (lambda p: exact.comparison_ry_qary3(args.q, p), 2.0 / 3.0),
        }[args.kind]
        clamp = math.inf
        rate = lambda p: max(0.0, curve(p))  # noqa: E731

    pmax = default_pmax if args.pmax is None else args.pmax
    if pmax > 1.0:
        raise ValueError(f"need pmax <= 1, got {pmax}")
    grid = _curve_grid(args.pmin, pmax, args.points, args.step)
    kept = [p for p in grid if p <= clamp]
    if not kept:  # the grid starts past p*: clamping would print p* below --pmin
        raise ValueError(f"need pmin <= p_star={clamp:.12f}, got pmin={args.pmin}")
    if len(kept) < len(grid):
        print(
            f"warning: {len(grid) - len(kept)} grid points beyond "
            f"p_star={clamp:.12f} were clamped",
            file=sys.stderr,
        )
        grid = kept + ([clamp] if kept[-1] < clamp else [])

    threads = os.environ.get("LRB_THREADS", "1")
    try:  # still validated, but curves are evaluated in order in one thread
        int(threads)
    except ValueError:
        raise ValueError(f"LRB_THREADS must be an integer, got {threads!r}") from None
    prec = args.precision
    ps = [f"{p:.{prec}f}" for p in grid]
    if len(set(ps)) != len(ps):  # checked before any rate is computed
        raise ValueError("grid too dense for --precision; increase precision or thin the grid")

    text = "".join(f"{s} {rate(p):.{prec}f}\n" for s, p in zip(ps, grid))
    if args.out is not None:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --- certify -----------------------------------------------------------------


def _cmd_certify(args: argparse.Namespace) -> int:
    from . import analysis

    params = _params_from(args)
    tol = args.tol
    schur = analysis.certify_schur(params, samples=args.samples, seed=args.seed, tolerance=tol)
    conv = analysis.certify_convexity(params, grid_points=args.grid, tolerance=tol)
    mono = analysis.certify_monotonicity_g(params, grid_points=args.grid, tolerance=tol)
    out = []
    out.append(f"schur_samples={schur.samples}")
    out.append(f"schur_seed={schur.seed}")
    out.append(f"schur_min={schur.min_value:.12g}")
    out.append(f"schur={'PASS' if schur.passed else 'FAIL'}")
    out.append(f"convexity_interval=[{conv.lo:.12g},{conv.hi:.12g}]")
    out.append(f"convexity_grid={conv.grid_points}")
    out.append(f"convexity_min={conv.min_value:.12g}")
    out.append(f"convexity_argmin={conv.argmin_w:.12g}")
    out.append(f"convexity_violations={conv.violations}")
    out.append(f"convexity={'PASS' if conv.passed else 'FAIL'}")
    out.append(f"monotonicity_w_star={mono.w_star:.12g}")
    out.append(f"monotonicity_max_increase_left={mono.max_increase_left:.12g}")
    out.append(f"monotonicity_max_decrease_right={mono.max_decrease_right:.12g}")
    out.append(f"monotonicity={'PASS' if mono.passed else 'FAIL'}")
    overall = schur.passed and conv.passed and mono.passed
    out.append(f"overall={'PASS' if overall else 'FAIL'}")
    print("\n".join(out))
    return 0 if overall else 3


# --- oracle ------------------------------------------------------------------


def _cmd_oracle_mc(args: argparse.Namespace) -> int:
    from . import oracle

    params = _params_from(args)
    mean, stderr = oracle.estimate_threshold_mc(params, samples=args.samples, seed=args.seed)
    closed = exact.zero_rate_threshold(params)
    z = abs(mean - closed) / stderr if stderr > 0 else math.inf
    print(f"samples={args.samples}")
    print(f"seed={args.seed}")
    print(f"mean={mean:.9f}")
    print(f"std_error={stderr:.9f}")
    print(f"closed_form={closed:.12f}")
    print(f"z={z:.3f}")
    return 0


def _cmd_oracle_expurgate(args: argparse.Namespace) -> int:
    from . import oracle

    params = _params_from(args)
    code, rep = oracle.random_expurgated_code(params, args.p, args.n, args.rate, args.seed)
    print(f"n={rep.n}")
    print(f"target_rate={rep.target_rate:.6f}")
    print(f"seed={rep.seed}")
    print(f"target_size={rep.target_size}")
    print(f"distinct_size={rep.distinct_size}")
    print(f"achieved_size={rep.achieved_size}")
    print(f"removed_count={rep.removed_count}")
    radius = "inf" if math.isinf(rep.min_avg_radius) else f"{rep.min_avg_radius:.6f}"
    print(f"min_avg_radius={radius}")
    post_ok = rep.min_avg_radius > args.n * args.p
    print(f"post_check={'PASS' if post_ok else 'FAIL'}")
    try:
        ok, _ = oracle.check_list_recoverable(code, args.p, params.ell, params.L)
        print(f"full_check={'PASS' if ok else 'FAIL'}")
        full_ok = ok
    except exact.BudgetExceededError:
        print("full_check=SKIPPED")
        full_ok = True
    if args.save is not None:
        write_code_file(args.save, code)
    return 0 if post_ok and full_ok else 3


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    from . import oracle

    code = read_code_file(args.code)
    ok, witness = oracle.check_list_recoverable(code, args.p, args.ell, args.L)
    print(f"q={code.q}")
    print(f"n={code.n}")
    print(f"size={code.size}")
    print(f"verdict={'RECOVERABLE' if ok else 'NOT_RECOVERABLE'}")
    if witness is not None:
        center, inside = witness
        print("witness_center=" + " ".join("{" + ",".join(map(str, s)) + "}" for s in center))
        for w in inside:
            print("witness_word=" + " ".join(map(str, w)))
    return 0


# --- wiring ------------------------------------------------------------------


def _add_params_opts(sp: argparse.ArgumentParser, required: bool = False) -> None:
    sp.add_argument("--q", type=int, default=None, required=required)
    sp.add_argument("--ell", type=int, default=None, required=required)
    sp.add_argument("--L", type=int, default=None, required=required)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrb", description="List-recovery thresholds, rate bounds and oracles."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("threshold", help="zero-rate threshold p*(q, ell, L)")
    _add_params_opts(sp, required=True)
    sp.set_defaults(handler=_cmd_threshold)

    sp = sub.add_parser("curve", help="emit a two-column (p, rate) table")
    sp.add_argument("--kind", choices=CURVE_KINDS, required=True)
    _add_params_opts(sp)
    sp.add_argument("--pmin", type=float, default=0.0)
    sp.add_argument("--pmax", type=float, default=None)
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--points", type=int, default=None)
    grp.add_argument("--step", type=float, default=None)
    sp.add_argument("--precision", type=int, default=6)
    sp.add_argument("--out", default=None)
    sp.set_defaults(handler=_cmd_curve)

    sp = sub.add_parser("certify", help="Schur/convexity/monotonicity certificates")
    _add_params_opts(sp, required=True)
    sp.add_argument("--grid", type=int, default=1001)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(handler=_cmd_certify)

    sp = sub.add_parser("oracle", help="exhaustive and randomized experiments")
    osub = sp.add_subparsers(dest="oracle_command", required=True)

    so = osub.add_parser("mc-threshold", help="Monte-Carlo estimate of p*")
    _add_params_opts(so, required=True)
    so.add_argument("--samples", type=int, default=10**6)
    so.add_argument("--seed", type=int, default=1)
    so.set_defaults(handler=_cmd_oracle_mc)

    so = osub.add_parser("expurgate", help="random code with bad subsets removed")
    _add_params_opts(so, required=True)
    so.add_argument("--p", type=float, required=True)
    so.add_argument("--n", type=int, required=True)
    so.add_argument("--rate", type=float, required=True)
    so.add_argument("--seed", type=int, default=1)
    so.add_argument("--save", default=None, help="write the final code to this path")
    so.set_defaults(handler=_cmd_oracle_expurgate)

    so = osub.add_parser("check", help="exhaustive list-recoverability check")
    so.add_argument("--code", required=True, help="path to a 'q n M' code file")
    so.add_argument("--p", type=float, required=True)
    so.add_argument("--ell", type=int, required=True)
    so.add_argument("--L", type=int, required=True)
    so.set_defaults(handler=_cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except exact.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
