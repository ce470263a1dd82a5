"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

import checker  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def pstars():
    return plan.pstar_table()


@pytest.fixture(scope="module")
def expected():
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(plan.SESSIONS))
def test_same_seed_same_plan_other_seed_other_plan(workload, pstars):
    a = plan.make_plan(workload, 7, 1, pstars)
    assert a == plan.make_plan(workload, 7, 1, pstars)
    assert a != plan.make_plan(workload, 8, 1, pstars)


@pytest.mark.parametrize("workload", sorted(plan.SESSIONS))
def test_every_request_has_a_seed_entry(workload, pstars, expected):
    for seed in range(5):
        for req in plan.make_plan(workload, seed, 1, pstars):
            assert checker.expected_key(req) in expected


def test_sessions_have_fixed_composition(pstars):
    a = plan.make_plan("lib-sliced", 1, 1, pstars)
    b = plan.make_plan("lib-sliced", 2, 1, pstars)
    assert sorted(map(plan.params_key, a)) == sorted(map(plan.params_key, b))


def test_exact_pstar_matches_known_values():
    assert plan.exact_pstar(3, 1, 3) == plan.Fraction(10, 27)
    assert plan.exact_pstar(2, 1, 4) == plan.Fraction(5, 16)


def _seed_answers(workload, pstars, expected):
    """Results that give every lib request its seed answer (or seed error)."""
    reqs = plan.make_plan(workload, 3, 1, pstars)
    results = []
    for req in reqs:
        entry = expected[checker.expected_key(req)]
        res = {"value": entry["value"]} if "value" in entry else {"error": entry["error"]}
        results.append(dict(res, id=req["id"], lat=0.001))
    return reqs, results


def test_checker_accepts_seed_answers_and_counts_known_failures(pstars, expected):
    reqs, results = _seed_answers("lib-rates", pstars, expected)
    verdict = checker.check(reqs, results, expected, pstars)
    assert verdict["correct"]
    assert verdict["failed"] == sum("error" in r for r in results) > 0
    assert all("(2,1,1100)" in label for label in verdict["failures"])


def test_checker_rejects_perturbed_value_and_exception(pstars, expected):
    reqs, results = _seed_answers("lib-rates", pstars, expected)
    base = checker.check(reqs, results, expected, pstars)["failed"]
    ok = [i for i, r in enumerate(results) if "value" in r and reqs[i]["kind"] == "lower"]
    results[ok[0]]["value"] += 1e-5
    del results[ok[1]]["value"]
    results[ok[1]]["error"] = "ZeroDivisionError: boom"
    verdict = checker.check(reqs, results, expected, pstars)
    assert not verdict["correct"]
    assert verdict["failed"] == base + 2
    assert len(verdict["regressions"]) == 2


def test_checker_plausibility_where_the_seed_failed(pstars, expected):
    reqs = [r for r in plan.make_plan("lib-rates", 3, 1, pstars)
            if r["kind"] == "lower" and r["params"] == (2, 1, 1100) and r["k"] > 0]
    rising = [{"id": r["id"], "lat": 0.0, "value": r["p"]} for r in reqs]
    falling = [{"id": r["id"], "lat": 0.0, "value": 0.5 - r["p"]} for r in reqs]
    assert checker.check(reqs, falling, expected, pstars)["failed"] == 0
    assert checker.check(reqs, rising, expected, pstars)["failed"] == len(reqs)


@pytest.mark.parametrize("n", [11, 60, 264, 1040])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)]
    value, pct, got_n = run.tail(samples)
    assert got_n == n
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * (n - 10) / n)


@pytest.mark.parametrize("workload", sorted(plan.SESSIONS))
def test_every_pass_plays_every_request_once_and_checks_follow_their_code(workload, pstars):
    reqs = plan.make_plan(workload, 5, 16, pstars)
    orders = plan.pass_orders(reqs, workload, 5)
    assert len(orders) == plan.PASSES[workload]
    assert orders == plan.pass_orders(reqs, workload, 5)
    for order in orders:
        assert sorted(order) == [r["id"] for r in reqs]
        for before, rid in zip(order, order[1:]):
            if reqs[rid]["kind"] == "check":
                assert reqs[before]["kind"] == "expurgate"
                assert reqs[before]["code"] == reqs[rid]["code"]


def test_check_passes_counts_every_timing(pstars, expected):
    reqs, results = _seed_answers("lib-rates", pstars, expected)
    one = checker.check(reqs, results, expected, pstars)
    both = checker.check_passes(reqs, [results, results], expected, pstars)
    assert both["correct"] and both["attempted"] == 2 * one["attempted"]
    assert both["failed"] == 2 * one["failed"]


def test_missing_functions_report_zero():
    metrics = spans.layer_metrics({"functions": {}, "counters": {}}, 1.0)
    assert metrics["analysis.g.calls"] == {"value": 0, "unit": "count"}
    assert metrics["bounds.p_star_w.calls_per_eb"]["value"] == 0.0


def test_self_time_excludes_children():
    out = spans.summarize({"names": ["a", "b"], "fn": [0, 1, 1], "parent": [-1, 0, 0],
                           "start": [0.0, 1.0, 3.0], "end": [10.0, 2.0, 5.0], "counters": {}})
    assert out["functions"]["a"] == [1, 7.0]
    assert out["functions"]["b"] == [2, 3.0]


@pytest.mark.parametrize("argv", [
    ["threshold", "--q", "3", "--ell", "1", "--L", "3"],
    ["curve", "--kind", "upper", "--q", "4", "--ell", "2", "--L", "6", "--points", "5"],
    ["certify", "--q", "3", "--ell", "2", "--L", "3"],
    ["threshold", "--q", "2", "--ell", "3", "--L", "3"],
])
def test_tracing_leaves_stdout_byte_identical(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    plain = subprocess.run([sys.executable, "-m", "lrbounds", *argv],
                           capture_output=True, env=env, cwd=tmp_path)
    span_file = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, os.path.join(BENCH, "launcher.py"), str(span_file),
                             *argv], capture_output=True, env=env, cwd=tmp_path)
    assert traced.stdout == plain.stdout
    assert traced.returncode == plain.returncode
    summary = spans.summarize(json.loads(span_file.read_text()))
    assert summary["functions"]["cli.main"][0] == 1
    if argv[1:3] == ["--kind", "upper"]:
        # g is reached through bounds' own `from .analysis import g` binding
        assert summary["functions"]["analysis.g"][0] > 0
        assert summary["functions"]["bounds.eb_upper_bound_rate"][0] > 0
