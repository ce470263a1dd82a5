import math
import os
import subprocess
import sys

import pytest

from lrbounds import Code
import lrbounds.bounds
from lrbounds.cli import _curve_grid, main, read_code_file, write_code_file


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("LRB_THREADS", None)
    # the child imports lrbounds from this checkout, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "lrbounds", *args],
        capture_output=True,
        env=env,
    )


def parse_kv(out):
    pairs = {}
    for line in out.decode().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            pairs[key] = val
    return pairs


def test_threshold_known_values():
    for args, want in [
        (("--q", "2", "--ell", "1", "--L", "2"), b"0.250000000000\n"),
        (("--q", "2", "--ell", "1", "--L", "4"), b"0.312500000000\n"),
        (("--q", "3", "--ell", "1", "--L", "2"), b"0.333333333333\n"),
    ]:
        res = run_cli("threshold", *args)
        assert res.returncode == 0
        assert res.stdout == want
        assert b"consistency=PASS" in res.stderr


def test_threshold_large_L():
    # C(1100, 550) overflows a float; p* and p_star_w(w*) must not
    res = run_cli("threshold", "--q", "2", "--ell", "1", "--L", "1100")
    assert res.returncode == 0
    assert b"consistency=PASS" in res.stderr


def test_threshold_invalid_params_exit_2():
    res = run_cli("threshold", "--q", "1", "--ell", "1", "--L", "2")
    assert res.returncode == 2
    assert res.stdout == b""
    assert b"error" in res.stderr.lower()


def test_missing_subcommand_exit_2():
    res = run_cli()
    assert res.returncode == 2


def test_curve_format_and_grid():
    res = run_cli(
        "curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "3",
        "--points", "7",
    )
    assert res.returncode == 0
    lines = res.stdout.decode().splitlines()
    assert len(lines) == 7
    ps, rates = [], []
    for line in lines:
        a, b = line.split(" ")
        # 6 decimal places on both columns
        assert len(a.split(".")[1]) == 6
        assert len(b.split(".")[1]) == 6
        ps.append(float(a))
        rates.append(float(b))
    assert ps == sorted(ps)
    assert len(set(ps)) == len(ps)
    assert all(r >= 0.0 for r in rates)
    assert rates[0] == pytest.approx(1.0)
    assert rates[-1] == pytest.approx(0.0)


def test_curve_upper_first_line():
    res = run_cli("curve", "--kind", "upper", "--q", "3", "--ell", "2", "--L", "3")
    assert res.returncode == 0
    assert res.stdout.decode().splitlines()[0] == "0.000000 0.369070"


def test_curve_deterministic_and_thread_invariant():
    args = (
        "curve", "--kind", "upper", "--q", "4", "--ell", "2", "--L", "5",
        "--points", "40",
    )
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, env_extra={"LRB_THREADS": "4"})
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout == c.stdout


def test_curve_rejects_non_integer_thread_count():
    res = run_cli(
        "curve", "--kind", "gmrsw", "--points", "5", env_extra={"LRB_THREADS": "two"}
    )
    assert res.returncode == 2
    assert b"LRB_THREADS" in res.stderr


def test_curve_lower_large_L():
    res = run_cli("curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "1100", "--points", "8")
    assert res.returncode == 0, res.stderr
    rates = [float(line.split()[1]) for line in res.stdout.decode().splitlines()]
    assert len(rates) == 8 and rates[0] == 1.0 and rates[-1] == 0.0


def test_curve_precision_and_out_file(tmp_path):
    out = tmp_path / "curve.dat"
    res = run_cli(
        "curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "2",
        "--points", "5", "--precision", "9", "--out", str(out),
    )
    assert res.returncode == 0
    data = out.read_text().splitlines()
    assert len(data) == 5
    assert len(data[0].split(" ")[1].split(".")[1]) == 9


def test_curve_too_dense_for_precision_exits_before_any_rate(monkeypatch, capsys, tmp_path):
    def no_rates(params, p):
        raise AssertionError("a rate was computed for a grid that cannot be printed")

    monkeypatch.setattr(lrbounds.bounds, "lower_bound_rate", no_rates)
    out = tmp_path / "curve.dat"
    code = main([
        "curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "3",
        "--points", "20000", "--precision", "2", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "grid too dense for --precision" in captured.err
    assert not out.exists()


def test_curve_clamps_beyond_threshold():
    res = run_cli(
        "curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "2",
        "--points", "4", "--pmax", "0.4",
    )
    assert res.returncode == 0
    assert b"clamped" in res.stderr
    lines = res.stdout.decode().splitlines()
    assert lines[-1].split(" ")[0] == "0.250000"
    assert lines[-1].split(" ")[1] == "0.000000"


@pytest.mark.parametrize("kind", ["lower", "upper"])
def test_curve_pmin_past_threshold_exit_2(kind):
    # p*(2,1,3) = 1/4: a grid from 0.3 has no point at or below p* to print
    args = ("curve", "--kind", kind, "--q", "2", "--ell", "1", "--L", "3", "--pmax", "0.5",
            "--points", "3")
    res = run_cli(*args, "--pmin", "0.3")
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr == b"error: need pmin <= p_star=0.250000000000, got pmin=0.3\n"
    res = run_cli(*args, "--pmin", "0.25")  # p* itself is still a grid point
    assert res.returncode == 0, res.stderr
    assert res.stdout == b"0.250000 0.000000\n"


def test_curve_points_and_step_are_exclusive():
    res = run_cli(
        "curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "2",
        "--points", "5", "--step", "0.01",
    )
    assert res.returncode == 2


def test_curve_step_grid():
    res = run_cli(
        "curve", "--kind", "upper", "--q", "2", "--ell", "1", "--L", "3",
        "--step", "0.05", "--pmax", "0.2",
    )
    assert res.returncode == 0
    ps = [line.split(" ")[0] for line in res.stdout.decode().splitlines()]
    assert ps == ["0.000000", "0.050000", "0.100000", "0.150000", "0.200000"]


def test_curve_grid_rejects_non_finite_step():
    # a NaN step never passes pmax, so the grid used to grow without bound
    for step, shown in [(math.nan, "nan"), (math.inf, "inf"), (0.0, "0.0"), (-0.1, "-0.1")]:
        with pytest.raises(ValueError, match=f"need finite step > 0, got {shown}"):
            _curve_grid(0.0, 0.25, None, step)
    assert _curve_grid(0.0, 0.2, None, 0.1) == [0.0, 0.1, 0.2]


def test_curve_grid_needs_two_points():
    for points in (1, 0):
        with pytest.raises(ValueError, match=f"need points >= 2, got {points}"):
            _curve_grid(0.0, 0.25, points, None)


def test_curve_nan_step_exit_2():
    for step in ("nan", "inf"):
        res = run_cli("curve", "--kind", "gmrsw", "--step", step)
        assert res.returncode == 2
        assert res.stdout == b""
        assert f"error: need finite step > 0, got {step}".encode() in res.stderr


def test_certify_pass_and_exit_codes():
    # (2,1,1100): the Schur sums hold multinomials beyond float, C(1099, 549) ~ 1e329
    for q, ell, L in [(2, 1, 2), (3, 1, 4), (4, 2, 5), (2, 1, 1100)]:
        res = run_cli("certify", "--q", str(q), "--ell", str(ell), "--L", str(L))
        assert res.returncode == 0, res.stdout
        kv = parse_kv(res.stdout)
        assert kv["overall"] == "PASS"
        assert kv["schur"] == "PASS"
        assert kv["convexity"] == "PASS"
        assert kv["monotonicity"] == "PASS"


def test_certify_deterministic():
    args = ("certify", "--q", "8", "--ell", "2", "--L", "10")
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_certify_reports_convexity_failure():
    res = run_cli("certify", "--q", "3", "--ell", "2", "--L", "3")
    assert res.returncode == 3
    kv = parse_kv(res.stdout)
    assert kv["convexity"] == "FAIL"
    assert kv["overall"] == "FAIL"
    assert int(kv["convexity_violations"]) > 0
    assert float(kv["convexity_min"]) < -1e-9


def test_certify_rejects_a_tolerance_that_is_not_finite_and_non_negative():
    # at (3,2,3) --tol inf used to print overall=PASS although g''(1) = -3
    for tol in ("nan", "inf", "-1"):
        res = run_cli("certify", "--q", "3", "--ell", "2", "--L", "3", "--tol", tol)
        assert res.returncode == 2
        assert res.stdout == b""
        assert res.stderr == f"error: need finite tolerance >= 0, got {float(tol)}\n".encode()


def test_oracle_mc_threshold_output():
    args = (
        "oracle", "mc-threshold", "--q", "2", "--ell", "1", "--L", "2",
        "--samples", "100000", "--seed", "7",
    )
    res = run_cli(*args)
    assert res.returncode == 0
    kv = parse_kv(res.stdout)
    assert kv["samples"] == "100000"
    assert kv["seed"] == "7"
    assert abs(float(kv["z"])) < 5.0
    assert float(kv["closed_form"]) == pytest.approx(0.25)
    again = run_cli(*args)
    assert again.stdout == res.stdout


def test_oracle_expurgate_save_roundtrip(tmp_path):
    path = tmp_path / "code.txt"
    res = run_cli(
        "oracle", "expurgate", "--q", "2", "--ell", "1", "--L", "2",
        "--p", "0.1", "--n", "8", "--rate", "0.25", "--seed", "9",
        "--save", str(path),
    )
    assert res.returncode == 0
    kv = parse_kv(res.stdout)
    assert kv["post_check"] == "PASS"
    assert kv["full_check"] == "PASS"
    code = read_code_file(str(path))
    assert code.q == 2 and code.n == 8
    assert code.size == int(kv["achieved_size"])


def test_oracle_expurgate_skips_full_check_over_budget():
    res = run_cli(
        "oracle", "expurgate", "--q", "2", "--ell", "1", "--L", "2",
        "--p", "0.1", "--n", "30", "--rate", "0.05", "--seed", "1",
    )
    assert res.returncode == 0
    kv = parse_kv(res.stdout)
    assert kv["post_check"] == "PASS"
    assert kv["full_check"] == "SKIPPED"


def test_oracle_expurgate_over_budget_exit_4():
    res = run_cli(
        "oracle", "expurgate", "--q", "2", "--ell", "1", "--L", "2",
        "--p", "0.1", "--n", "40", "--rate", "1",
    )
    assert res.returncode == 4
    assert res.stdout == b""
    assert b"budget" in res.stderr.lower() and b"Traceback" not in res.stderr


def test_oracle_check_both_verdicts(tmp_path):
    good = tmp_path / "good.txt"
    write_code_file(str(good), Code(2, 4, ((1, 1, 1, 1), (2, 2, 2, 2))))
    res = run_cli("oracle", "check", "--code", str(good), "--p", "0.3",
                  "--ell", "1", "--L", "2")
    assert res.returncode == 0
    assert parse_kv(res.stdout)["verdict"] == "RECOVERABLE"

    bad = tmp_path / "bad.txt"
    write_code_file(str(bad), Code(2, 3, ((1, 1, 1), (1, 1, 2), (2, 2, 2))))
    res = run_cli("oracle", "check", "--code", str(bad), "--p", "0.34",
                  "--ell", "1", "--L", "2")
    assert res.returncode == 0
    out = res.stdout.decode()
    assert parse_kv(res.stdout)["verdict"] == "NOT_RECOVERABLE"
    assert "witness_center=" in out
    assert out.count("witness_word=") >= 2


def test_oracle_check_budget_exit_4(tmp_path):
    path = tmp_path / "big.txt"
    words = tuple(
        tuple(1 if i != j else 2 for i in range(13)) for j in range(3)
    )
    write_code_file(str(path), Code(3, 13, words))
    res = run_cli("oracle", "check", "--code", str(path), "--p", "0.1",
                  "--ell", "1", "--L", "2")
    assert res.returncode == 4
    assert b"budget" in res.stderr.lower()


def test_code_file_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    code = Code(3, 2, ((1, 2), (3, 1), (2, 2)))
    write_code_file(str(path), code)
    back = read_code_file(str(path))
    assert back == code
    # comments and the header survive a manual edit
    text = path.read_text()
    path.write_text("# a comment\n" + text)
    assert read_code_file(str(path)) == code


def test_code_file_rejects_garbage(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("2 2 1\n1 3\n")
    res = run_cli("oracle", "check", "--code", str(path), "--p", "0.1",
                  "--ell", "1", "--L", "2")
    assert res.returncode == 2


# stdout of each curve kind at one small setting, pinned byte for byte
CURVE_BYTES = [
    (("--kind", "lower", "--q", "2", "--ell", "1", "--L", "3", "--points", "5"),
     "0.000000 1.000000\n0.062500 0.503304\n0.125000 0.225603\n"
     "0.187500 0.059880\n0.250000 0.000000\n"),
    (("--kind", "upper", "--q", "2", "--ell", "1", "--L", "3", "--points", "5"),
     "0.000000 1.000000\n0.062500 0.645421\n0.125000 0.399124\n"
     "0.187500 0.188722\n0.250000 0.000000\n"),
    (("--kind", "gmrsw", "--points", "4"),
     "0.000000 1.000000\n0.111111 0.276692\n0.222222 0.012531\n0.333333 0.207519\n"),
    (("--kind", "ry-binary-4", "--points", "4"),
     "0.000000 1.000000\n0.166667 0.179981\n0.333333 0.000000\n0.500000 0.000000\n"),
    (("--kind", "ry-qary-3", "--q", "4", "--points", "4"),
     "0.000000 1.000000\n0.222222 0.215644\n0.444444 0.000000\n0.666667 0.000000\n"),
]


@pytest.mark.parametrize("args,want", CURVE_BYTES, ids=[a[1] for a, _ in CURVE_BYTES])
def test_curve_kind_bytes(args, want):
    res = run_cli("curve", *args)
    assert res.returncode == 0, res.stderr
    assert res.stdout == want.encode()


@pytest.mark.parametrize("args", [
    ("--kind", "ry-qary-3"),
    ("--kind", "ry-qary-3", "--q", "2"),
    ("--kind", "gmrsw", "--pmax", "0.4"),
    ("--kind", "ry-binary-4", "--pmax", "1.5"),
], ids=["qary-no-q", "qary-q2", "gmrsw-pmax", "binary4-pmax"])
def test_curve_out_of_range_exit_2(args):
    # every rate is formed before anything is written, so stdout stays empty
    res = run_cli("curve", *args)
    assert res.returncode == 2
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: ")
