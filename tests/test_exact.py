"""The numpy-free exact layer, and the lazy package layout that keeps it numpy-free."""

import importlib
import os
import subprocess
import sys

import pytest

import lrbounds
from lrbounds import bounds, exact, oracle

from reference import ref_orbits

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_child(code):
    # the child imports lrbounds from this checkout, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_orbits_match_reference():
    for q in range(1, 9):
        for m in range(13):
            assert list(exact._orbits(q, m)) == ref_orbits(q, m), (q, m)
    for q, m in [(3, 300), (2, 1100), (5, 40)]:
        assert list(exact._orbits(q, m)) == ref_orbits(q, m), (q, m)


def test_radius_counts_match_tail_mass():
    # the identity `lrb threshold` checks: sum_t t N_t == sum_s c_s, two independent exact ints
    for q in range(2, 6):
        for ell in range(1, q):
            for L in range(2, 7):
                N = exact._radius_counts(q, ell, L)
                assert len(N) == L + 1 and sum(N) == q**L
                assert sum(t * n for t, n in enumerate(N)) == sum(
                    exact._tail_mass_coefficients(q, ell, L)), (q, ell, L)
    for q, ell, L in [(8, 2, 10), (3, 2, 3), (3, 1, 300), (2, 1, 1100)]:
        mass = sum(exact._tail_mass_coefficients(q, ell, L))
        assert sum(t * n for t, n in enumerate(exact._radius_counts(q, ell, L))) == mass
        total = L * q**L
        assert exact.zero_rate_threshold(lrbounds.Params(q, ell, L)) == (total - mass) / total


def test_moved_objects_keep_their_old_homes():
    for name in ("zero_rate_threshold", "_entropy", "entropy_q", "entropy_q_ell", "eta_q",
                 "comparison_gmrsw", "comparison_ry_binary4", "comparison_ry_qary3"):
        assert getattr(bounds, name) is getattr(exact, name), name
        assert name.startswith("_") or name in bounds.__all__
    assert oracle.BudgetExceededError is exact.BudgetExceededError
    assert "BudgetExceededError" in oracle.__all__


# The package's names before each one was listed only in its module's __all__, less the
# deleted BoundCurve, and the three names a module listed but the package could not reach.
PACKAGE_NAMES = (
    "BudgetExceededError", "Code", "Composition", "ConvexityCertificate", "Distribution",
    "ExpurgationReport", "FixedPointResult", "G_ell", "MonotonicityCertificate", "Params",
    "PlotkinConstants", "SchurCertificate", "SlicedDistribution", "average_radius_ell",
    "ball_volume", "ball_volume_bounds", "certify_convexity", "certify_monotonicity_g",
    "certify_schur", "check_list_recoverable", "comparison_gmrsw", "comparison_ry_binary4",
    "comparison_ry_qary3", "composition_table", "covering_size_bound", "covering_size_bound_lr",
    "eb_upper_bound_rate", "entropy_q", "entropy_q_ell", "enumerate_compositions",
    "estimate_threshold_mc", "eta_q", "exact_avg_radius_min", "exact_radius_ell", "f",
    "f_gradient", "f_hessian", "g", "g_prime", "g_second", "hamming_distance", "hamming_weight",
    "lipschitz_g", "lower_bound_rate", "lr_ball_volume", "lr_ball_volume_bounds", "lr_distance",
    "lr_weight", "majorizes", "max_ell_partial_sum", "mgf", "multinomial", "p_star_w",
    "plotkin_constants", "plurality", "plurality_ell", "random_expurgated_code",
    "schur_ostrowski_value", "solve_lambda_star", "tilted_mean", "unconstrained_multiplier",
    "verify_covering", "zero_rate_threshold",
)
ADDED_NAMES = ("CENTER_BUDGET", "CompositionTable", "POINT_BUDGET")


def _modules():
    package = os.path.join(SRC, "lrbounds")
    return [importlib.import_module(f"lrbounds.{name[:-3]}") for name in sorted(os.listdir(package))
            if name.endswith(".py") and not name.startswith("__")]


def test_package_names_resolve_from_their_homes():
    assert len(PACKAGE_NAMES) == 63 and lrbounds.__all__ == sorted(PACKAGE_NAMES + ADDED_NAMES)
    for name in lrbounds.__all__:
        homes = [module for module in _modules() if name in getattr(module, "__all__", ())]
        assert homes, name
        assert all(getattr(lrbounds, name) is getattr(home, name) for home in homes), name
        assert name in vars(lrbounds)  # stored: later lookups skip __getattr__
    assert set(lrbounds.__all__) <= set(dir(lrbounds))
    assert {"bounds", "exact", "cli"} <= set(dir(lrbounds))
    assert lrbounds.__version__ == "0.1.0"


def test_a_name_listed_twice_is_one_object():
    listed = {}
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            listed.setdefault(name, []).append(getattr(module, name))
    assert {name: objs for name, objs in listed.items() if len(set(map(id, objs))) > 1} == {}
    assert sum(len(objs) > 1 for objs in listed.values()) == 8  # bounds' 7 from exact, oracle's 1


def test_package_reaches_the_budgets_and_the_table_type():
    assert lrbounds.CENTER_BUDGET is oracle.CENTER_BUDGET
    assert lrbounds.POINT_BUDGET is oracle.POINT_BUDGET
    assert lrbounds.CompositionTable is importlib.import_module("lrbounds.compositions").CompositionTable


def test_unknown_package_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        lrbounds.no_such_name  # noqa: B018
    assert not hasattr(lrbounds, "_orbits")
    with pytest.raises(ImportError):
        from lrbounds import no_such_name  # noqa: F401


THRESHOLDS = [["threshold", "--q", str(q), "--ell", str(ell), "--L", str(L)]
              for q, ell, L in [(2, 1, 3), (3, 1, 300), (2, 1, 1100)]]
COMPARISONS = [["curve", "--kind", "gmrsw"], ["curve", "--kind", "ry-binary-4"],
               ["curve", "--kind", "ry-qary-3", "--q", "4"]]


def test_threshold_and_comparison_curves_never_import_numpy():
    res = run_child(f"""
import contextlib, io, sys
import lrbounds
assert "numpy" not in sys.modules, "import lrbounds"
assert not hasattr(lrbounds, "_orbits")
assert [m for m in sys.modules if m.startswith("lrbounds")] == ["lrbounds"], "a private name"
assert lrbounds.Code and lrbounds.Params
assert "numpy" not in sys.modules, "private names, Code and Params on the package"
from lrbounds import cli
for argv in {THRESHOLDS + COMPARISONS!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == 0, argv
    assert "numpy" not in sys.modules, argv
assert lrbounds.zero_rate_threshold(lrbounds.Params(2, 1, 3)) == 0.25
assert "numpy" not in sys.modules, "exact names on the package"
from fractions import Fraction
from lrbounds.exact import _slice_numerators
assert Fraction(_slice_numerators(7, 3, 4, 2)[0], 12**4) == Fraction(-2, 3)
assert len(_slice_numerators(8, 2, 10, 2)) == 9
assert "numpy" not in sys.modules, "g's integer Bernstein numerators"
mod = lrbounds.bounds  # no explicit import of lrbounds.bounds anywhere above
assert mod is sys.modules["lrbounds.bounds"] and "numpy" in sys.modules
print("ok")
""")
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ok\n"


def test_lower_curve_does_import_numpy():
    # the check above is not vacuous: a subcommand that forms arrays loads numpy
    res = run_child("""
import contextlib, io, sys
from lrbounds import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["curve", "--kind", "lower", "--q", "2", "--ell", "1", "--L", "3"])
print(code, "numpy" in sys.modules)
""")
    assert res.stdout == "0 True\n", res.stderr


def test_exact_imports_only_the_stdlib_and_params():
    res = run_child("""
import sys
import lrbounds.exact
print(sorted(m for m in sys.modules if m.startswith("lrbounds")), "numpy" in sys.modules)
""")
    assert res.stdout == "['lrbounds', 'lrbounds.exact', 'lrbounds.params'] False\n", res.stderr
