"""Zero-rate thresholds and rate bounds for list recovery of q-ary codes.

The library computes the expected-plurality moment functions of i.i.d.
symbol draws, the zero-rate threshold p*(q, ell, L) and its sliced family,
random-coding lower and entropy-inversion upper bounds on rates, numeric
certificates (Schur convexity, convexity and monotonicity of the sliced
moment), explicit list-size constants, and exhaustive small-case oracles.

Importing the package loads none of its modules.  Each public name in
__all__ and each submodule (lrbounds.bounds, ...) is resolved from its home
module on first access (PEP 562 module __getattr__) and then stored as a
plain module attribute.  Names from the exact layer (p*, the entropies, the
comparison curves, BudgetExceededError) therefore come without numpy.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "analysis": (
        "ConvexityCertificate",
        "Distribution",
        "G_ell",
        "MonotonicityCertificate",
        "SchurCertificate",
        "SlicedDistribution",
        "certify_convexity",
        "certify_monotonicity_g",
        "certify_schur",
        "f",
        "f_gradient",
        "f_hessian",
        "g",
        "g_prime",
        "g_second",
        "lipschitz_g",
        "schur_ostrowski_value",
    ),
    "bounds": (
        "BoundCurve",
        "FixedPointResult",
        "PlotkinConstants",
        "ball_volume",
        "ball_volume_bounds",
        "covering_size_bound",
        "covering_size_bound_lr",
        "eb_upper_bound_rate",
        "lower_bound_rate",
        "lr_ball_volume",
        "lr_ball_volume_bounds",
        "mgf",
        "p_star_w",
        "plotkin_constants",
        "solve_lambda_star",
        "tilted_mean",
        "unconstrained_multiplier",
    ),
    "compositions": (
        "Composition",
        "composition_table",
        "enumerate_compositions",
        "majorizes",
        "max_ell_partial_sum",
        "multinomial",
    ),
    "exact": (
        "BudgetExceededError",
        "comparison_gmrsw",
        "comparison_ry_binary4",
        "comparison_ry_qary3",
        "entropy_q",
        "entropy_q_ell",
        "eta_q",
        "zero_rate_threshold",
    ),
    "metrics": (
        "Code",
        "average_radius_ell",
        "hamming_distance",
        "hamming_weight",
        "lr_distance",
        "lr_weight",
        "plurality",
        "plurality_ell",
    ),
    "oracle": (
        "ExpurgationReport",
        "check_list_recoverable",
        "estimate_threshold_mc",
        "exact_avg_radius_min",
        "exact_radius_ell",
        "random_expurgated_code",
        "verify_covering",
    ),
    "params": ("Params",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)
_SUBMODULES = (*_HOMES, "cli")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
