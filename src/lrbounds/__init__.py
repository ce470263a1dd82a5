"""Zero-rate thresholds and rate bounds for list recovery of q-ary codes.

The library computes the expected-plurality moment functions of i.i.d.
symbol draws, the zero-rate threshold p*(q, ell, L) and its sliced family,
random-coding lower and entropy-inversion upper bounds on rates, numeric
certificates (Schur convexity, convexity and monotonicity of the sliced
moment), explicit list-size constants, and exhaustive small-case oracles.

Importing the package loads none of its modules.  Each submodule
(lrbounds.bounds, ...) and each public name is resolved on first access
(PEP 562 module __getattr__) and then stored as a plain module attribute.
A public name comes from the first module in _MODULES whose __all__ lists
it; the package keeps no list of its own.  The numpy-free modules come
first, so Params, Code and the exact layer (p*, the entropies, the
comparison curves, BudgetExceededError) load no numpy; each numpy module
comes after the modules it imports, and oracle, which none imports, last.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("params", "exact", "metrics", "compositions", "analysis", "bounds", "oracle")
_SUBMODULES = (*_MODULES, "cli")


def _homes():
    """The modules of _MODULES in order, each imported only when reached."""
    return (importlib.import_module(f"{__name__}.{module}") for module in _MODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = sorted({public for home in _homes() for public in home.__all__})
    else:
        home = None if name.startswith("_") else next(
            (module for module in _homes() if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value  # later lookups are plain attribute hits
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__getattr__("__all__")) | set(_SUBMODULES))
