"""Weight-search methods over the box-constrained fusion objective.

``METHODS`` is the one registry: each method's run function and the typed
spec of each of its settings.  A run's settings are one flat mapping, the
shared ``CONFIG_SETTINGS`` and the method's own, which ``check`` checks
once.  ``optimize`` is where every run starts: it builds the run's one
``Search``, which carries the resolved settings and the seed, and calls the
run function with it.
"""

from __future__ import annotations

from collections import ChainMap
from typing import Callable, Mapping, NamedTuple

from ..fusion import Objective
from . import equal, ga, lbfgsb, nelder_mead, pso, tnc, trust_region
from .common import (
    CONFIG_SETTINGS,
    SEED,
    NonFiniteObjectiveError,
    OptimizerReport,
    ParameterError,
    Search,
    Setting,
    check_settings,
    projected_gradient_norm,
)


class Method(NamedTuple):
    run: Callable[[Search], OptimizerReport]
    settings: Mapping[str, Setting]


METHODS = {
    "equal": Method(equal.optimize_equal, {}),
    "pso": Method(pso.optimize_pso, pso.SETTINGS),
    "ga": Method(ga.optimize_ga, ga.SETTINGS),
    "nelder-mead": Method(nelder_mead.optimize_nelder_mead, nelder_mead.SETTINGS),
    "trust-region": Method(trust_region.optimize_trust_region, trust_region.SETTINGS),
    "lbfgsb": Method(lbfgsb.optimize_lbfgsb, lbfgsb.SETTINGS),
    "tnc": Method(tnc.optimize_tnc, tnc.SETTINGS),
}


def check(method: str, settings: Mapping) -> ChainMap:
    """Check a run's method and settings (key, type, finiteness, range) before any work.

    The settings are checked against CONFIG_SETTINGS plus the method's own;
    returns them resolved over the defaults.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}; choose one of {sorted(METHODS)}")
    specs = {**CONFIG_SETTINGS, **METHODS[method].settings}
    return check_settings(specs, settings, f"method {method!r}")


def optimize(method: str, objective: Objective, settings: Mapping | None = None, seed: int = 0) -> OptimizerReport:
    resolved = check(method, settings or {})
    SEED.check("seed", seed, {})
    return METHODS[method].run(Search(objective, method, resolved, seed))


__all__ = [
    "METHODS",
    "Method",
    "NonFiniteObjectiveError",
    "OptimizerReport",
    "ParameterError",
    "Search",
    "Setting",
    "check",
    "optimize",
    "projected_gradient_norm",
]
