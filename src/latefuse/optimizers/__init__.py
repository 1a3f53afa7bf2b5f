"""Weight-search methods over the box-constrained fusion objective.

``METHODS`` is the one registry: each method's run function and the typed
spec of each of its settings.  A run's settings are one flat mapping, the
shared ``CONFIG_SETTINGS`` and the method's own, which ``check`` checks
once.  ``optimize`` is where every run starts: it builds the run's one
``Search``, which carries the resolved settings and the seed, and calls the
run function with it.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from ..fusion import Objective
from . import equal, ga, lbfgsb, nelder_mead, pso, tnc, trust_region
from .common import CONFIG_SETTINGS, SEED, ParameterError, Search, Setting


class Method(NamedTuple):
    run: Callable[[Search], Search]
    settings: Mapping[str, Setting]


METHODS = {
    "equal": Method(equal.optimize_equal, {}),
    "pso": Method(pso.optimize_pso, pso.SETTINGS),
    "ga": Method(ga.optimize_ga, ga.SETTINGS),
    "nelder-mead": Method(nelder_mead.optimize_nelder_mead, {}),
    "trust-region": Method(trust_region.optimize_trust_region, {}),
    "lbfgsb": Method(lbfgsb.optimize_lbfgsb, {}),
    "tnc": Method(tnc.optimize_tnc, {}),
}


def check(method: str, settings: Mapping) -> dict:
    """Check a run's method and settings (key, type, finiteness, range) before any work.

    The settings are checked against CONFIG_SETTINGS plus the method's own;
    returns them resolved: each given value, else its default.
    """
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}; choose one of {sorted(METHODS)}")
    specs = {**CONFIG_SETTINGS, **METHODS[method].settings}
    for key, value in settings.items():
        if key not in specs:
            raise ParameterError(
                f"unknown method parameter {key!r} for method {method!r}; valid keys: {sorted(specs)}"
            )
        specs[key].check(key, value)
    return {key: settings.get(key, spec.default) for key, spec in specs.items()}


def optimize(method: str, objective: Objective, settings: Mapping | None = None, seed: int = 0) -> Search:
    resolved = check(method, settings or {})
    SEED.check("seed", seed)
    return METHODS[method].run(Search(objective, method, resolved, seed))

