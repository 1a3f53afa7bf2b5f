"""Weight-search methods over the box-constrained fusion objective.

``METHODS`` is the one registry: each method's run function, whether it needs
the objective's gradient, and the typed spec of each of its settings.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

from ..fusion import Objective, equal_weights
from . import equal, ga, lbfgsb, nelder_mead, pso, tnc, trust_region
from .common import (
    CONFIG_SETTINGS,
    NonFiniteObjectiveError,
    OptimizerConfig,
    OptimizerReport,
    ParameterError,
    Search,
    Setting,
    check_settings,
    projected_gradient_norm,
)


class Method(NamedTuple):
    run: Callable[[Objective, OptimizerConfig, dict], OptimizerReport]
    settings: Mapping[str, Setting]
    gradient: bool = False


METHODS = {
    "equal": Method(equal.optimize_equal, {}),
    "pso": Method(pso.optimize_pso, pso.SETTINGS),
    "ga": Method(ga.optimize_ga, ga.SETTINGS),
    "nelder-mead": Method(nelder_mead.optimize_nelder_mead, nelder_mead.SETTINGS),
    "trust-region": Method(trust_region.optimize_trust_region, trust_region.SETTINGS, gradient=True),
    "lbfgsb": Method(lbfgsb.optimize_lbfgsb, lbfgsb.SETTINGS, gradient=True),
    "tnc": Method(tnc.optimize_tnc, tnc.SETTINGS, gradient=True),
}

GRADIENT_METHODS = tuple(name for name, m in METHODS.items() if m.gradient)


def _lookup(method: str) -> Method:
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}; choose one of {sorted(METHODS)}")
    return METHODS[method]


def resolve(method: str, overrides: Mapping) -> tuple[dict, dict]:
    """Check a run's overrides (key, type, finiteness, range) before any data is read.

    Returns them, as given, split into OptimizerConfig fields and method params.
    """
    settings = {**CONFIG_SETTINGS, **_lookup(method).settings}
    check_settings(settings, overrides, f"method {method!r}")
    config_fields = {k: v for k, v in overrides.items() if k in CONFIG_SETTINGS}
    method_params = {k: v for k, v in overrides.items() if k not in CONFIG_SETTINGS}
    return config_fields, method_params


def optimize(method: str, objective: Objective, config: OptimizerConfig) -> OptimizerReport:
    spec = _lookup(method)
    params = check_settings(spec.settings, config.method_params, f"method {method!r}")
    equal_weights(objective.dimension)  # every method's start; raises for an objective without inducers
    report = spec.run(objective, config, params)
    report.method = method
    return report


__all__ = [
    "GRADIENT_METHODS",
    "METHODS",
    "Method",
    "NonFiniteObjectiveError",
    "OptimizerConfig",
    "OptimizerReport",
    "ParameterError",
    "Search",
    "Setting",
    "optimize",
    "projected_gradient_norm",
    "resolve",
]
