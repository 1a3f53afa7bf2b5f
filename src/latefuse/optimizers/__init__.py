"""Weight-search methods over the box-constrained fusion objective."""

from __future__ import annotations

from ..fusion import Objective
from . import equal, ga, lbfgsb, nelder_mead, pso, tnc, trust_region
from .common import (
    CountingObjective,
    Incumbent,
    NonFiniteObjectiveError,
    OptimizerConfig,
    OptimizerReport,
    ParameterError,
    equal_start,
    projected_gradient_norm,
)

METHODS = {
    "equal": equal.optimize_equal,
    "pso": pso.optimize_pso,
    "ga": ga.optimize_ga,
    "nelder-mead": nelder_mead.optimize_nelder_mead,
    "trust-region": trust_region.optimize_trust_region,
    "lbfgsb": lbfgsb.optimize_lbfgsb,
    "tnc": tnc.optimize_tnc,
}

METHOD_PARAM_KEYS = {
    "equal": frozenset(),
    "pso": frozenset(pso.DEFAULTS),
    "ga": frozenset(ga.DEFAULTS),
    "nelder-mead": frozenset(nelder_mead.DEFAULTS),
    "trust-region": frozenset(trust_region.DEFAULTS),
    "lbfgsb": frozenset(lbfgsb.DEFAULTS),
    "tnc": frozenset(tnc.DEFAULTS),
}

GRADIENT_METHODS = ("trust-region", "lbfgsb", "tnc")


def optimize(method: str, objective: Objective, config: OptimizerConfig) -> OptimizerReport:
    try:
        run = METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose one of {sorted(METHODS)}"
        ) from None
    return run(objective, config)


__all__ = [
    "CountingObjective",
    "GRADIENT_METHODS",
    "Incumbent",
    "METHODS",
    "METHOD_PARAM_KEYS",
    "NonFiniteObjectiveError",
    "OptimizerConfig",
    "OptimizerReport",
    "ParameterError",
    "equal_start",
    "optimize",
    "projected_gradient_norm",
]
