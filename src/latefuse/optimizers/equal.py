"""Uniform-weight baseline: no search, every inducer contributes 1/m."""

from __future__ import annotations

from ..fusion import Objective
from .common import CountingObjective, Incumbent, OptimizerConfig, OptimizerReport, equal_start, make_report


def optimize_equal(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    counting = CountingObjective(objective)
    incumbent = Incumbent(counting)
    x = equal_start(config)
    counting.value(x)  # the one search evaluation the report counts
    incumbent.consider(x, 0)
    return make_report(config, incumbent, counting, iterations=0, converged=True)
