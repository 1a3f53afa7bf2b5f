"""Uniform-weight baseline: no search, every inducer contributes 1/m."""

from __future__ import annotations

from ..fusion import Objective
from .common import OptimizerConfig, OptimizerReport, Search


def optimize_equal(objective: Objective, config: OptimizerConfig, p: dict) -> OptimizerReport:
    search = Search(objective, config)
    search.value(search.best_x)  # the one search evaluation the report counts
    return search.report(iterations=0, converged=True)
