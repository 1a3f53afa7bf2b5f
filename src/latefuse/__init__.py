"""Late-fusion weight learning: combine inducer scores, search weights, rank.

A public name loads its submodule on first use (PEP 562), so ``import
latefuse`` loads no numpy: ``python -m latefuse`` can set BLAS's thread
count before numpy reads it.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "AlignmentError": "ingestion",
    "DuplicateKeyError": "ingestion",
    "EvalReport": "evaluation",
    "IngestionError": "ingestion",
    "InducerTable": "ingestion",
    "METHODS": "optimizers",
    "MissingLabelError": "ingestion",
    "NonFiniteObjectiveError": "optimizers",
    "Objective": "fusion",
    "OptimizerConfig": "optimizers",
    "OptimizerReport": "optimizers",
    "ParseError": "ingestion",
    "ScoreMatrix": "ingestion",
    "UndefinedMetricError": "evaluation",
    "apply_minmax": "ingestion",
    "assemble": "ingestion",
    "equal_weights": "fusion",
    "fit_minmax": "ingestion",
    "fuse": "fusion",
    "make_mse_objective": "fusion",
    "map_at_k": "evaluation",
    "mse": "fusion",
    "mse_gradient": "fusion",
    "optimize": "optimizers",
}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value
