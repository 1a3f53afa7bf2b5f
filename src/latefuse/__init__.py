"""Late-fusion weight learning: combine inducer scores, search weights, rank."""

from .evaluation import EvalReport, UndefinedMetricError, map_at_k
from .fusion import Objective, equal_weights, fuse, make_mse_objective, mse, mse_gradient
from .ingestion import (
    AlignmentError,
    DuplicateKeyError,
    IngestionError,
    InducerTable,
    MissingLabelError,
    ParseError,
    ScoreMatrix,
    apply_minmax,
    assemble,
    fit_minmax,
)
from .optimizers import (
    METHODS,
    NonFiniteObjectiveError,
    OptimizerConfig,
    OptimizerReport,
    optimize,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "DuplicateKeyError",
    "EvalReport",
    "IngestionError",
    "InducerTable",
    "METHODS",
    "MissingLabelError",
    "NonFiniteObjectiveError",
    "Objective",
    "OptimizerConfig",
    "OptimizerReport",
    "ParseError",
    "ScoreMatrix",
    "UndefinedMetricError",
    "apply_minmax",
    "assemble",
    "equal_weights",
    "fit_minmax",
    "fuse",
    "make_mse_objective",
    "map_at_k",
    "mse",
    "mse_gradient",
    "optimize",
]
