"""Late-fusion weight learning: combine inducer scores, search weights, rank."""

from .evaluation import EvalReport, UndefinedMetricError, average_precision_at_k, map_at_k, rank
from .fusion import Objective, equal_weights, fuse, make_mse_objective, mse, mse_gradient
from .ingestion import (
    AlignmentError,
    DuplicateKeyError,
    GroundTruth,
    IngestionError,
    InducerTable,
    MissingLabelError,
    NormalizationParams,
    ParseError,
    ScoreMatrix,
    apply_minmax,
    assemble,
    fit_minmax,
)
from .optimizers import (
    GRADIENT_METHODS,
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
    "GRADIENT_METHODS",
    "GroundTruth",
    "IngestionError",
    "InducerTable",
    "METHODS",
    "MissingLabelError",
    "NonFiniteObjectiveError",
    "NormalizationParams",
    "Objective",
    "OptimizerConfig",
    "OptimizerReport",
    "ParseError",
    "ScoreMatrix",
    "UndefinedMetricError",
    "apply_minmax",
    "assemble",
    "average_precision_at_k",
    "equal_weights",
    "fit_minmax",
    "fuse",
    "make_mse_objective",
    "map_at_k",
    "mse",
    "mse_gradient",
    "optimize",
    "rank",
]
