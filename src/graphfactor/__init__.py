"""graphfactor: node embeddings from multi-view graph tensors.

The pipeline: build a K-nearest-neighbor proximity view from node
features (cosine similarity), stack it with the graph adjacency into a
three-mode tensor, factorize by alternating least squares, read node
embeddings off the node factor, then evaluate them with one-vs-rest
logistic regression and interpret per-view component weights.
"""

from .cpals import (
    AlsConfig,
    FactorModel,
    als_step,
    decompose,
    init_factors,
    load_model,
    save_model,
)
from .dataio import (
    Graph,
    LabelSet,
    load_edge_list,
    load_features,
    load_labels,
)
from .embedding import extract_embeddings, prune_dimensions
from .errors import DataError, NumericalError, ParseError, PipelineError
from .evaluate import (
    EvalConfig,
    EvalReport,
    OvrClassifier,
    evaluate,
    macro_f1,
    micro_f1,
    predict,
    train_ovr,
)
from .interpret import (
    dimension_correlation,
    pruning_report,
    view_weights,
    write_weights_csv,
)
from .knn import KnnView, build_knn_view
from .pipeline import PipelineConfig, run_pipeline, sweep
from .tensor import Tensor3, mttkrp, reconstruct_view, stack_views

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "DataError",
    "EvalConfig",
    "EvalReport",
    "FactorModel",
    "Graph",
    "KnnView",
    "LabelSet",
    "NumericalError",
    "OvrClassifier",
    "ParseError",
    "PipelineConfig",
    "PipelineError",
    "Tensor3",
    "als_step",
    "build_knn_view",
    "decompose",
    "dimension_correlation",
    "evaluate",
    "extract_embeddings",
    "init_factors",
    "load_edge_list",
    "load_features",
    "load_labels",
    "load_model",
    "macro_f1",
    "micro_f1",
    "mttkrp",
    "predict",
    "prune_dimensions",
    "pruning_report",
    "reconstruct_view",
    "run_pipeline",
    "save_model",
    "stack_views",
    "sweep",
    "train_ovr",
    "view_weights",
    "write_weights_csv",
]
