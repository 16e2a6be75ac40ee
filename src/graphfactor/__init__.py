"""graphfactor: node embeddings from multi-view graph tensors.

The pipeline: build a K-nearest-neighbor proximity view from node
features (cosine similarity), stack it with the graph adjacency into a
three-mode tensor, factorize by alternating least squares, read node
embeddings off the node factor, then evaluate them with one-vs-rest
logistic regression and interpret per-view component weights.

The package re-exports the names of the README's library example, the
exception types and the run pipeline; everything else is imported from
its module (``graphfactor.evaluate`` is the module, and its function is
``graphfactor.evaluate.evaluate``).
"""

from .cpals import AlsConfig, decompose
from .dataio import load_edge_list, load_features, load_labels
from .embedding import extract_embeddings
from .errors import DataError, NumericalError, ParseError, PipelineError
from .evaluate import EvalConfig
from .knn import build_knn_view
from .pipeline import PipelineConfig, run_pipeline
from .tensor import stack_views

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "DataError",
    "EvalConfig",
    "NumericalError",
    "ParseError",
    "PipelineConfig",
    "PipelineError",
    "build_knn_view",
    "decompose",
    "extract_embeddings",
    "load_edge_list",
    "load_features",
    "load_labels",
    "run_pipeline",
    "stack_views",
]
