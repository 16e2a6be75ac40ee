"""End-to-end orchestration: one run directory per invocation.

A run executes six stages in order — build-knn, stack, decompose,
embed, evaluate, interpret — persisting every intermediate artifact and
a manifest that captures all parameters, input checksums, the fit
history, and every report. Outputs contain no timestamps or absolute
paths, so two runs with the same config and inputs are byte-identical.
A run first checksums and parses every input, so an unreadable or
malformed one raises before anything is written, then deletes every file
an earlier run may have written to its directory, so it holds only the
latest run's outputs.
A stage failure writes a FAILED marker naming the stage and re-raises.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from .cpals import AlsConfig, decompose, save_model
from .dataio import (
    TEMP_SUFFIX,
    config_record,
    load_edge_list,
    load_features,
    load_json,
    load_labels,
    save_json,
    save_matrix,
    save_text,
    sha256_file,
)
from .embedding import EMBEDDING_SOURCES, extract_embeddings, view_dimension_weights
from .errors import PipelineError
from .evaluate import EvalConfig, evaluate
from .interpret import pruning_report, write_weights_csv
from .knn import build_knn_view, save_knn_edge_list
from .tensor import stack_views

__all__ = ["PipelineConfig", "run_pipeline", "sweep", "default_run_root"]

RUNS_ENV_VAR = "GRAPHFACTOR_RUNS"
STAGE_NAMES = ("build-knn", "stack", "decompose", "embed", "evaluate", "interpret")
# Every file a run can write, as globs relative to the run directory. A run deletes
# them and their temporaries before its first stage and leaves any other file alone.
RUN_ARTIFACTS = (
    "FAILED",
    "manifest.json",
    "knn_edges.txt",
    "model/A.txt",
    "model/B.txt",
    "model/C.txt",
    "model/scales.txt",
    "model/run.json",
    "embeddings.txt",
    "eval_train_*.json",
    "weights.csv",
    "pruning_report.json",
    "embeddings_pruned.txt",
)


def config_from(cls, source, **given):
    """The dataclass ``cls`` with each field read from the same-named attribute of
    ``source``, a config or an argparse namespace; ``given`` overrides fields."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in given]
    return cls(**{name: getattr(source, name) for name in names}, **given)


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run and the paths of its inputs, labels included;
    checked when built, its solver and evaluation configs too; frozen."""

    edges: str
    features: str
    labels: str
    k: int
    rank: int
    seed: int = AlsConfig.seed
    tol: float = AlsConfig.tol
    max_iters: int = AlsConfig.max_iters
    train_fractions: tuple[float, ...] = (EvalConfig.train_fraction,)
    repeats: int = EvalConfig.repeats
    l2_strength: float = EvalConfig.l2_strength
    prune_threshold: float | None = None
    embedding_source: str = "A"
    init: str = AlsConfig.init
    use_knn_view: bool = True

    def als_config(self) -> AlsConfig:
        return config_from(AlsConfig, self)

    def eval_config(self, train_fraction: float) -> EvalConfig:
        return config_from(EvalConfig, self, train_fraction=train_fraction)

    def __post_init__(self) -> None:
        if not isinstance(self.k, Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        self.als_config()
        if not self.train_fractions:
            raise ValueError("train_fractions must be nonempty")
        for frac in self.train_fractions:
            self.eval_config(frac)
        if len(set(map(_fraction_tag, self.train_fractions))) != len(self.train_fractions):
            raise ValueError("train_fractions contains duplicates (equal report file names)")
        if self.prune_threshold is not None and not self.prune_threshold >= 0:
            raise ValueError(f"prune threshold must be >= 0, got {self.prune_threshold}")
        if self.embedding_source not in EMBEDDING_SOURCES:
            raise ValueError(
                f"embedding_source must be one of {EMBEDDING_SOURCES}, "
                f"got {self.embedding_source!r}"
            )


def default_run_root() -> Path:
    return Path(os.environ.get(RUNS_ENV_VAR, "runs"))


def _new_run_dir(root: Path) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    candidate = root / f"run-{stamp}"
    counter = 1
    while candidate.exists():
        candidate = root / f"run-{stamp}-{counter}"
        counter += 1
    return candidate


def _fraction_tag(fraction: float) -> str:
    return format(fraction, "g").replace(".", "p")


def run_pipeline(config: PipelineConfig, run_dir=None) -> Path:
    """Execute all six stages; returns the run directory.

    An unreadable or malformed input raises DataError before the directory
    is created or cleaned. On stage failure, writes a FAILED marker naming the
    stage, persists the partial manifest, and raises PipelineError wrapping the cause.
    """
    names = ("edges", "features", "labels") if config.use_knn_view else ("edges", "labels")
    paths = {name: getattr(config, name) for name in names}  # checksummed, parsed before any write
    inputs = {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in paths.items()}
    loaders = {"edges": load_edge_list, "features": load_features, "labels": load_labels}
    parsed = {name: loaders[name](p) for name, p in paths.items()}
    if run_dir is None:
        run_dir = _new_run_dir(default_run_root())
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for pattern in RUN_ARTIFACTS:
        for path in [*run_dir.glob(pattern), *run_dir.glob(pattern + TEMP_SUFFIX)]:
            path.unlink()

    manifest: dict = {
        "config": config_record(config),
        "inputs": inputs,
        "stages": [],
        "status": "running",
    }

    @contextmanager
    def stage(name: str):
        """Yield the stage's details dict; record it in the manifest on
        success, or write FAILED and the failed manifest and raise."""
        details: dict = {}
        try:
            yield details
        except Exception as exc:
            save_text(run_dir / "FAILED", f"stage: {name}\ncause: {exc}\n")
            manifest["status"] = "failed"
            manifest["failed_stage"] = name
            manifest["failure_cause"] = str(exc)
            save_json(manifest, run_dir / "manifest.json")
            raise PipelineError(name, exc) from exc
        manifest["stages"].append({"name": name, **details})

    with stage("build-knn") as details:
        knn = None
        if not config.use_knn_view:
            details.update(skipped=True, reason="K-NN view disabled by config")
        else:
            knn = build_knn_view(parsed.pop("features"), config.k)
            save_knn_edge_list(knn, run_dir / "knn_edges.txt")
            details.update(
                k=config.k,
                num_nodes=knn.num_nodes,
                directed_edges=knn.directed_edge_count,
                deficient_nodes=len(knn.deficient_nodes()),
                output="knn_edges.txt",
            )

    with stage("stack") as details:
        graph = parsed["edges"]
        tensor = stack_views(graph, knn)
        num_nodes, _, l_dim = tensor.dims
        details.update(
            num_nodes=num_nodes,
            views=l_dim,
            nnz=tensor.nnz,
            undirected_edges=len(graph.edges),
            self_loops_dropped=graph.self_loops_dropped,
        )

    with stage("decompose") as details:
        als_config = config.als_config()
        model = decompose(tensor, als_config)
        save_model(model, run_dir / "model", als_config)
        details.update(
            rank=model.rank,
            iterations=model.iterations,
            converged=model.converged,
            final_fit=float(model.fit_history[-1]),
            fit_history=[float(v) for v in model.fit_history],
            gram_fallbacks=model.gram_fallbacks,
            extrapolations_accepted=model.extrapolations_accepted,
            extrapolations_rejected=model.extrapolations_rejected,
            blas_threads=model.blas_threads,
            output="model",
        )

    with stage("embed") as details:
        emb = extract_embeddings(model, config.embedding_source)
        save_matrix(emb, run_dir / "embeddings.txt")
        details.update(
            source=config.embedding_source,
            num_nodes=emb.shape[0],
            dim=emb.shape[1],
            output="embeddings.txt",
        )

    with stage("evaluate") as details:
        labels = parsed["labels"]
        reports = []
        outputs = []
        for fraction in config.train_fractions:
            report = evaluate(emb, labels, config.eval_config(fraction))
            name = f"eval_train_{_fraction_tag(fraction)}.json"
            save_json(report.to_dict(), run_dir / name)
            reports.append(report)
            outputs.append(name)
        details.update(reports=[r.to_dict() for r in reports], outputs=outputs)

    with stage("interpret") as details:
        write_weights_csv(view_dimension_weights(model), run_dir / "weights.csv")
        details["weights_csv"] = "weights.csv"
        if config.prune_threshold is not None:
            report = pruning_report(model, emb, labels, config.prune_threshold, reports[0])
            save_json(report, run_dir / "pruning_report.json")
            pruned_emb = np.delete(emb, report["removed_dimensions"], axis=1)
            save_matrix(pruned_emb, run_dir / "embeddings_pruned.txt")
            details["pruning_report"] = report
            details["pruned_embeddings"] = "embeddings_pruned.txt"

    manifest["status"] = "ok"
    save_json(manifest, run_dir / "manifest.json")
    return run_dir


@dataclass
class SweepResult:
    param: str
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [f"{self.param},micro_f1_mean"]
        for value, score in self.rows:
            cell = "failed" if score is None else repr(float(score))
            lines.append(f"{value},{cell}")
        return "\n".join(lines) + "\n"


def sweep(config: PipelineConfig, param: str, values, run_root=None) -> SweepResult:
    """Run the pipeline once per parameter value, all else fixed.

    ``param`` is "k" (neighbor count) or "d" (decomposition rank). A value
    the config rejects, a non-integer one included, or whose run fails is
    recorded as failed and the sweep continues. An unreadable or malformed
    input raises DataError before any value runs.
    The first train fraction's mean Micro-F1 is reported per value.
    """
    if param not in ("k", "d"):
        raise ValueError(f"param must be 'k' or 'd', got {param!r}")
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate sweep values: {values}")
    if run_root is None:
        run_root = _new_run_dir(default_run_root())
    run_root = Path(run_root)
    result = SweepResult(param=param)
    for value in values:
        run_dir = run_root / f"{param}_{value}"
        try:  # the replace checks the value, so a rejected one fails only its own row
            variant = dataclasses.replace(config, **{"k" if param == "k" else "rank": value})
            run_pipeline(variant, run_dir)
        except (PipelineError, ValueError):
            result.rows.append((value, None))
            continue
        manifest = load_json(run_dir / "manifest.json")
        eval_stage = next(s for s in manifest["stages"] if s["name"] == "evaluate")
        result.rows.append((value, eval_stage["reports"][0]["micro_f1_mean"]))
    return result
