"""End-to-end orchestration: one run directory per invocation.

A run executes six stages in order — build-knn, stack, decompose,
embed, evaluate, interpret — persisting every intermediate artifact and
a manifest that captures all parameters, input checksums, the fit
history, and every report. Outputs contain no timestamps or absolute
paths, so two runs with the same config and inputs are byte-identical.
A stage failure writes a FAILED marker naming the stage and re-raises.
A run first deletes every file an earlier run may have written to its
directory, so the directory holds only the latest run's outputs.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

from .cpals import AlsConfig, decompose, save_model
from .dataio import (
    load_edge_list,
    load_features,
    load_json,
    load_labels,
    save_json,
    save_matrix,
    sha256_file,
)
from .embedding import EMBEDDING_SOURCES, extract_embeddings, prune_dimensions
from .errors import DataError, PipelineError
from .evaluate import EvalConfig, evaluate
from .interpret import pruning_report, view_weights, write_weights_csv
from .knn import build_knn_view, save_knn_edge_list
from .tensor import stack_views

__all__ = ["PipelineConfig", "run_pipeline", "sweep", "default_run_root"]

RUNS_ENV_VAR = "GRAPHFACTOR_RUNS"
STAGE_NAMES = ("build-knn", "stack", "decompose", "embed", "evaluate", "interpret")
# Every file a run can write, as globs relative to the run directory. A run
# deletes them all before its first stage and leaves any other file alone.
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


@dataclass
class PipelineConfig:
    """Everything a run depends on besides the input files themselves."""

    edges: str
    features: str
    labels: str | None
    k: int
    rank: int
    seed: int = AlsConfig.seed
    tol: float = AlsConfig.tol
    max_iters: int = AlsConfig.max_iters
    train_fractions: tuple = (EvalConfig.train_fraction,)
    repeats: int = EvalConfig.repeats
    l2_strength: float = EvalConfig.l2_strength
    prune_threshold: float | None = None
    embedding_source: str = "A"
    init: str = AlsConfig.init
    use_knn_view: bool = True

    def als_config(self) -> AlsConfig:
        return AlsConfig(
            rank=self.rank,
            max_iters=self.max_iters,
            tol=self.tol,
            seed=self.seed,
            init=self.init,
        )

    def eval_config(self, train_fraction: float) -> EvalConfig:
        return EvalConfig(train_fraction, repeats=self.repeats, seed=self.seed,
                          l2_strength=self.l2_strength)

    def validate(self) -> None:
        if not isinstance(self.k, Integral) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k}")
        self.als_config().validate()
        if not self.train_fractions:
            raise ValueError("train_fractions must be nonempty")
        for frac in self.train_fractions:
            self.eval_config(frac).validate()
        if len(set(self.train_fractions)) != len(self.train_fractions):
            raise ValueError("train_fractions contains duplicates")
        if self.prune_threshold is not None and self.prune_threshold < 0:
            raise ValueError(f"prune threshold must be >= 0, got {self.prune_threshold}")
        if self.embedding_source not in EMBEDDING_SOURCES:
            raise ValueError(
                f"embedding_source must be one of {EMBEDDING_SOURCES}, "
                f"got {self.embedding_source!r}"
            )

    def to_dict(self) -> dict:
        return {
            "edges": str(self.edges),
            "features": str(self.features),
            "labels": None if self.labels is None else str(self.labels),
            "k": int(self.k),
            "rank": int(self.rank),
            "seed": int(self.seed),
            "tol": float(self.tol),
            "max_iters": int(self.max_iters),
            "train_fractions": [float(f) for f in self.train_fractions],
            "repeats": int(self.repeats),
            "l2_strength": float(self.l2_strength),
            "prune_threshold": (
                None if self.prune_threshold is None else float(self.prune_threshold)
            ),
            "embedding_source": self.embedding_source,
            "init": self.init,
            "use_knn_view": bool(self.use_knn_view),
        }


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

    On stage failure, writes a FAILED marker naming the stage, persists
    the partial manifest, and raises PipelineError wrapping the cause.
    """
    config.validate()
    if run_dir is None:
        run_dir = _new_run_dir(default_run_root())
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    for pattern in RUN_ARTIFACTS:
        for path in run_dir.glob(pattern):
            path.unlink()

    manifest: dict = {
        "config": config.to_dict(),
        "inputs": {},
        "stages": [],
        "status": "running",
    }

    def write_manifest() -> None:
        save_json(manifest, run_dir / "manifest.json")

    def fail(stage: str, exc: Exception):
        (run_dir / "FAILED").write_text(
            f"stage: {stage}\ncause: {exc}\n", encoding="utf-8"
        )
        manifest["status"] = "failed"
        manifest["failed_stage"] = stage
        manifest["failure_cause"] = str(exc)
        write_manifest()
        raise PipelineError(stage, exc) from exc

    state: dict = {}

    def stage_build_knn() -> dict:
        if not config.use_knn_view:
            return {"skipped": True, "reason": "K-NN view disabled by config"}
        manifest["inputs"]["features"] = {
            "path": str(config.features),
            "sha256": sha256_file(config.features),
        }
        features = load_features(config.features)
        view = build_knn_view(features, config.k)
        save_knn_edge_list(view, run_dir / "knn_edges.txt")
        state["knn"] = view
        return {
            "k": config.k,
            "num_nodes": view.num_nodes,
            "directed_edges": view.directed_edge_count,
            "deficient_nodes": len(view.deficient_nodes()),
            "output": "knn_edges.txt",
        }

    def stage_stack() -> dict:
        manifest["inputs"]["edges"] = {
            "path": str(config.edges),
            "sha256": sha256_file(config.edges),
        }
        graph = load_edge_list(config.edges)
        tensor = stack_views(graph, state.get("knn"))
        state["tensor"] = tensor
        num_nodes, _, l_dim = tensor.dims
        state["num_nodes"] = num_nodes
        return {
            "num_nodes": num_nodes,
            "views": l_dim,
            "nnz": tensor.nnz,
            "undirected_edges": graph.num_edges,
            "self_loops_dropped": graph.self_loops_dropped,
        }

    def stage_decompose() -> dict:
        als_config = config.als_config()
        model = decompose(state["tensor"], als_config)
        save_model(model, run_dir / "model", als_config)
        state["model"] = model
        return {
            "rank": model.rank,
            "iterations": model.iterations,
            "converged": model.converged,
            "final_fit": float(model.fit_history[-1]),
            "fit_history": [float(v) for v in model.fit_history],
            "gram_fallbacks": model.gram_fallbacks,
            "blas_threads": model.blas_threads,
            "output": "model",
        }

    def stage_embed() -> dict:
        emb = extract_embeddings(state["model"], config.embedding_source)
        save_matrix(emb, run_dir / "embeddings.txt")
        state["emb"] = emb
        return {
            "source": config.embedding_source,
            "num_nodes": emb.shape[0],
            "dim": emb.shape[1],
            "output": "embeddings.txt",
        }

    def stage_evaluate() -> dict:
        if config.labels is None:
            raise DataError(
                "no labels file configured; the evaluate stage requires labels"
            )
        manifest["inputs"]["labels"] = {
            "path": str(config.labels),
            "sha256": sha256_file(config.labels),
        }
        labels = load_labels(config.labels, num_nodes=state["num_nodes"])
        state["labels"] = labels
        reports = []
        outputs = []
        for fraction in config.train_fractions:
            report = evaluate(state["emb"], labels, config.eval_config(fraction))
            name = f"eval_train_{_fraction_tag(fraction)}.json"
            save_json(report.to_dict(), run_dir / name)
            reports.append(report)
            outputs.append(name)
        state["first_report"] = reports[0]
        return {"reports": [r.to_dict() for r in reports], "outputs": outputs}

    def stage_interpret() -> dict:
        model = state["model"]
        write_weights_csv(view_weights(model), run_dir / "weights.csv")
        details: dict = {"weights_csv": "weights.csv"}
        if config.prune_threshold is not None:
            # The source-A embedding was already scored at the first train
            # fraction by the evaluate stage; other sources score it here.
            before = None
            if config.embedding_source == "A":
                emb_a = state["emb"]
                before = state["first_report"]
            else:
                emb_a = extract_embeddings(model, "A")
            report = pruning_report(
                model,
                emb_a,
                state["labels"],
                config.prune_threshold,
                config.eval_config(config.train_fractions[0]),
                before=before,
            )
            save_json(report, run_dir / "pruning_report.json")
            pruned_emb, _removed = prune_dimensions(
                emb_a, model, config.prune_threshold
            )
            save_matrix(pruned_emb, run_dir / "embeddings_pruned.txt")
            details["pruning_report"] = report
            details["pruned_embeddings"] = "embeddings_pruned.txt"
        return details

    stage_fns = {
        "build-knn": stage_build_knn,
        "stack": stage_stack,
        "decompose": stage_decompose,
        "embed": stage_embed,
        "evaluate": stage_evaluate,
        "interpret": stage_interpret,
    }
    for name in STAGE_NAMES:
        try:
            details = stage_fns[name]()
        except PipelineError:
            raise
        except Exception as exc:
            fail(name, exc)
        manifest["stages"].append({"name": name, **details})

    manifest["status"] = "ok"
    write_manifest()
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

    ``param`` is "k" (neighbor count) or "d" (decomposition rank). A
    value whose run fails is recorded as failed and the sweep continues.
    The first train fraction's mean Micro-F1 is reported per value.
    """
    if param not in ("k", "d"):
        raise ValueError(f"param must be 'k' or 'd', got {param!r}")
    values = [int(v) for v in values]
    if not values:
        raise ValueError("values must be nonempty")
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate sweep values: {values}")
    if run_root is None:
        run_root = _new_run_dir(default_run_root())
    run_root = Path(run_root)
    result = SweepResult(param=param)
    for value in values:
        if param == "k":
            variant = dataclasses.replace(config, k=value)
        else:
            variant = dataclasses.replace(config, rank=value)
        run_dir = run_root / f"{param}_{value}"
        try:
            run_pipeline(variant, run_dir)
        except (PipelineError, ValueError):
            result.rows.append((value, None))
            continue
        manifest = load_json(run_dir / "manifest.json")
        eval_stage = next(s for s in manifest["stages"] if s["name"] == "evaluate")
        result.rows.append((value, eval_stage["reports"][0]["micro_f1_mean"]))
    return result
