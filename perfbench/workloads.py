"""Workload definitions and the child process that runs one of them.

Run as ``python3 perfbench/workloads.py SPEC.json`` with the checkout's
``src/`` on ``PYTHONPATH``: the child times its import of graphfactor
(the set-up time), optionally installs the span tracer, runs the
workload once on the inputs named in the spec, and writes a result file
(import and run times, environment, spans). This module imports only the
standard library, so that the timed import starts from a fresh
interpreter.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Shape:
    """Planted-partition input shape; see gen.py."""

    nodes: int
    features: int
    classes: int
    edges: int  # undirected, deduplicated
    words_per_node: int
    topic_word_fraction: float
    shared_vocab_fraction: float
    intra_edge_fraction: float
    label_noise: float


# Node, feature, class and edge counts of the CiteSeer and WebKB corpora,
# with the mixing parameters the repository's test datasets use.
CITESEER = Shape(3312, 3703, 6, 4732, 30, 0.72, 0.3, 0.7, 0.12)
WEBKB = Shape(877, 1703, 5, 2584, 25, 0.72, 0.3, 0.62, 0.20)
PLANTED_8K = Shape(8000, 5000, 8, 16000, 30, 0.72, 0.3, 0.7, 0.12)
DEMO30 = Shape(30, 24, 3, 60, 6, 0.8, 0.25, 0.8, 0.0)


@dataclass(frozen=True)
class Workload:
    shape: Shape
    kind: str  # "pipeline" (run_pipeline) or "stagewise" (chained CLI subcommands)
    k: int
    rank: int
    repeats: int
    prune_threshold: float | None


WORKLOADS = {
    # Weights of this shape span about 11.8-14; 12.8 prunes some dimensions.
    "citeseer-prune": Workload(CITESEER, "pipeline", 15, 64, 10, 12.8),
    "webkb-r128": Workload(WEBKB, "pipeline", 40, 128, 10, None),
    "stagewise-8k": Workload(PLANTED_8K, "stagewise", 10, 16, 3, 12.8),
}


TRAIN_FRACTION = 0.5


def tiny(workload: Workload) -> Workload:
    """The same workload on the 30-node demo shape, for the smoke check."""
    threshold = None if workload.prune_threshold is None else 0.0
    return Workload(DEMO30, workload.kind, 3, 4, 2, threshold)


def artifact_names(kind: str) -> dict:
    """Where the checks find the K-NN edges, the evaluation and the fit history."""
    if kind == "pipeline":
        return {"knn": "knn_edges.txt", "eval": "eval_train_0p5.json", "run": "model/run.json"}
    return {"knn": "knn.txt", "eval": "eval.json", "run": "model/run.json"}


def _run_pipeline(w: Workload, inputs: dict, out: Path) -> None:
    from graphfactor import PipelineConfig, run_pipeline

    config = PipelineConfig(
        edges=inputs["edges"],
        features=inputs["features"],
        labels=inputs["labels"],
        k=w.k,
        rank=w.rank,
        train_fractions=(TRAIN_FRACTION,),
        repeats=w.repeats,
        prune_threshold=w.prune_threshold,
        embedding_source="A",
    )
    run_pipeline(config, out)


def _run_stagewise(w: Workload, inputs: dict, out: Path) -> None:
    from graphfactor import cli

    out.mkdir(parents=True)
    knn, model, emb = str(out / "knn.txt"), str(out / "model"), str(out / "emb.txt")
    labels, repeats = inputs["labels"], str(w.repeats)
    steps = [
        ["build-knn", "--features", inputs["features"], "--k", str(w.k), "--out", knn],
        ["decompose", "--adj", inputs["edges"], "--knn", knn, "--rank", str(w.rank),
         "--out", model],
        ["embed", "--model", model, "--source", "A", "--out", emb],
        ["evaluate", "--embeddings", emb, "--labels", labels,
         "--train-fraction", str(TRAIN_FRACTION), "--repeats", repeats,
         "--out", str(out / "eval.json")],
        ["interpret", "--model", model, "--threshold", str(w.prune_threshold),
         "--out", str(out / "weights.csv"), "--prune-eval", "--embeddings", emb,
         "--labels", labels, "--train-fraction", str(TRAIN_FRACTION),
         "--repeats", repeats, "--report-out", str(out / "prune.json")],
    ]
    for argv in steps:
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"graphfactor {argv[0]} exited with {code}")


def _blas_libraries() -> list:
    """Every OpenBLAS loaded in this process, with its config and thread count."""
    found = []
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for key, stem, restype in (("config", "get_config", ctypes.c_char_p),
                                   ("threads", "get_num_threads", ctypes.c_int)):
            # scipy-openblas builds prefix and, with 64-bit ints, suffix the symbols.
            names = [f"{p}{stem}{s}" for p in ("scipy_openblas_", "openblas_") for s in ("64_", "")]
            fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
        found.append(info)
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_libraries": _blas_libraries(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(spec_path: str) -> None:
    start = time.perf_counter()
    import graphfactor  # noqa: F401
    import graphfactor.cli  # noqa: F401
    import_s = time.perf_counter() - start

    spec = json.loads(Path(spec_path).read_text())

    workload = WORKLOADS[spec["workload"]]
    if spec["tiny"]:
        workload = tiny(workload)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    body = _run_pipeline if workload.kind == "pipeline" else _run_stagewise
    out = Path(spec["out"])

    start = time.perf_counter()
    body(workload, spec["inputs"], out)
    run_s = time.perf_counter() - start

    result = {"run_s": run_s, "import_s": import_s, "env": environment()}
    if tracer is not None:
        result["spans"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
