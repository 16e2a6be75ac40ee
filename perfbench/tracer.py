"""Span tracer that wraps the public functions of every graphfactor module.

Each call to a wrapped function records one span: its name
(``<module>.<function>``), start, end, parent span and a few attributes
(sizes, counts). Spans are kept in memory and written out when the run
ends; self times and per-layer metrics are computed from them afterwards.
The program itself is not modified: the wrappers replace the module
attributes that the package's own modules look up at call time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import statistics
import sys
import time

LAYERS = (
    "dataio", "knn", "tensor", "cpals", "embedding",
    "evaluate", "interpret", "pipeline", "cli",
)
# Layers that only sequence calls into the others; their self time is glue.
ORCHESTRATORS = ("pipeline", "cli")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE


# Span attribute hooks, run outside the span's timed interval. ``pre()``
# returns state for ``post(arguments, result, state)``, which gets the call's
# bound arguments (defaults included) and returns the span's attributes.
def _reads(a, result, state):
    return {"bytes_read": os.path.getsize(a["path"])}


def _writes(a, result, state):
    return {"bytes_written": os.path.getsize(a["path"])}


def _knn_post(a, result, rss_before):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    n = result.num_nodes
    rows = n if a["block_rows"] is None else min(a["block_rows"], n)
    return {
        "directed_edges": result.directed_edge_count,
        "deficient_nodes": len(result.deficient_nodes()),
        "peak_growth_bytes": max(0, peak - rss_before),
        # Dense dot, denominator and similarity blocks held at once.
        "similarity_bytes": 3 * rows * n * 8,
    }


def _mttkrp_post(a, result, state):
    rank = a["f1"].shape[1]
    n, _, views = a["x"].dims
    nnz = a["x"].nnz
    return {
        "mode": int(a["mode"]),
        # Sparse product plus the per-view scale-and-accumulate.
        "flops": 2 * rank * (nnz + views * n),
        # CSR data+indices+indptr, gathered factor rows, output traffic.
        "bytes": 12 * nnz + 4 * views * (n + 1) + 8 * rank * (nnz + 3 * views * n),
    }


HOOKS = {
    "dataio.load_features": (None, _reads),
    "dataio.load_edge_list": (None, _reads),
    "dataio.load_labels": (None, _reads),
    "dataio.load_matrix": (None, _reads),
    "knn.load_directed_edge_list": (None, _reads),
    "dataio.save_matrix": (None, _writes),
    "knn.save_knn_edge_list": (None, _writes),
    "interpret.write_weights_csv": (None, _writes),
    "knn.build_knn_view": (_rss_bytes, _knn_post),
    "tensor.mttkrp": (None, _mttkrp_post),
    "tensor.stack_views": (None, lambda a, result, state: {"nnz": result.nnz}),
    "interpret.pruning_report": (
        None, lambda a, result, state: {"removed_dims": len(result["removed_dimensions"])}
    ),
}


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, attrs]
        self._stack = []

    def wrap(self, name, fn, hooks=(None, None)):
        pre, post = hooks
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        # cli.main is named after its subcommand: cli.build-knn, cli.decompose, ...
        by_subcommand = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre() if pre else None
            span_name = name
            if by_subcommand:
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}"
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = post(bound.arguments, result, state)
            return result

        return traced

    def install(self) -> None:
        """Replace every public function of the graphfactor modules."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"graphfactor.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrapped[fn] = self.wrap(name, fn, HOOKS.get(name, (None, None)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "graphfactor" and not mod_name.startswith("graphfactor."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def dump(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a or {}}
            for n, s, e, p, a in self.spans
        ]


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def layer_metrics(spans, run_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed as in BENCHMARK.json."""
    self_s = _self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(spans[i]["end"] - spans[i]["start"] for i in named(name))

    def self_total(name):
        return sum(self_s[i] for i in named(name))

    def attr_sum(name, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in named(name))

    sweeps = named("cpals.als_step")
    step_ms = [1e3 * (spans[i]["end"] - spans[i]["start"]) for i in sweeps]
    step_self_ms = [1e3 * self_s[i] for i in sweeps]
    mttkrp = named("tensor.mttkrp")
    decompose_s = total("cpals.decompose")
    read_fns = ("dataio.load_features", "dataio.load_edge_list", "dataio.load_labels",
                "dataio.load_matrix", "knn.load_directed_edge_list")
    write_fns = ("dataio.save_matrix", "knn.save_knn_edge_list", "interpret.write_weights_csv")

    # Time spent inside layer spans that hang directly off an orchestrator
    # span (or off nothing): what the trace attributes to real work.
    def is_orchestrator(i):
        return spans[i]["name"].split(".")[0] in ORCHESTRATORS

    covered = sum(
        s["end"] - s["start"]
        for i, s in enumerate(spans)
        if not is_orchestrator(i) and (s["parent"] < 0 or is_orchestrator(s["parent"]))
    )

    m = {
        "cpals.decompose_s": decompose_s,
        "cpals.sweeps": len(sweeps),
        "cpals.als_step_ms": statistics.median(step_ms) if step_ms else 0.0,
        "cpals.als_step_self_ms": statistics.median(step_self_ms) if step_self_ms else 0.0,
        "cpals.fit_share": total("tensor.fit") / decompose_s if decompose_s else 0.0,
        "cpals.save_model_s": total("cpals.save_model"),
        "cpals.load_model_s": total("cpals.load_model"),
        "tensor.mttkrp_calls": len(mttkrp),
        "tensor.mttkrp_flops": attr_sum("tensor.mttkrp", "flops"),
        "tensor.mttkrp_bytes": attr_sum("tensor.mttkrp", "bytes"),
        "tensor.fit_s": total("tensor.fit"),
        "tensor.fit_calls": len(named("tensor.fit")),
        "tensor.stack_views_s": total("tensor.stack_views"),
        "tensor.nnz": attr_sum("tensor.stack_views", "nnz"),
        "knn.build_knn_view_s": total("knn.build_knn_view"),
        "knn.peak_alloc_mb": attr_sum("knn.build_knn_view", "peak_growth_bytes") / 2**20,
        "knn.similarity_bytes": attr_sum("knn.build_knn_view", "similarity_bytes"),
        "knn.save_knn_edge_list_s": total("knn.save_knn_edge_list"),
        "knn.load_directed_edge_list_s": total("knn.load_directed_edge_list"),
        "knn.directed_edges": attr_sum("knn.build_knn_view", "directed_edges"),
        "knn.deficient_nodes": attr_sum("knn.build_knn_view", "deficient_nodes"),
        "dataio.load_features_s": total("dataio.load_features"),
        "dataio.load_edge_list_s": total("dataio.load_edge_list"),
        "dataio.load_labels_s": total("dataio.load_labels"),
        "dataio.load_matrix_s": total("dataio.load_matrix"),
        "dataio.save_matrix_s": total("dataio.save_matrix"),
        "dataio.bytes_read": sum(attr_sum(f, "bytes_read") for f in read_fns),
        "dataio.bytes_written": sum(attr_sum(f, "bytes_written") for f in write_fns),
        "evaluate.evaluate_s": total("evaluate.evaluate"),
        "evaluate.evaluate_calls": len(named("evaluate.evaluate")),
        "evaluate.evaluate_self_s": self_total("evaluate.evaluate"),
        "evaluate.train_ovr_s": total("evaluate.train_ovr"),
        "evaluate.train_ovr_calls": len(named("evaluate.train_ovr")),
        "interpret.pruning_report_s": total("interpret.pruning_report"),
        "interpret.pruning_report_self_s": self_total("interpret.pruning_report"),
        "interpret.dimension_correlation_s": total("interpret.dimension_correlation"),
        "interpret.view_weights_s": total("interpret.view_weights"),
        "interpret.removed_dims": attr_sum("interpret.pruning_report", "removed_dims"),
        "embedding.extract_embeddings_s": total("embedding.extract_embeddings"),
        "embedding.prune_dimensions_s": total("embedding.prune_dimensions"),
        "embedding.prune_dimensions_calls": len(named("embedding.prune_dimensions")),
        "pipeline.run_pipeline_s": total("pipeline.run_pipeline"),
        "pipeline.glue_s": self_total("pipeline.run_pipeline"),
        "trace.coverage": covered / run_s if run_s > 0 else 0.0,
    }
    for mode in (0, 1, 2):
        m[f"tensor.mttkrp_s.mode{mode}"] = sum(
            spans[i]["end"] - spans[i]["start"]
            for i in mttkrp
            if spans[i]["attrs"].get("mode") == mode
        )
    for command in ("build-knn", "decompose", "embed", "evaluate", "interpret"):
        m[f"cli.{command}_s"] = total(f"cli.{command}")
    return m
