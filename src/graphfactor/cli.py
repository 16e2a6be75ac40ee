"""Command-line front end.

Subcommands mirror the pipeline stages (build-knn, decompose, embed,
evaluate, interpret, reconstruct) plus the orchestrated `run` and the
parameter `sweep`. Exit codes: 0 success, 1 usage error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .cpals import INIT_CHOICES, AlsConfig, decompose, load_model, save_model
from .dataio import (
    load_edge_list,
    load_features,
    load_labels,
    load_matrix,
    save_json,
    save_matrix,
    save_text,
)
from .embedding import (EMBEDDING_SOURCES, extract_embeddings, prune_dimensions,
                        view_dimension_weights)
from .errors import DataError, NumericalError, PipelineError
from .evaluate import EvalConfig, evaluate
from .interpret import pruning_report, write_weights_csv
from .knn import build_knn_view, load_directed_edge_list, save_knn_edge_list
from .pipeline import PipelineConfig, config_from, run_pipeline, sweep
from .tensor import reconstruct_view, stack_views

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3
_EVAL_FLAGS = {"train_fraction": "--train-fraction", "repeats": "--repeats", "seed": "--seed",
               "l2_strength": "--l2"}  # interpret takes these only with --prune-eval


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve that for
    data errors, so remap usage failures to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _cmd_build_knn(args) -> int:
    features = load_features(args.features)
    view = build_knn_view(features, args.k)
    save_knn_edge_list(view, args.out)
    deficient = len(view.deficient_nodes())
    print(
        f"wrote {args.out}: {view.directed_edge_count} directed edges "
        f"({view.num_nodes} nodes, k={args.k}, {deficient} nodes below k)"
    )
    return EXIT_OK


def _cmd_decompose(args) -> int:
    config = config_from(AlsConfig, args)
    graph = load_edge_list(args.adj)
    z = None if args.knn is None else load_directed_edge_list(args.knn)
    tensor = stack_views(graph, z)
    model = decompose(tensor, config)
    save_model(model, args.out, config)
    status = "converged" if model.converged else "did not converge"
    rejected = model.extrapolations_rejected
    print(
        f"wrote {args.out}: rank {model.rank}, fit {model.fit_history[-1]:.6f} after "
        f"{model.iterations + rejected} sweeps, {rejected} extrapolations rejected ({status})"
    )
    return EXIT_OK


def _cmd_embed(args) -> int:
    model = load_model(args.model)
    emb = extract_embeddings(model, args.source)
    removed: list = []
    if args.prune_threshold is not None:
        emb, removed = prune_dimensions(emb, model, args.prune_threshold)
    save_matrix(emb, args.out)
    note = f", pruned dimensions {removed}" if removed else ""
    print(f"wrote {args.out}: {emb.shape[0]} nodes x {emb.shape[1]} dims{note}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    config = config_from(EvalConfig, args)
    report = evaluate(load_matrix(args.embeddings), load_labels(args.labels), config)
    save_json(report.to_dict(), args.out)
    print(
        f"wrote {args.out}: micro-F1 {report.micro_f1_mean:.4f} "
        f"macro-F1 {report.macro_f1_mean:.4f} "
        f"({args.repeats} repeats at fraction {args.train_fraction})"
    )
    return EXIT_OK


def _cmd_interpret(args) -> int:
    wrong = [
        flag
        for flag, value in (
            ("--threshold", args.threshold),
            ("--embeddings", args.embeddings),
            ("--labels", args.labels),
            ("--report-out", args.report_out),
        )
        if (value is None) == args.prune_eval
    ]
    given = {name: value for name, value in vars(args).items() if name in _EVAL_FLAGS}
    wrong += [_EVAL_FLAGS[name] for name in given if not args.prune_eval]
    if wrong:  # every flag named is ignored without --prune-eval, the first four needed with it
        rule = "--prune-eval requires {}" if args.prune_eval else "{} given without --prune-eval"
        print(f"error: {rule.format(', '.join(wrong))}", file=sys.stderr)
        return EXIT_USAGE
    eval_config = EvalConfig(**given)  # checked before any input is read
    model = load_model(args.model)
    if args.prune_eval:  # computed first, so a rejected input writes nothing
        emb = load_matrix(args.embeddings)
        labels = load_labels(args.labels)
        report = pruning_report(model, emb, labels, args.threshold, eval_config)
    weights = view_dimension_weights(model)
    write_weights_csv(weights, args.out)
    print(f"wrote {args.out}: {weights.shape[1]} dimensions x {weights.shape[0]} views")
    if not args.prune_eval:
        return EXIT_OK
    save_json(report, args.report_out)
    print(
        f"wrote {args.report_out}: removed {len(report['removed_dimensions'])} "
        f"dimensions, micro-F1 {report['micro_f1_before']:.4f} -> "
        f"{report['micro_f1_after']:.4f}"
    )
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    model = load_model(args.model)
    matrix = reconstruct_view(model, args.view)
    save_matrix(matrix, args.out)
    print(f"wrote {args.out}: view {args.view} as {matrix.shape[0]}x{matrix.shape[1]}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = config_from(PipelineConfig, args, train_fractions=tuple(args.train_fractions))
    run_dir = run_pipeline(config, args.out)
    print(f"run complete: {run_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = config_from(PipelineConfig, args, train_fractions=tuple(args.train_fractions))
    result = sweep(config, args.param, args.values, run_root=args.run_root)
    save_text(args.out, result.to_csv())
    print(f"wrote {args.out}: {len(result.rows)} values of {args.param}")
    return EXIT_OK


def _add_dataset_args(parser) -> None:
    parser.add_argument("--edges", required=True, help="undirected edge list file")
    parser.add_argument("--features", required=True, help="node feature file")
    parser.add_argument("--labels", required=True, help="node label file")
    parser.add_argument("--k", type=int, required=True, help="neighbors per node")
    _add_als_args(parser)
    parser.add_argument("--train-fractions", type=float, nargs="+",
                        default=[EvalConfig.train_fraction], metavar="F")
    parser.add_argument("--repeats", type=int, default=EvalConfig.repeats)
    parser.add_argument("--l2", type=float, default=EvalConfig.l2_strength, dest="l2_strength",
                        metavar="L2", help="inverse L2 strength")
    parser.add_argument("--prune-threshold", type=float, default=None)
    parser.add_argument("--source", choices=EMBEDDING_SOURCES, default="A",
                        dest="embedding_source")
    parser.add_argument(
        "--no-knn-view",
        action="store_false",
        dest="use_knn_view",
        help="drop the feature-similarity view (adjacency-only ablation)",
    )


def _add_als_args(parser) -> None:
    parser.add_argument("--rank", type=int, required=True, help="decomposition rank d")
    parser.add_argument("--seed", type=int, default=AlsConfig.seed)
    parser.add_argument("--tol", type=float, default=AlsConfig.tol)
    parser.add_argument("--max-iters", type=int, default=AlsConfig.max_iters)
    parser.add_argument("--init", choices=INIT_CHOICES, default=AlsConfig.init)


def _add_eval_args(parser, defaults=EvalConfig()) -> None:
    parser.add_argument("--train-fraction", type=float, default=defaults.train_fraction)
    parser.add_argument("--repeats", type=int, default=defaults.repeats)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--l2", type=float, default=defaults.l2_strength, dest="l2_strength",
                        metavar="L2")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="graphfactor",
        description=(
            "Node embeddings from a two-view graph tensor: build a "
            "feature-similarity view, factorize it jointly with the "
            "adjacency view, then evaluate and interpret the embeddings."
        ),
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("build-knn", help="nearest-neighbor view from features")
    p.add_argument("--features", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_build_knn)

    p = sub.add_parser("decompose", help="factorize the stacked view tensor")
    p.add_argument("--adj", required=True, help="undirected edge list")
    p.add_argument("--knn", default=None, help="directed edge list (omit for 1 view)")
    _add_als_args(p)
    p.add_argument("--out", required=True, help="model output directory")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("embed", help="node embeddings from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--source", choices=EMBEDDING_SOURCES, default="A")
    p.add_argument("--prune-threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("evaluate", help="classification quality of embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    _add_eval_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("interpret", help="view weights and pruning analysis")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="weights CSV path")
    p.add_argument("--prune-eval", action="store_true")
    p.add_argument("--embeddings", default=None)
    p.add_argument("--labels", default=None)
    _add_eval_args(p, argparse.Namespace(**dict.fromkeys(_EVAL_FLAGS, argparse.SUPPRESS)))
    p.add_argument("--report-out", default=None)
    p.set_defaults(handler=_cmd_interpret)

    p = sub.add_parser("reconstruct", help="dense view matrix from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--view", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("run", help="full pipeline into a run directory")
    _add_dataset_args(p)
    p.add_argument("--out", default=None, help="run directory (default: timestamped)")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", help="pipeline once per parameter value")
    _add_dataset_args(p)
    p.add_argument("--param", choices=("k", "d"), required=True)
    p.add_argument("--values", type=int, nargs="+", required=True)
    p.add_argument("--run-root", default=None)
    p.add_argument("--out", required=True, help="sensitivity CSV path")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PipelineError, NumericalError, DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, PipelineError) else exc
        return EXIT_NUMERICAL if isinstance(cause, NumericalError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
