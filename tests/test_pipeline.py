"""Tests for the six-stage run pipeline, the parameter sweep, and the CLI."""

import json
from pathlib import Path

import numpy as np
import pytest

import graphfactor.cli
import graphfactor.interpret
import graphfactor.pipeline
from graphfactor import (
    EvalConfig,
    NumericalError,
    PipelineConfig,
    PipelineError,
    extract_embeddings,
    load_labels,
    load_model,
    pruning_report,
    run_pipeline,
    sweep,
)
from graphfactor.cli import main
from graphfactor.dataio import sha256_file
from graphfactor.pipeline import STAGE_NAMES, default_run_root
from synthdata import DEMO30, planted_dataset, write_dataset

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def demo_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("demo30")
    return write_dataset(planted_dataset(DEMO30), directory)


def demo_config(paths, **overrides):
    base = dict(
        edges=str(paths["edges"]),
        features=str(paths["features"]),
        labels=str(paths["labels"]),
        k=3,
        rank=4,
        seed=0,
        tol=1e-5,
        max_iters=60,
        repeats=3,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def run_files(run_dir):
    return sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*") if p.is_file())


class TestRunPipeline:
    def test_all_stages_and_artifacts(self, demo_paths, tmp_path):
        run_dir = run_pipeline(demo_config(demo_paths), tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_NAMES)
        for artifact in (
            "knn_edges.txt",
            "model/A.txt",
            "model/B.txt",
            "model/C.txt",
            "model/scales.txt",
            "model/run.json",
            "embeddings.txt",
            "eval_train_0p5.json",
            "weights.csv",
        ):
            assert (run_dir / artifact).is_file(), artifact
        assert not (run_dir / "FAILED").exists()

        by_name = {s["name"]: s for s in manifest["stages"]}
        assert by_name["build-knn"]["k"] == 3
        assert by_name["build-knn"]["directed_edges"] <= 30 * 3
        assert by_name["stack"]["views"] == 2
        assert by_name["stack"]["num_nodes"] == 30
        assert by_name["decompose"]["rank"] == 4
        fit_history = by_name["decompose"]["fit_history"]
        assert len(fit_history) == by_name["decompose"]["iterations"]
        assert by_name["decompose"]["final_fit"] == fit_history[-1]
        assert by_name["decompose"]["gram_fallbacks"] == 0
        assert by_name["decompose"]["blas_threads"] in (1, None)
        assert by_name["embed"]["dim"] == 4
        report = by_name["evaluate"]["reports"][0]
        assert report["train_fraction"] == 0.5
        assert 0.0 <= report["micro_f1_mean"] <= 1.0

    def test_input_checksums_recorded(self, demo_paths, tmp_path):
        run_dir = run_pipeline(demo_config(demo_paths), tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for name in ("edges", "features", "labels"):
            entry = manifest["inputs"][name]
            assert entry["sha256"] == sha256_file(demo_paths[name])

    def test_identical_configs_give_identical_bytes(self, demo_paths, tmp_path):
        dir_a = run_pipeline(demo_config(demo_paths), tmp_path / "a")
        dir_b = run_pipeline(demo_config(demo_paths), tmp_path / "b")
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(), rel

    def test_prune_threshold_adds_pruning_artifacts(self, demo_paths, tmp_path):
        config = demo_config(demo_paths, prune_threshold=1e-3)
        run_dir = run_pipeline(config, tmp_path / "run")
        assert (run_dir / "pruning_report.json").is_file()
        assert (run_dir / "embeddings_pruned.txt").is_file()
        report = json.loads((run_dir / "pruning_report.json").read_text())
        assert report["threshold"] == 1e-3
        assert report["dims_before"] == 4
        manifest = json.loads((run_dir / "manifest.json").read_text())
        interpret = next(s for s in manifest["stages"] if s["name"] == "interpret")
        assert interpret["pruning_report"] == report

    def test_knn_view_can_be_disabled(self, demo_paths, tmp_path):
        config = demo_config(demo_paths, use_knn_view=False)
        run_dir = run_pipeline(config, tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        by_name = {s["name"]: s for s in manifest["stages"]}
        assert by_name["build-knn"]["skipped"] is True
        assert by_name["stack"]["views"] == 1
        assert not (run_dir / "knn_edges.txt").exists()

    def test_multiple_train_fractions(self, demo_paths, tmp_path):
        config = demo_config(demo_paths, train_fractions=(0.3, 0.6))
        run_dir = run_pipeline(config, tmp_path / "run")
        assert (run_dir / "eval_train_0p3.json").is_file()
        assert (run_dir / "eval_train_0p6.json").is_file()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        evaluate_stage = next(s for s in manifest["stages"] if s["name"] == "evaluate")
        assert [r["train_fraction"] for r in evaluate_stage["reports"]] == [0.3, 0.6]

    def test_missing_labels_fails_at_evaluate_stage(self, demo_paths, tmp_path):
        config = demo_config(demo_paths, labels=None)
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(config, tmp_path / "run")
        assert excinfo.value.stage == "evaluate"
        marker = (tmp_path / "run" / "FAILED").read_text()
        assert marker.startswith("stage: evaluate\n")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "evaluate"
        # earlier stages still left their artifacts behind
        assert (tmp_path / "run" / "embeddings.txt").is_file()

    def test_successful_rerun_removes_stale_failed_marker(self, demo_paths, tmp_path):
        with pytest.raises(PipelineError):
            run_pipeline(demo_config(demo_paths, labels=None), tmp_path / "run")
        assert (tmp_path / "run" / "FAILED").is_file()
        run_dir = run_pipeline(demo_config(demo_paths), tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert not (run_dir / "FAILED").exists()

    def test_rerun_deletes_the_earlier_runs_artifacts_only(self, demo_paths, tmp_path):
        pruned = demo_config(demo_paths, prune_threshold=1e-3, train_fractions=(0.3, 0.6))
        run_pipeline(pruned, tmp_path / "run")
        (tmp_path / "run" / "notes.txt").write_text("not a run artifact\n")
        (tmp_path / "run" / "model" / "notes.txt").write_text("not a run artifact\n")
        run_pipeline(demo_config(demo_paths), tmp_path / "run")
        run_pipeline(demo_config(demo_paths), tmp_path / "fresh")
        kept = ["model/notes.txt", "notes.txt"]
        assert run_files(tmp_path / "run") == sorted(run_files(tmp_path / "fresh") + kept)

    def test_invalid_config_rejected_before_writing(self, demo_paths, tmp_path):
        for bad in ({"k": 0}, {"rank": 0}, {"init": "bogus"}, {"repeats": 0},
                    {"l2_strength": 0.0}, {"train_fractions": (1.0,)}, {"seed": -1},
                    {"k": 2.0}):
            config = demo_config(demo_paths, **bad)
            with pytest.raises(ValueError):
                run_pipeline(config, tmp_path / "run")
            assert not (tmp_path / "run").exists()

    def test_feature_only_nodes_pad_the_adjacency(self, tmp_path):
        # features mention node 5, edges only reach node 3
        (tmp_path / "edges.txt").write_text("0 1\n1 2\n2 3\n0 2\n1 3\n")
        (tmp_path / "features.txt").write_text(
            "".join(f"{n} {f}\n" for n in range(6) for f in ((0, 1) if n % 2 else (1, 2)))
        )
        (tmp_path / "labels.txt").write_text("".join(f"{n} {n % 2}\n" for n in range(6)))
        config = PipelineConfig(
            edges=str(tmp_path / "edges.txt"),
            features=str(tmp_path / "features.txt"),
            labels=str(tmp_path / "labels.txt"),
            k=2,
            rank=2,
            repeats=2,
            max_iters=30,
        )
        run_dir = run_pipeline(config, tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        stack = next(s for s in manifest["stages"] if s["name"] == "stack")
        assert stack["num_nodes"] == 6

    @pytest.mark.parametrize("edge_nodes, feature_nodes", [(4, 6), (6, 4)])
    def test_run_and_stagewise_reconcile_node_counts_alike(
        self, tmp_path, edge_nodes, feature_nodes
    ):
        # one input names nodes the other never reaches
        pairs = [(u, v) for u in range(edge_nodes) for v in range(u + 1, edge_nodes)
                 if (u + v) % 3]
        (tmp_path / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in pairs))
        (tmp_path / "features.txt").write_text("".join(
            f"{n} {f}\n" for n in range(feature_nodes) for f in ((0, 1) if n % 2 else (1, 2))
        ))
        (tmp_path / "labels.txt").write_text("".join(f"{n} {n % 2}\n" for n in range(6)))
        config = PipelineConfig(
            edges=str(tmp_path / "edges.txt"),
            features=str(tmp_path / "features.txt"),
            labels=str(tmp_path / "labels.txt"),
            k=2,
            rank=2,
            repeats=2,
            max_iters=30,
        )
        run_dir = run_pipeline(config, tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        stack = next(s for s in manifest["stages"] if s["name"] == "stack")
        assert (stack["num_nodes"], stack["views"]) == (6, 2)

        knn, model = tmp_path / "knn.txt", tmp_path / "model"
        assert main(["build-knn", "--features", config.features, "--k", "2",
                     "--out", str(knn)]) == 0
        assert main(["decompose", "--adj", config.edges, "--knn", str(knn),
                     "--rank", "2", "--max-iters", "30", "--out", str(model)]) == 0
        assert (model / "A.txt").read_text().splitlines()[0] == "6 2"
        assert (model / "C.txt").read_text().splitlines()[0] == "2 2"
        for name in ("A.txt", "B.txt", "C.txt", "scales.txt", "run.json"):
            assert (model / name).read_bytes() == (run_dir / "model" / name).read_bytes()

    def test_default_run_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GRAPHFACTOR_RUNS", str(tmp_path / "elsewhere"))
        assert default_run_root() == tmp_path / "elsewhere"
        monkeypatch.delenv("GRAPHFACTOR_RUNS")
        assert default_run_root() == Path("runs")


class TestPruningReportReuse:
    THRESHOLD = 3.4  # removes one of the four demo dimensions

    @pytest.mark.parametrize("source", ["A", "B"])
    def test_report_equals_a_standalone_call(self, demo_paths, tmp_path, source):
        config = demo_config(demo_paths, prune_threshold=self.THRESHOLD,
                             train_fractions=(0.3, 0.6), embedding_source=source)
        run_dir = run_pipeline(config, tmp_path / "run")
        model = load_model(run_dir / "model")
        standalone = pruning_report(
            model,
            extract_embeddings(model, "A"),
            load_labels(demo_paths["labels"], num_nodes=30),
            self.THRESHOLD,
            eval_config=EvalConfig(train_fraction=0.3, repeats=3, seed=0, l2_strength=1.0),
        )
        assert len(standalone["removed_dimensions"]) == 1
        assert json.loads((run_dir / "pruning_report.json").read_text()) == standalone

    def test_source_a_reuses_the_first_evaluation(self, demo_paths, tmp_path, monkeypatch):
        calls = []
        evaluate = graphfactor.interpret.evaluate

        def counting_evaluate(emb, labels, config):
            calls.append(config.train_fraction)
            return evaluate(emb, labels, config)

        monkeypatch.setattr(graphfactor.interpret, "evaluate", counting_evaluate)
        config = demo_config(demo_paths, prune_threshold=self.THRESHOLD,
                             train_fractions=(0.3, 0.6))
        run_dir = run_pipeline(config, tmp_path / "run")
        report = json.loads((run_dir / "pruning_report.json").read_text())
        first = json.loads((run_dir / "eval_train_0p3.json").read_text())
        assert report["evaluation_before"] == first
        assert calls == [0.3]  # only the pruned embedding is evaluated again


class TestSweep:
    def test_k_sweep_writes_one_run_per_value(self, demo_paths, tmp_path):
        result = sweep(demo_config(demo_paths), "k", [2, 4], run_root=tmp_path)
        assert [v for v, _ in result.rows] == [2, 4]
        assert all(0.0 <= score <= 1.0 for _, score in result.rows)
        for value in (2, 4):
            assert (tmp_path / f"k_{value}" / "manifest.json").is_file()
        csv = result.to_csv()
        lines = csv.splitlines()
        assert lines[0] == "k,micro_f1_mean"
        assert len(lines) == 3

    def test_d_sweep_varies_rank(self, demo_paths, tmp_path):
        result = sweep(demo_config(demo_paths), "d", [2, 3], run_root=tmp_path)
        for value in (2, 3):
            manifest = json.loads((tmp_path / f"d_{value}" / "manifest.json").read_text())
            assert manifest["config"]["rank"] == value

    def test_failing_value_is_recorded_and_sweep_continues(self, demo_paths, tmp_path):
        # k=200 exceeds the 30-node graph and must fail; k=3 still succeeds
        result = sweep(demo_config(demo_paths), "k", [200, 3], run_root=tmp_path)
        assert result.rows[0] == (200, None)
        assert result.rows[1][0] == 3 and result.rows[1][1] is not None
        assert "200,failed" in result.to_csv()

    def test_parameter_validation(self, demo_paths, tmp_path):
        with pytest.raises(ValueError, match="param"):
            sweep(demo_config(demo_paths), "rank", [2], run_root=tmp_path)
        with pytest.raises(ValueError, match="duplicate"):
            sweep(demo_config(demo_paths), "k", [2, 2], run_root=tmp_path)
        with pytest.raises(ValueError, match="nonempty"):
            sweep(demo_config(demo_paths), "k", [], run_root=tmp_path)


class TestCli:
    def test_stagewise_round_trip(self, demo_paths, tmp_path):
        knn = tmp_path / "knn.txt"
        model = tmp_path / "model"
        emb = tmp_path / "emb.txt"
        eval_out = tmp_path / "eval.json"
        weights = tmp_path / "weights.csv"
        report = tmp_path / "prune.json"
        recon = tmp_path / "view0.txt"
        assert main(["build-knn", "--features", str(demo_paths["features"]),
                     "--k", "3", "--out", str(knn)]) == 0
        assert main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--knn", str(knn), "--rank", "4", "--max-iters", "60",
                     "--tol", "1e-5", "--out", str(model)]) == 0
        assert main(["embed", "--model", str(model), "--out", str(emb)]) == 0
        assert main(["evaluate", "--embeddings", str(emb),
                     "--labels", str(demo_paths["labels"]),
                     "--repeats", "3", "--out", str(eval_out)]) == 0
        assert main(["interpret", "--model", str(model), "--threshold", "0.001",
                     "--out", str(weights), "--prune-eval",
                     "--embeddings", str(emb),
                     "--labels", str(demo_paths["labels"]),
                     "--repeats", "3", "--report-out", str(report)]) == 0
        assert main(["reconstruct", "--model", str(model), "--view", "1",
                     "--out", str(recon)]) == 0
        for path in (knn, emb, eval_out, weights, report, recon):
            assert path.is_file()
        parsed = json.loads(eval_out.read_text())
        assert 0.0 <= parsed["micro_f1_mean"] <= 1.0
        header = recon.read_text().splitlines()[0]
        assert header == "30 30"

    def test_run_subcommand(self, demo_paths, tmp_path):
        code = main([
            "run", "--edges", str(demo_paths["edges"]),
            "--features", str(demo_paths["features"]),
            "--labels", str(demo_paths["labels"]),
            "--k", "3", "--rank", "4", "--max-iters", "60", "--tol", "1e-5",
            "--repeats", "3", "--out", str(tmp_path / "run"),
        ])
        assert code == 0
        assert (tmp_path / "run" / "manifest.json").is_file()

    def test_sweep_subcommand(self, demo_paths, tmp_path):
        code = main([
            "sweep", "--edges", str(demo_paths["edges"]),
            "--features", str(demo_paths["features"]),
            "--labels", str(demo_paths["labels"]),
            "--k", "3", "--rank", "4", "--max-iters", "60", "--tol", "1e-5",
            "--repeats", "2", "--param", "d", "--values", "2", "3",
            "--run-root", str(tmp_path / "sweeps"),
            "--out", str(tmp_path / "sweep.csv"),
        ])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "d,micro_f1_mean"
        assert len(lines) == 3

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["build-knn", "--k", "3", "--out", "x"])  # missing --features
        assert excinfo.value.code == 1
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 1

    def test_prune_eval_missing_flags_exit_one(self, demo_paths, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--rank", "2", "--max-iters", "20", "--tol", "1e-4",
                     "--out", str(model)]) == 0
        code = main(["interpret", "--model", str(model), "--threshold", "0.1",
                     "--out", str(tmp_path / "w.csv"), "--prune-eval"])
        assert code == 1
        assert "--prune-eval requires" in capsys.readouterr().err

    def test_data_errors_exit_two(self, demo_paths, tmp_path, capsys):
        code = main(["evaluate", "--embeddings", str(tmp_path / "absent.txt"),
                     "--labels", str(demo_paths["labels"]),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

        bad = tmp_path / "bad_edges.txt"
        bad.write_text("0 not-a-node\n")
        code = main(["decompose", "--adj", str(bad), "--rank", "2",
                     "--out", str(tmp_path / "m")])
        assert code == 2

    def test_run_without_labels_exits_two(self, demo_paths, tmp_path, capsys):
        code = main([
            "run", "--edges", str(demo_paths["edges"]),
            "--features", str(demo_paths["features"]),
            "--k", "3", "--rank", "4", "--max-iters", "60", "--tol", "1e-5",
            "--repeats", "3", "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "evaluate" in capsys.readouterr().err
        assert (tmp_path / "run" / "FAILED").is_file()

    def test_numerical_errors_exit_three(self, demo_paths, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NumericalError("fit became non-finite")

        monkeypatch.setattr(graphfactor.cli, "decompose", explode)
        code = main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--rank", "2", "--out", str(tmp_path / "m")])
        assert code == 3

        monkeypatch.setattr(graphfactor.pipeline, "decompose", explode)
        code = main([
            "run", "--edges", str(demo_paths["edges"]),
            "--features", str(demo_paths["features"]),
            "--labels", str(demo_paths["labels"]),
            "--k", "3", "--rank", "4", "--out", str(tmp_path / "run"),
        ])
        assert code == 3
        assert "decompose" in capsys.readouterr().err


class TestBundledDataset:
    def test_bundled_copy_regenerates_exactly(self, tmp_path):
        bundled = REPO_ROOT / "data" / "synthetic30"
        regenerated = write_dataset(planted_dataset(DEMO30), tmp_path)
        for name in ("edges", "features", "labels"):
            assert (
                regenerated[name].read_bytes()
                == (bundled / f"{name}.txt").read_bytes()
            ), name
