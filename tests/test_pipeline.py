"""Tests for the six-stage run pipeline, the parameter sweep, and the CLI."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import graphfactor.cli
import graphfactor.cpals
import graphfactor.embedding
import graphfactor.interpret
import graphfactor.pipeline
from graphfactor import (
    AlsConfig,
    DataError,
    EvalConfig,
    NumericalError,
    ParseError,
    PipelineConfig,
    PipelineError,
    extract_embeddings,
    load_labels,
    run_pipeline,
)
from graphfactor.cli import main
from graphfactor.cpals import load_model
from graphfactor.dataio import load_matrix, save_matrix, sha256_file
from graphfactor.embedding import dimension_weights
from graphfactor.interpret import pruning_report
from graphfactor.pipeline import STAGE_NAMES, SweepResult, config_from, default_run_root, sweep
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


def run_bytes(run_dir):
    return {name: (run_dir / name).read_bytes() for name in run_files(run_dir)}


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

    def test_manifest_counts_extrapolations_that_run_json_omits(self, demo_paths, tmp_path):
        run_dir = run_pipeline(demo_config(demo_paths), tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        entry = {s["name"]: s for s in manifest["stages"]}["decompose"]
        record = json.loads((run_dir / "model" / "run.json").read_text())
        # the demo run's fit gain falls below 10 tol well before it stops
        assert entry["extrapolations_accepted"] >= 1
        assert entry["extrapolations_rejected"] >= 1
        assert entry["iterations"] == len(record["fit_history"])
        assert not {"extrapolations_accepted", "extrapolations_rejected"} & set(record)

    def test_input_checksums_recorded(self, demo_paths, tmp_path):
        run_dir = run_pipeline(demo_config(demo_paths), tmp_path / "run")
        manifest = json.loads((run_dir / "manifest.json").read_text())
        for name in ("edges", "features", "labels"):
            entry = manifest["inputs"][name]
            assert entry["sha256"] == sha256_file(demo_paths[name])
        # an adjacency-only run reads no feature file, so its manifest names none
        ablation = run_pipeline(demo_config(demo_paths, use_knn_view=False), tmp_path / "ablation")
        inputs = json.loads((ablation / "manifest.json").read_text())["inputs"]
        assert sorted(inputs) == ["edges", "labels"]
        for name in ("edges", "labels"):
            assert inputs[name]["sha256"] == sha256_file(demo_paths[name])

    def test_failed_run_manifest_lists_every_input(self, demo_paths, tmp_path):
        # k=200 exceeds the 30-node graph, so the run fails at its first stage
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(demo_config(demo_paths, k=200), tmp_path / "run")
        assert excinfo.value.stage == "build-knn"
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["inputs"] == {
            name: {"path": str(demo_paths[name]), "sha256": sha256_file(demo_paths[name])}
            for name in ("edges", "features", "labels")
        }

    def test_knn_view_with_no_edges_fails_at_build_knn(self, demo_paths, tmp_path):
        # no two of the 30 nodes share a feature, so the K-NN view has no edge
        features = tmp_path / "disjoint.txt"
        features.write_text("".join(f"{v} {v}\n" for v in range(30)))
        config = demo_config(demo_paths, features=str(features))
        with pytest.raises(PipelineError, match="--no-knn-view") as excinfo:
            run_pipeline(config, tmp_path / "run")
        assert excinfo.value.stage == "build-knn"
        assert (tmp_path / "run" / "FAILED").read_text().startswith("stage: build-knn\n")
        assert not (tmp_path / "run" / "knn_edges.txt").exists()

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

    def test_reports_write_every_eval_config_field_as_its_declared_type(self, demo_paths,
                                                                          tmp_path):
        config = demo_config(demo_paths, prune_threshold=1e-3, repeats=2, l2_strength=2)
        run_dir = run_pipeline(config, tmp_path / "run")
        text = (run_dir / "pruning_report.json").read_text()
        settings = json.loads(text)["eval_config"]
        assert set(settings) == {f.name for f in dataclasses.fields(EvalConfig)}
        assert settings == {"train_fraction": 0.5, "repeats": 2, "seed": 0, "l2_strength": 2.0}
        assert '"l2_strength": 2.0' in text
        evaluation = json.loads((run_dir / "eval_train_0p5.json").read_text())
        assert (evaluation["train_fraction"], evaluation["repeats"]) == (0.5, 2)

    def test_knn_view_can_be_disabled(self, demo_paths, tmp_path):
        malformed = tmp_path / "features.txt"  # a run without the view never parses it
        malformed.write_text("0 x\n")
        config = demo_config(demo_paths, features=str(malformed), use_knn_view=False)
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

    @pytest.mark.parametrize("name", ["edges", "features", "labels"])
    def test_unreadable_input_is_rejected_before_writing(self, demo_paths, tmp_path, name):
        config = demo_config(demo_paths, prune_threshold=1e-3)
        run_dir = run_pipeline(config, tmp_path / "run")
        before = run_bytes(run_dir)
        missing = dataclasses.replace(config, **{name: str(tmp_path / "absent.txt")})
        with pytest.raises(DataError, match="absent.txt"):
            run_pipeline(missing, run_dir)
        assert run_bytes(run_dir) == before
        assert not (run_dir / "FAILED").exists()
        # a bad token on the last record is found before K-NN or ALS run, too
        text = Path(demo_paths[name]).read_text()
        malformed = tmp_path / f"malformed_{name}.txt"
        malformed.write_text(text + "5 x\n")
        last = len(text.splitlines()) + 1
        with pytest.raises(ParseError, match=f"malformed_{name}.txt:{last}:"):
            run_pipeline(dataclasses.replace(config, **{name: str(malformed)}), run_dir)
        assert run_bytes(run_dir) == before
        assert not (run_dir / "FAILED").exists()

    @pytest.mark.parametrize("index, function", enumerate(
        ["build_knn_view", "stack_views", "decompose", "extract_embeddings", "evaluate",
         "write_weights_csv"]))
    def test_stage_failure_is_recorded(self, demo_paths, tmp_path, monkeypatch, index, function):
        name = STAGE_NAMES[index]

        def explode(*args, **kwargs):
            raise RuntimeError(f"{function} broke")

        monkeypatch.setattr(graphfactor.pipeline, function, explode)
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(demo_config(demo_paths), tmp_path / "run")
        assert excinfo.value.stage == name
        assert isinstance(excinfo.value.cause, RuntimeError)
        marker = (tmp_path / "run" / "FAILED").read_text()
        assert marker == f"stage: {name}\ncause: {function} broke\n"
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == name
        assert manifest["failure_cause"] == f"{function} broke"
        assert [s["name"] for s in manifest["stages"]] == list(STAGE_NAMES[:index])

    def test_successful_rerun_removes_stale_failed_marker(self, demo_paths, tmp_path):
        far = tmp_path / "far_labels.txt"
        far.write_text("0 0\n99 1\n")  # node 99 is past the 30-row embedding
        with pytest.raises(PipelineError):
            run_pipeline(demo_config(demo_paths, labels=str(far)), tmp_path / "run")
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

    def test_rerun_deletes_the_temporaries_a_killed_write_left(self, demo_paths, tmp_path):
        run_dir = tmp_path / "run"
        (run_dir / "model").mkdir(parents=True)
        left = ["FAILED.tmp", "manifest.json.tmp", "eval_train_0p3.json.tmp", "model/A.txt.tmp"]
        for name in [*left, "notes.txt.tmp"]:
            (run_dir / name).write_text("half a file")
        run_pipeline(demo_config(demo_paths), run_dir)
        run_pipeline(demo_config(demo_paths), tmp_path / "fresh")
        assert run_files(run_dir) == sorted(run_files(tmp_path / "fresh") + ["notes.txt.tmp"])

    def test_numpy_integer_settings_write_the_plain_int_bytes(self, demo_paths, tmp_path):
        plain = run_pipeline(demo_config(demo_paths, rank=4, seed=1), tmp_path / "plain")
        paths = {name: Path(demo_paths[name]) for name in ("edges", "features", "labels")}
        numpy = run_pipeline(
            demo_config(demo_paths, k=np.int64(3), rank=np.int64(4), seed=np.int64(1), **paths),
            tmp_path / "numpy",
        )
        assert run_bytes(numpy) == run_bytes(plain)
        config = json.loads((numpy / "manifest.json").read_text())["config"]
        assert config["edges"] == str(demo_paths["edges"])
        assert [type(config[name]) for name in ("edges", "labels", "k", "rank")] == [
            str, str, int, int]

    def test_invalid_config_rejected_before_writing(self, demo_paths):
        # the config checks itself when built, so no run can start from it
        for bad in ({"k": 0}, {"rank": 0}, {"init": "bogus"}, {"repeats": 0},
                    {"l2_strength": 0.0}, {"train_fractions": (1.0,)}, {"seed": -1},
                    {"k": 2.0}, {"prune_threshold": float("nan")},
                    {"train_fractions": (0.5, 0.5)}, {"train_fractions": (0.5, 0.5000001)},
                    {"tol": 0}, {"max_iters": 0}, {"embedding_source": "Z"}):
            with pytest.raises(ValueError):
                demo_config(demo_paths, **bad)

    def test_config_is_frozen(self, demo_paths):
        config = demo_config(demo_paths)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.k = 0

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

        emb, report, weights = tmp_path / "emb.txt", tmp_path / "eval.json", tmp_path / "w.csv"
        assert main(["embed", "--model", str(model), "--out", str(emb)]) == 0
        assert main(["evaluate", "--embeddings", str(emb), "--labels", config.labels,
                     "--repeats", "2", "--out", str(report)]) == 0
        assert main(["interpret", "--model", str(model), "--out", str(weights)]) == 0
        for run_name, stage_out in (("embeddings.txt", emb), ("eval_train_0p5.json", report),
                                    ("weights.csv", weights)):
            assert stage_out.read_bytes() == (run_dir / run_name).read_bytes()

    def test_default_run_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GRAPHFACTOR_RUNS", str(tmp_path / "elsewhere"))
        assert default_run_root() == tmp_path / "elsewhere"
        monkeypatch.delenv("GRAPHFACTOR_RUNS")
        assert default_run_root() == Path("runs")

    def test_runs_without_a_directory_get_distinct_timestamped_ones(
            self, demo_paths, monkeypatch, tmp_path):
        monkeypatch.setenv("GRAPHFACTOR_RUNS", str(tmp_path))
        monkeypatch.setattr(graphfactor.pipeline.time, "strftime", lambda fmt: "20260101-120000")
        first = run_pipeline(demo_config(demo_paths))
        second = run_pipeline(demo_config(demo_paths))
        assert (first, second) == (tmp_path / "run-20260101-120000",
                                   tmp_path / "run-20260101-120000-1")
        for run_dir in (first, second):
            assert json.loads((run_dir / "manifest.json").read_text())["status"] == "ok"
        sweep(demo_config(demo_paths), "d", [2])
        assert (tmp_path / "run-20260101-120000-2" / "d_2" / "manifest.json").is_file()


class TestPruningReportReuse:
    THRESHOLD = 3.4  # removes one of the four demo dimensions

    SOURCES = ["A", "B", "A-concat-B"]

    @staticmethod
    def copies(source):
        """Whole copies of the components the source's embedding holds."""
        return 2 if source == "A-concat-B" else 1

    @pytest.mark.parametrize("source", SOURCES)
    def test_report_equals_a_standalone_call(self, demo_paths, tmp_path, source):
        config = demo_config(demo_paths, prune_threshold=self.THRESHOLD,
                             train_fractions=(0.3, 0.6), embedding_source=source)
        run_dir = run_pipeline(config, tmp_path / "run")
        model = load_model(run_dir / "model")
        standalone = pruning_report(
            model,
            extract_embeddings(model, source),
            load_labels(demo_paths["labels"]),
            self.THRESHOLD,
            before=EvalConfig(train_fraction=0.3, repeats=3, seed=0, l2_strength=1.0),
        )
        assert len(standalone["removed_dimensions"]) == self.copies(source)
        assert json.loads((run_dir / "pruning_report.json").read_text()) == standalone

    @pytest.mark.parametrize("source", SOURCES)
    def test_one_pruning_per_run(self, demo_paths, tmp_path, monkeypatch, source):
        calls = []
        original = graphfactor.embedding.prune_dimensions

        def counting_prune(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        # Patch every module that holds the function, wherever the run calls it from.
        modules = [m for name, m in sys.modules.items() if name.startswith("graphfactor")]
        for module in modules:
            if getattr(module, "prune_dimensions", None) is original:
                monkeypatch.setattr(module, "prune_dimensions", counting_prune)
        config = demo_config(demo_paths, prune_threshold=self.THRESHOLD, embedding_source=source)
        run_dir = run_pipeline(config, tmp_path / "run")
        assert len(calls) == 1
        model = load_model(run_dir / "model")
        want, removed = original(extract_embeddings(model, source), model, self.THRESHOLD)
        assert len(removed) == self.copies(source)
        assert np.array_equal(load_matrix(run_dir / "embeddings_pruned.txt"), want)

    @pytest.mark.parametrize("source", SOURCES)
    def test_every_source_reuses_the_first_evaluation(self, demo_paths, tmp_path, monkeypatch,
                                                      source):
        calls = []
        evaluate = graphfactor.interpret.evaluate

        def counting_evaluate(emb, labels, config):
            calls.append(config.train_fraction)
            return evaluate(emb, labels, config)

        monkeypatch.setattr(graphfactor.interpret, "evaluate", counting_evaluate)
        config = demo_config(demo_paths, prune_threshold=self.THRESHOLD,
                             train_fractions=(0.3, 0.6), embedding_source=source)
        run_dir = run_pipeline(config, tmp_path / "run")
        report = json.loads((run_dir / "pruning_report.json").read_text())
        first = json.loads((run_dir / "eval_train_0p3.json").read_text())
        assert report["evaluation_before"] == first
        assert calls == [0.3]  # only the pruned embedding is evaluated again

    @pytest.mark.parametrize("source", SOURCES)
    def test_run_and_cli_stage_chain_agree(self, demo_paths, tmp_path, source):
        config = demo_config(demo_paths, prune_threshold=self.THRESHOLD, embedding_source=source)
        run_dir = run_pipeline(config, tmp_path / "run")
        knn, model = tmp_path / "knn.txt", tmp_path / "model"
        emb, pruned, report = tmp_path / "emb.txt", tmp_path / "pruned.txt", tmp_path / "r.json"
        threshold = str(self.THRESHOLD)
        assert main(["build-knn", "--features", config.features, "--k", "3",
                     "--out", str(knn)]) == 0
        assert main(["decompose", "--adj", config.edges, "--knn", str(knn), "--rank", "4",
                     "--max-iters", "60", "--out", str(model)]) == 0
        assert main(["embed", "--model", str(model), "--source", source, "--out", str(emb)]) == 0
        assert main(["embed", "--model", str(model), "--source", source,
                     "--prune-threshold", threshold, "--out", str(pruned)]) == 0
        assert main(["interpret", "--model", str(model), "--threshold", threshold,
                     "--out", str(tmp_path / "w.csv"), "--prune-eval", "--embeddings", str(emb),
                     "--labels", config.labels, "--repeats", "3", "--report-out", str(report)]) == 0
        assert report.read_bytes() == (run_dir / "pruning_report.json").read_bytes()
        assert pruned.read_bytes() == (run_dir / "embeddings_pruned.txt").read_bytes()
        assert json.loads(report.read_text())["removed_dimensions"]


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
        # a fractional rank fails validation instead of being rounded to 2
        result = sweep(demo_config(demo_paths), "d", [2.7, 3], run_root=tmp_path / "d")
        assert result.rows[0] == (2.7, None)
        assert result.rows[1][0] == 3 and result.rows[1][1] is not None
        assert "2.7,failed" in result.to_csv()
        assert not (tmp_path / "d" / "d_2").exists()

    def test_unreadable_input_stops_the_sweep_before_any_value_runs(self, demo_paths, tmp_path):
        config = demo_config(demo_paths, labels=str(tmp_path / "absent.txt"))
        with pytest.raises(DataError, match="absent.txt"):
            sweep(config, "d", [2, 3, 4], run_root=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_malformed_input_stops_the_sweep_before_any_value_runs(self, demo_paths, tmp_path):
        malformed = tmp_path / "bad_labels.txt"
        malformed.write_text(Path(demo_paths["labels"]).read_text() + "17 x\n")
        config = demo_config(demo_paths, labels=str(malformed))
        with pytest.raises(ParseError, match="bad_labels.txt"):
            sweep(config, "d", [2, 3], run_root=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_parameter_validation(self, demo_paths, tmp_path):
        with pytest.raises(ValueError, match="param"):
            sweep(demo_config(demo_paths), "rank", [2], run_root=tmp_path)
        with pytest.raises(ValueError, match="duplicate"):
            sweep(demo_config(demo_paths), "k", [2, 2], run_root=tmp_path)
        with pytest.raises(ValueError, match="nonempty"):
            sweep(demo_config(demo_paths), "k", [], run_root=tmp_path)


class TestConfigFrom:
    def test_copies_same_named_fields_and_takes_overrides(self, demo_paths):
        config = demo_config(demo_paths, seed=3, l2_strength=2.0)
        assert config_from(EvalConfig, config, train_fraction=0.4) == EvalConfig(
            0.4, repeats=3, seed=3, l2_strength=2.0
        )
        assert config_from(AlsConfig, config) == config.als_config()

    def test_a_field_the_source_lacks_raises(self, demo_paths):
        with pytest.raises(AttributeError, match="train_fraction"):
            config_from(EvalConfig, demo_config(demo_paths))


def assert_all_non_default(config):
    """Every field with a default holds another value, so a flag that fills
    no field (or the wrong one) shows up as a mismatch."""
    for f in dataclasses.fields(config):
        if f.default is not dataclasses.MISSING:
            assert getattr(config, f.name) != f.default, f.name


class TestCliFlagWiring:
    """Every flag lands in its config field: an argv that sets all of them
    builds the config its keywords build."""

    @pytest.fixture
    def pipeline_argv(self, demo_paths):
        expected = PipelineConfig(
            edges=str(demo_paths["edges"]), features=str(demo_paths["features"]),
            labels=str(demo_paths["labels"]), k=5, rank=6, seed=3, tol=1e-4, max_iters=7,
            train_fractions=(0.3, 0.6), repeats=4, l2_strength=2.5, prune_threshold=0.2,
            embedding_source="B", init="normal", use_knn_view=False,
        )
        argv = [
            "--edges", expected.edges, "--features", expected.features,
            "--labels", expected.labels, "--k", "5", "--rank", "6", "--seed", "3",
            "--tol", "1e-4", "--max-iters", "7", "--train-fractions", "0.3", "0.6",
            "--repeats", "4", "--l2", "2.5", "--prune-threshold", "0.2", "--source", "B",
            "--init", "normal", "--no-knn-view",
        ]
        assert_all_non_default(expected)
        return argv, expected

    def test_run_builds_the_keyword_pipeline_config(self, pipeline_argv, monkeypatch, tmp_path):
        argv, expected = pipeline_argv
        seen = []
        monkeypatch.setattr(graphfactor.cli, "run_pipeline",
                            lambda config, out: seen.append(config) or out)
        assert main(["run", *argv, "--out", str(tmp_path / "run")]) == 0
        assert seen == [expected]

    def test_sweep_builds_the_keyword_pipeline_config(self, pipeline_argv, monkeypatch, tmp_path):
        argv, expected = pipeline_argv
        seen = []
        monkeypatch.setattr(graphfactor.cli, "sweep",
                            lambda config, *args, **kwargs: seen.append(config) or SweepResult("d"))
        code = main(["sweep", *argv, "--param", "d", "--values", "2",
                     "--out", str(tmp_path / "sweep.csv")])
        assert code == 0
        assert seen == [expected]

    def test_decompose_builds_the_keyword_als_config(self, demo_paths, monkeypatch, tmp_path):
        expected = AlsConfig(rank=3, max_iters=5, tol=1e-3, seed=2, init="normal")
        assert_all_non_default(expected)
        seen = []
        real = graphfactor.cli.decompose
        monkeypatch.setattr(graphfactor.cli, "decompose",
                            lambda x, config: seen.append(config) or real(x, config))
        code = main(["decompose", "--adj", str(demo_paths["edges"]), "--rank", "3",
                     "--max-iters", "5", "--tol", "1e-3", "--seed", "2", "--init", "normal",
                     "--out", str(tmp_path / "model")])
        assert code == 0
        assert seen == [expected]
        record = json.loads((tmp_path / "model" / "run.json").read_text())
        assert record["config"] == dataclasses.asdict(expected)

    def test_evaluate_and_interpret_build_the_keyword_eval_config(
        self, demo_paths, monkeypatch, tmp_path
    ):
        expected = EvalConfig(train_fraction=0.6, repeats=2, seed=4, l2_strength=3.0)
        assert_all_non_default(expected)
        flags = ["--train-fraction", "0.6", "--repeats", "2", "--seed", "4", "--l2", "3.0"]
        model, emb = tmp_path / "model", tmp_path / "emb.txt"
        assert main(["decompose", "--adj", str(demo_paths["edges"]), "--rank", "4",
                     "--max-iters", "20", "--out", str(model)]) == 0
        save_matrix(extract_embeddings(load_model(model)), emb)
        seen = []
        real_evaluate, real_report = graphfactor.cli.evaluate, graphfactor.cli.pruning_report
        monkeypatch.setattr(graphfactor.cli, "evaluate",
                            lambda e, labels, config: seen.append(config)
                            or real_evaluate(e, labels, config))
        monkeypatch.setattr(graphfactor.cli, "pruning_report",
                            lambda m, e, labels, threshold, config: seen.append(config)
                            or real_report(m, e, labels, threshold, config))
        labels = str(demo_paths["labels"])
        assert main(["evaluate", "--embeddings", str(emb), "--labels", labels, *flags,
                     "--out", str(tmp_path / "eval.json")]) == 0
        assert main(["interpret", "--model", str(model), "--threshold", "0.001",
                     "--out", str(tmp_path / "weights.csv"), "--prune-eval",
                     "--embeddings", str(emb), "--labels", labels, *flags,
                     "--report-out", str(tmp_path / "prune.json")]) == 0
        assert seen == [expected, expected]

    def test_one_tol_default_for_the_solver_the_pipeline_and_every_als_subcommand(self):
        parser = graphfactor.cli.build_parser()
        dataset = ["--edges", "e", "--features", "f", "--labels", "l", "--k", "3", "--rank", "2"]
        parsed = [
            parser.parse_args(["decompose", "--adj", "e", "--rank", "2", "--out", "m"]).tol,
            parser.parse_args(["run", *dataset]).tol,
            parser.parse_args(["sweep", *dataset, "--param", "d", "--values", "2",
                               "--out", "s.csv"]).tol,
        ]
        pipeline = PipelineConfig(edges="e", features="f", labels="l", k=3, rank=2)
        assert [AlsConfig(rank=2).tol, pipeline.tol, *parsed] == [1e-5] * 5

    def test_evaluate_report_records_its_seed_and_l2_strength(self, demo_paths, tmp_path):
        emb, out = tmp_path / "emb.txt", tmp_path / "eval.json"
        save_matrix(planted_dataset(DEMO30).features_csr().toarray(), emb)
        assert main(["evaluate", "--embeddings", str(emb), "--labels", str(demo_paths["labels"]),
                     "--repeats", "2", "--seed", "3", "--l2", "2.5", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"seed": 3,' in text and '"l2_strength": 2.5,' in text


class TestCli:
    def test_stagewise_round_trip(self, demo_paths, tmp_path, capsys, monkeypatch):
        knn = tmp_path / "knn.txt"
        model = tmp_path / "model"
        emb = tmp_path / "emb.txt"
        eval_out = tmp_path / "eval.json"
        weights = tmp_path / "weights.csv"
        report = tmp_path / "prune.json"
        recon = tmp_path / "view0.txt"
        assert main(["build-knn", "--features", str(demo_paths["features"]),
                     "--k", "3", "--out", str(knn)]) == 0
        sweeps, fitted = [], []
        real_step, real_decompose = graphfactor.cpals.als_step, graphfactor.cli.decompose
        monkeypatch.setattr(graphfactor.cpals, "als_step",
                            lambda x, m: sweeps.append(1) or real_step(x, m))
        monkeypatch.setattr(graphfactor.cli, "decompose",
                            lambda x, config: fitted.append(real_decompose(x, config)) or fitted[0])
        capsys.readouterr()
        assert main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--knn", str(knn), "--rank", "4", "--max-iters", "60",
                     "--tol", "1e-5", "--out", str(model)]) == 0
        # the demo run rejects an extrapolation try, so its kept sweeps undercount
        # the sweeps spent; the printed count is every sweep spent
        (fit,) = fitted
        assert fit.extrapolations_rejected >= 1
        assert len(sweeps) == fit.iterations + fit.extrapolations_rejected
        assert (f"after {len(sweeps)} sweeps, {fit.extrapolations_rejected} extrapolations "
                f"rejected (converged)") in capsys.readouterr().out
        assert json.loads((model / "run.json").read_text())["iterations"] == fit.iterations
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

    def test_invalid_setting_stops_the_sweep_before_any_value_runs(self, demo_paths, tmp_path,
                                                                   capsys):
        code = main([
            "sweep", "--edges", str(demo_paths["edges"]),
            "--features", str(demo_paths["features"]),
            "--labels", str(demo_paths["labels"]),
            "--k", "3", "--rank", "4", "--repeats", "0", "--param", "d", "--values", "2", "3",
            "--run-root", str(tmp_path / "sweeps"), "--out", str(tmp_path / "sweep.csv"),
        ])
        assert code == 2
        assert "repeats must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "sweeps").exists()

    def test_stage_commands_check_their_config_before_reading_an_input(
        self, demo_paths, tmp_path, monkeypatch
    ):
        calls = []
        for name in ("load_edge_list", "load_directed_edge_list", "load_features",
                     "load_labels", "load_matrix", "load_model"):
            monkeypatch.setattr(graphfactor.cli, name,
                                lambda *args, name=name: calls.append(name))
        labels, emb = str(demo_paths["labels"]), str(tmp_path / "emb.txt")
        for argv in (
            ["decompose", "--adj", str(demo_paths["edges"]), "--rank", "0",
             "--out", str(tmp_path / "model")],
            ["evaluate", "--embeddings", emb, "--labels", labels, "--repeats", "0",
             "--out", str(tmp_path / "eval.json")],
            ["interpret", "--model", str(tmp_path / "model"), "--threshold", "0.1",
             "--out", str(tmp_path / "w.csv"), "--prune-eval", "--embeddings", emb,
             "--labels", labels, "--repeats", "0", "--report-out", str(tmp_path / "p.json")],
        ):
            assert main(argv) == 2, argv[0]
        assert calls == []

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
        assert not (tmp_path / "w.csv").exists()

    def test_interpret_rejects_flags_it_would_ignore(self, demo_paths, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--rank", "2", "--max-iters", "20", "--tol", "1e-4",
                     "--out", str(model)]) == 0
        code = main(["interpret", "--model", str(model), "--threshold", "0.1",
                     "--labels", str(demo_paths["labels"]), "--out", str(tmp_path / "w.csv")])
        assert code == 1
        assert "--threshold, --labels given without --prune-eval" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()

    def test_interpret_takes_evaluation_flags_only_with_prune_eval(self, demo_paths, tmp_path,
                                                                   capsys):
        model, emb = tmp_path / "model", tmp_path / "emb.txt"
        assert main(["decompose", "--adj", str(demo_paths["edges"]), "--rank", "2",
                     "--max-iters", "20", "--out", str(model)]) == 0
        assert main(["embed", "--model", str(model), "--out", str(emb)]) == 0
        code = main(["interpret", "--model", str(model), "--out", str(tmp_path / "w.csv"),
                     "--repeats", "7", "--seed", "9"])
        assert code == 1
        assert "--repeats, --seed given without --prune-eval" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()
        prune = ["interpret", "--model", str(model), "--threshold", "0.1", "--prune-eval",
                 "--embeddings", str(emb), "--labels", str(demo_paths["labels"])]
        for flags, want in (([], EvalConfig()),
                            (["--train-fraction", "0.6", "--repeats", "2", "--seed", "9",
                              "--l2", "2.5"], EvalConfig(0.6, 2, 9, 2.5))):
            report = tmp_path / f"prune{len(flags)}.json"
            assert main(prune + flags + ["--out", str(tmp_path / "w.csv"),
                                         "--report-out", str(report)]) == 0
            got = json.loads(report.read_text())["evaluation_before"]
            assert {k: got[k] for k in dataclasses.asdict(want)} == dataclasses.asdict(want)

    def test_concat_embedding_prunes_in_embed_and_interpret(self, demo_paths, tmp_path):
        model, full, pruned = tmp_path / "model", tmp_path / "full.txt", tmp_path / "pruned.txt"
        report = tmp_path / "prune.json"
        assert main(["decompose", "--adj", str(demo_paths["edges"]), "--rank", "4",
                     "--max-iters", "20", "--out", str(model)]) == 0
        weights = np.sort(dimension_weights(load_model(model)))
        threshold = str((weights[1] + weights[2]) / 2)  # removes two of the four components
        assert main(["embed", "--model", str(model), "--source", "A-concat-B",
                     "--prune-threshold", threshold, "--out", str(pruned)]) == 0
        assert main(["embed", "--model", str(model), "--source", "A-concat-B",
                     "--out", str(full)]) == 0
        assert main(["interpret", "--model", str(model), "--threshold", threshold,
                     "--out", str(tmp_path / "w.csv"), "--prune-eval", "--embeddings", str(full),
                     "--labels", str(demo_paths["labels"]), "--repeats", "2",
                     "--report-out", str(report)]) == 0
        got = json.loads(report.read_text())
        removed = got["removed_dimensions"]
        assert len(removed) == 4 and removed[2:] == [r + 4 for r in removed[:2]]
        assert (got["dims_before"], got["dims_after"]) == (8, 4)
        assert [c["dimension"] for c in got["removed_dimension_correlations"]] == removed
        assert load_matrix(pruned).shape == (30, 4)
        assert np.array_equal(load_matrix(pruned), np.delete(load_matrix(full), removed, axis=1))

    def test_interpret_rejects_nan_threshold_before_any_write_or_evaluation(
        self, demo_paths, tmp_path, capsys, monkeypatch
    ):
        model, emb = tmp_path / "model", tmp_path / "emb.txt"
        assert main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--rank", "2", "--max-iters", "20", "--tol", "1e-4",
                     "--out", str(model)]) == 0
        assert main(["embed", "--model", str(model), "--out", str(emb)]) == 0
        calls = []
        evaluate = graphfactor.interpret.evaluate

        def counting_evaluate(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(graphfactor.interpret, "evaluate", counting_evaluate)
        code = main(["interpret", "--model", str(model), "--threshold", "nan",
                     "--out", str(tmp_path / "w.csv"), "--prune-eval",
                     "--embeddings", str(emb), "--labels", str(demo_paths["labels"]),
                     "--repeats", "2", "--report-out", str(tmp_path / "prune.json")])
        assert code == 2
        assert "threshold must be >= 0, got nan" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "w.csv").exists()
        assert not (tmp_path / "prune.json").exists()

    def test_nan_prune_threshold_exits_two(self, demo_paths, tmp_path, capsys):
        model, emb = tmp_path / "model", tmp_path / "emb.txt"
        assert main(["decompose", "--adj", str(demo_paths["edges"]),
                     "--rank", "2", "--max-iters", "20", "--tol", "1e-4",
                     "--out", str(model)]) == 0
        assert main(["embed", "--model", str(model), "--out", str(emb)]) == 0
        code = main(["embed", "--model", str(model), "--prune-threshold", "nan",
                     "--out", str(tmp_path / "pruned.txt")])
        assert code == 2
        code = main(["interpret", "--model", str(model), "--threshold", "nan",
                     "--out", str(tmp_path / "w.csv"), "--prune-eval",
                     "--embeddings", str(emb), "--labels", str(demo_paths["labels"]),
                     "--repeats", "2", "--report-out", str(tmp_path / "prune.json")])
        assert code == 2
        assert "threshold must be >= 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "pruned.txt").exists()
        assert not (tmp_path / "prune.json").exists()

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

        # a label past the embedding's rows: evaluate's check, not the loader's
        model, emb = tmp_path / "model", tmp_path / "emb.txt"
        assert main(["decompose", "--adj", str(demo_paths["edges"]), "--rank", "2",
                     "--max-iters", "20", "--out", str(model)]) == 0
        assert main(["embed", "--model", str(model), "--out", str(emb)]) == 0
        far = tmp_path / "far_labels.txt"
        far.write_text("0 0\n99 1\n")
        for argv, outputs in (
            (["evaluate", "--embeddings", str(emb), "--labels", str(far),
              "--out", str(tmp_path / "far.json")], ["far.json"]),
            (["interpret", "--model", str(model), "--threshold", "0", "--prune-eval",
              "--embeddings", str(emb), "--labels", str(far),
              "--out", str(tmp_path / "w.csv"), "--report-out", str(tmp_path / "prune.json")],
             ["w.csv", "prune.json"]),
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert "error:" in capsys.readouterr().err
            assert not any((tmp_path / name).exists() for name in outputs)

    def test_build_knn_with_no_edges_exits_two_and_writes_nothing(self, tmp_path, capsys):
        features = tmp_path / "disjoint.txt"
        features.write_text("0 0\n1 1\n2 2\n3 3\n")
        code = main(["build-knn", "--features", str(features), "--k", "1",
                     "--out", str(tmp_path / "knn.txt")])
        assert code == 2
        assert "--no-knn-view" in capsys.readouterr().err
        assert not (tmp_path / "knn.txt").exists()

    def test_unwritable_outputs_exit_two(self, demo_paths, tmp_path, capsys):
        model = tmp_path / "model"
        assert main(["decompose", "--adj", str(demo_paths["edges"]), "--rank", "2",
                     "--max-iters", "20", "--out", str(model)]) == 0
        missing = tmp_path / "missing"
        for argv in (
            ["build-knn", "--features", str(demo_paths["features"]), "--k", "3",
             "--out", str(missing / "knn.txt")],
            ["embed", "--model", str(model), "--out", str(missing / "emb.txt")],
        ):
            capsys.readouterr()
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")
            assert not missing.exists()

    def test_run_without_labels_exits_one(self, demo_paths, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--edges", str(demo_paths["edges"]),
                "--features", str(demo_paths["features"]),
                "--k", "3", "--rank", "4", "--max-iters", "60", "--tol", "1e-5",
                "--repeats", "3", "--out", str(tmp_path / "run"),
            ])
        assert excinfo.value.code == 1
        assert "--labels" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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
