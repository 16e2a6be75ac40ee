"""graphfactor benchmark: end-to-end or traced runs of one workload, or of all.

    python3 perfbench/run.py --workload citeseer-prune --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Inputs are generated from the seed before any timing. Each run is a
closed loop of one: a fresh child process runs the whole workload, and
the next run starts only after it has exited. With ``--trace 0`` the
runs repeat until ``--seconds`` is used up (at least three) and the
end-to-end metrics are medians over the runs; the set-up time is each
child's import of the program. With ``--trace 1`` one
untraced and two traced runs are made (default BLAS threads, then
``OPENBLAS_NUM_THREADS=1`` in the child only) and the per-layer metrics
are printed. Every run's outputs are checked; the last line of standard
output is a JSON summary, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
MIN_RUNS = 3
DEADLINE_S = 170.0  # the whole invocation, inputs and set-up included
CHANCE_FACTOR = 1.5  # micro-F1 must reach this multiple of 1/classes

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "micro_f1": "ratio",
    "macro_f1": "ratio",
    "fit": "ratio",
    "ok_frac": "ratio",
}
SINGLE_THREAD = ("run_s", "cpals.als_step_ms", "knn.build_knn_view_s", "evaluate.evaluate_s")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s.mode" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes") or name.startswith("dataio.bytes_"):
        return "byte"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith(("_share", ".coverage")):
        return "ratio"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here: the program's sources are missing."""


def child_env(single_thread: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(work: Path, spec: dict, deadline: float) -> dict:
    """Run one child to completion; returns exit status, peak RSS and its result."""
    name = spec["out"]
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / f"{name}.log", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("workloads.py")), spec_path.name],
            cwd=work, env=child_env(spec["single_thread"]), stdout=log, stderr=log,
        )
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, rusage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    # wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = work / spec["result"]
    return {
        "exit": proc.returncode,
        "peak_rss_mb": rusage.ru_maxrss / 1024,
        "result": json.loads(result_path.read_text()) if result_path.exists() else None,
        "log": (work / f"{name}.log").read_text(errors="replace")[-2000:],
    }


def digests(run_dir: Path) -> dict:
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def check_run(run: dict, run_dir: Path, w: workloads.Workload) -> list:
    """Output checks for one run; returns the failures, empty if it passed."""
    if run["exit"] != 0 or run["result"] is None:
        return [f"exit code {run['exit']}: {run['log'].strip()[-400:]}"]
    names = workloads.artifact_names(w.kind)
    problems = []
    if w.kind == "pipeline":
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if manifest["status"] != "ok" or (run_dir / "FAILED").exists():
            problems.append(f"status {manifest['status']}")
    edges = np.loadtxt(run_dir / names["knn"], dtype=np.int64, ndmin=2)
    out_degree = np.bincount(edges[:, 0]) if edges.size else np.zeros(1, dtype=int)
    run["knn_edges"] = int(edges.shape[0])
    if out_degree.max() > w.k:
        problems.append(f"K-NN out-degree {out_degree.max()} exceeds k={w.k}")
    history = json.loads((run_dir / names["run"]).read_text())["fit_history"]
    run["fit"] = history[-1] if history else float("nan")
    if not history or not np.all(np.isfinite(history)):
        problems.append("fit history empty or not finite")
    report = json.loads((run_dir / names["eval"]).read_text())
    run["micro_f1"], run["macro_f1"] = report["micro_f1_mean"], report["macro_f1_mean"]
    chance = 1.0 / w.shape.classes
    if not run["micro_f1"] >= CHANCE_FACTOR * chance:
        problems.append(f"micro-F1 {run['micro_f1']:.4f} not above {CHANCE_FACTOR} x chance")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="30-node demo shape (smoke check)")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return bench(args.workload, args)
    codes = []
    for name in workloads.WORKLOADS:
        print(f"== {name}")
        codes.append(bench(name, args))
    return max(codes)


def bench(name: str, args) -> int:
    """Measure one workload; prints its summary last and returns the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "graphfactor" / "__init__.py").is_file():
        raise BenchError(f"no graphfactor sources under {SRC}")
    w = workloads.WORKLOADS[name]
    if args.tiny:
        w = workloads.tiny(w)

    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    work = STATE / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        gen.write_inputs(w.shape, args.seed, work / "inputs")
        inputs = {k: f"inputs/{k}.txt" for k in ("edges", "features", "labels")}

        def one_run(i, trace, single_thread):
            spec = {
                "workload": name, "tiny": args.tiny, "inputs": inputs,
                "out": f"run-{i}", "result": f"run-{i}.result.json",
                "trace": trace, "single_thread": single_thread,
            }
            run = spawn(work, spec, deadline)
            run.update(trace=trace, single_thread=single_thread)
            try:
                run["problems"] = check_run(run, work / spec["out"], w)
            except (OSError, ValueError, KeyError) as exc:  # missing or malformed artifact
                run["problems"] = [f"artifact check failed: {exc!r}"]
            if not run["problems"]:
                run["digests"] = digests(work / spec["out"])
            shutil.rmtree(work / spec["out"], ignore_errors=True)
            return run

        runs = []
        if args.trace:
            plan = [(False, False), (True, False), (True, True)]
            for i, (trace, single) in enumerate(plan):
                runs.append(one_run(i, trace, single))
        else:
            run_start = time.monotonic()
            while True:
                runs.append(one_run(len(runs), False, False))
                elapsed = time.monotonic() - run_start
                typical = elapsed / len(runs)
                if len(runs) >= MIN_RUNS and elapsed + typical > args.seconds:
                    break
                if time.monotonic() + 2 * typical > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Byte identity: every artifact matches across runs at one BLAS setting.
    for single in (False, True):
        same = [r for r in runs if not r["problems"] and r["single_thread"] == single]
        for r in same[1:]:
            if r["digests"] != same[0]["digests"]:
                changed = sorted(
                    k for k in set(r["digests"]) | set(same[0]["digests"])
                    if r["digests"].get(k) != same[0]["digests"].get(k)
                )
                r["problems"].append(f"artifacts differ from the first run: {changed}")

    ok = [r for r in runs if not r["problems"]]
    env = next((r["result"]["env"] for r in runs if r["result"]), None)
    print("env " + json.dumps(env, sort_keys=True))
    for i, r in enumerate(runs):
        mode = "traced" if r["trace"] else "untraced"
        mode += ", 1 BLAS thread" if r["single_thread"] else ""
        wall, threads = float("nan"), []
        if r["result"]:
            wall = r["result"]["run_s"]
            threads = [lib.get("threads") for lib in r["result"]["env"]["blas_libraries"]]
        verdict = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        print(f"run {i} ({mode}): {wall:.3f} s, peak RSS {r['peak_rss_mb']:.0f} MB, "
              f"{r.get('knn_edges', 0)} K-NN edges, BLAS threads {threads}, {verdict}")

    metrics, units = {}, {}
    if ok and not args.trace:
        metrics = {
            "run_s": statistics.median([r["result"]["run_s"] for r in ok]),
            "setup_s": statistics.median([r["result"]["import_s"] for r in ok]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok]),
            "micro_f1": ok[0]["micro_f1"],
            "macro_f1": ok[0]["macro_f1"],
            "fit": ok[0]["fit"],
            "ok_frac": len(ok) / len(runs),
        }
        units = END_TO_END_UNITS
        print(f"failed_frac {1 - metrics['ok_frac']:.4f} ({len(runs) - len(ok)} of {len(runs)} runs)")
    elif args.trace and len(ok) == len(runs):
        plain, traced, single = (r["result"] for r in runs)
        metrics = tracer.layer_metrics(traced["spans"], traced["run_s"])
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        single_metrics = tracer.layer_metrics(single["spans"], single["run_s"])
        single_metrics["run_s"] = single["run_s"]
        for metric in SINGLE_THREAD:
            metrics[f"single.{metric}"] = single_metrics[metric]
        units = {metric: layer_unit(metric) for metric in metrics}
        print("computed counts: tensor.mttkrp_flops, tensor.mttkrp_bytes, knn.similarity_bytes")
    for metric, value in metrics.items():
        print(f"metric {metric} = {value:.6g} {units[metric]}")

    summary = {
        "correct": bool(runs) and len(ok) == len(runs),
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    STATE.mkdir(exist_ok=True)
    record = {"summary": summary, "env": env,
              "runs": [{k: v for k, v in r.items() if k not in ("digests", "result", "log")}
                       | {k: r["result"][k] if r["result"] else None for k in ("run_s", "import_s")}
                       for r in runs]}
    (STATE / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
