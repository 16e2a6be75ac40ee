"""Fast smoke check of the benchmark harness on the 30-node demo shape.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on the tiny shape, untraced and
traced, and checks that each run exits 0, passes its output checks and
prints every metric BENCHMARK.json names, with its unit. Then checks that
the benchmark refuses to run, without printing a result, in a directory
holding only BENCHMARK.json and the benchmark's files. Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", workload["name"], "--seed", "1",
                             "--seconds", "1", "--trace", str(trace), "--tiny")
            where = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            if not summary["correct"] or summary["failed"] or summary["attempted"] < 1:
                problems.append(f"{where}: checks failed: {summary}")
            printed = {k: v["unit"] for k, v in summary["metrics"].items()}
            if printed != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(printed.items()))
                extra = sorted(set(printed.items()) - set(expected[trace].items()))
                problems.append(f"{where}: metrics differ: missing {missing}, extra {extra}")
            print(f"{where}: {len(printed)} metrics, {summary['attempted']} runs")

    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        name = bench["workloads"][0]["name"]
        proc = run_bench(bare, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without the program: exit {proc.returncode}, output {proc.stdout!r}")
        print(f"without the program: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
