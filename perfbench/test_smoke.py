"""Toy-size smoke test of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs at toy size through the same command the full
benchmark uses, untraced and traced, and the output contract is
checked.  The fold oracle is checked to catch a perturbed record.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from metrics import E2E, PER_LAYER  # noqa: E402
from workloads import STAGES, WHY, WORKLOADS, generate  # noqa: E402

COUNTS = ("gaussian.lik_evals", "student.mode_calls", "student.newton_iters",
          "gaussian.chol_calls", "student.mc_draws", "validation.folds")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["workloads"] == [{"name": w, "why": WHY[w]} for w in WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in E2E]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--size", "toy")
    out = last_json(proc)
    assert proc.returncode == 0, proc.stdout[-3000:]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= len(STAGES[workload])
    assert list(out["metrics"]) == [n for n, _, _, _ in E2E]
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_trace_counts_repeat(workload):
    runs = [bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", "1", "--size", "toy") for _ in range(2)]
    outs = [last_json(p) for p in runs]
    for proc, out in zip(runs, outs):
        assert proc.returncode == 0, proc.stdout[-3000:]
        assert list(out["metrics"]) == [n for n, _, _, _ in PER_LAYER]
    assert [outs[0]["metrics"][k] for k in COUNTS] == \
        [outs[1]["metrics"][k] for k in COUNTS]


def test_bare_directory_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cv-gauss", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fold_oracle_catches_a_perturbed_record(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from mwgp.cli import main

    work = str(tmp_path)
    plan = generate("cv-gauss", "toy", 2, work)
    for _, argv in plan["stages"]:
        assert main(argv) == 0
    problems = []
    assert checks.check_folds(work, 2, problems) == 10
    assert problems == []
    path = os.path.join(work, "cv", "cv_records.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[11] = repr(float(row[11]) * (1.0 + 1e-6) + 1e-6)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    checks.check_folds(work, 2, problems)
    assert len(problems) == 5
