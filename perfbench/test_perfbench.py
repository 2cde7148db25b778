"""Self-test of the benchmark: each workload at its smallest size.

    python3 -m pytest perfbench -q

Every named metric must be printed with its unit and every correctness gate
must pass. train-x4 keeps its fixed corpus, so its case takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORT_ONLY = {"holdout_accuracy": "ratio", "holdout_macro_f1": "ratio", "failed_frac": "ratio"}
# BENCHMARK.json lists the first two; train-x4 is run by hand (README.md).
WORKLOADS = ("serve-ref", "train-ref", "train-x4")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_output(proc: subprocess.CompletedProcess, declared: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    report_line, result_line = proc.stdout.splitlines()[-2:]
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    for name, unit in REPORT_ONLY.items():
        assert report["metrics"][name]["unit"] == unit
    return report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report = check_output(run_bench("--workload", workload, "--trace", "0", "--tiny"),
                          SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        assert report["metrics"][metric["name"]]["value"] > 0
    assert ("compare_s" in report["metrics"]) == (workload == "train-ref")
    env = report["environment"]
    assert env["nproc"] >= 1 and env["numpy"] and env["scipy"] and env["blas"]


@pytest.mark.parametrize("workload", ["serve-ref", "train-ref"])
def test_traced_run_prints_every_per_layer_metric(workload):
    report = check_output(run_bench("--workload", workload, "--trace", "1", "--tiny"),
                          SPEC["per_layer"])
    assert report["top_self_s"]
    assert (ROOT / report["trace_file"]).is_file()


def test_benchmark_json_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "serve-ref", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_pin_mismatch_is_reported():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    facts = {"learners.logreg.n_iter": 104, "holdout.accuracy": 0.957746}
    pins = {"learners.logreg.n_iter": 103, "holdout.accuracy": (0.95775, 5)}
    assert workloads.pin_mismatches(facts, pins) == ["learners.logreg.n_iter=104, pinned 103"]
