"""Print ROADMAP's baseline stage table from the span files of traced runs.

    python3 perfbench/baseline.py .perfbench/trace-*-seed1.json

Each file is written by `run.py --trace 1`. Rows whose workload has no file
are left out. Times are medians over the calls in the traced pass.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

# (stage, workload, span name, name of the parent span or None, which call:
# an index into the matching calls, or None for the median of all of them)
ROWS = [
    ("`prepare_corpus` (732 raw rows)", "train-ref", "corpus.prepare_corpus", None, None),
    ("fit feature space", "train-ref", "features.fit_feature_space", "bundle.train_bundle", 0),
    ("featurize train split", "train-ref", "features.featurize", "bundle.train_bundle", 0),
    ("train logreg", "train-ref", "learners.train_logreg", None, None),
    ("train SVM", "train-ref", "learners.train_linear_svm", None, None),
    ("train MLP", "train-ref", "learners.train_mlp", None, None),
    ("`train_bundle`", "train-ref", "bundle.train_bundle", None, None),
    ("`save_bundle`", "train-ref", "bundle.save_bundle", None, None),
    ("`load_bundle`", "serve-ref", "bundle.load_bundle", None, None),
    ("single-post `predict`", "serve-ref", "bundle.predict", None, None),
    ("`run_benchmark` (`sentiga benchmark` in process)", "train-ref",
     "evaluation.run_benchmark", None, None),
    ("×4 (2,828 records): featurize train split", "train-x4", "features.featurize",
     "bundle.train_bundle", 0),
    ("×4: train logreg", "train-x4", "learners.train_logreg", None, None),
]


def span_times(spans: list, name: str, parent: str | None) -> list[float]:
    return [
        end - start for span_name, start, end, up in spans
        if span_name == name and (parent is None or (up >= 0 and spans[up][0] == parent))
    ]


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def table(traces: dict[str, dict]) -> list[str]:
    lines = ["| stage | workload | time |", "| --- | --- | --- |"]
    for stage, workload, name, parent, which in ROWS:
        if workload not in traces:
            continue
        times = span_times(traces[workload]["spans"], name, parent)
        if not times:
            continue
        value = statistics.median(times) if which is None else times[which]
        lines.append(f"| {stage} | {workload} | {fmt(value)} |")
    for workload, trace in traces.items():
        values = trace["values"]
        lines.append(f"| `import sentiga` (fresh process) | {workload} | "
                     f"{fmt(values['cli.import_s'])} |")
        lines.append(f"| logreg iterations / objective evaluations | {workload} | "
                     f"{values['learners.logreg.n_iter']} / "
                     f"{values['learners.logreg.evals']:.0f} |")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    traces = {}
    for path in argv:
        trace = json.loads(Path(path).read_text(encoding="utf-8"))
        traces[trace["workload"]] = trace
    env = next(iter(traces.values()))["environment"]
    print(f"Setup: {env['nproc']} CPUs, {env['cpu_model']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']} "
          f"({env['blas_threads']} threads).\n")
    print("\n".join(table(traces)))
    print("\nCLI `train` and `benchmark` in fresh processes are not measured; see "
          "`train_s` and `compare_s`. CLI `predict` is `cold_predict_s` of a --trace 0 run.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
