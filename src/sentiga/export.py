"""CSV table export with fixed headers and 4-decimal metric rendering.

All files are UTF-8 with LF line endings and a header row first, and are
written through a temp file plus atomic rename so a failed export never
leaves a partial table behind. Metric cells use 4 decimal places with
round-half-even; hyperparameter values keep their natural text form.
"""

from __future__ import annotations

import csv
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .corpus import LabelMap
from .evaluation import BenchmarkRow, EvalReport
from .features import TfidfConfig
from .learners import LEARNERS

BENCHMARK_FILE = "model_benchmark_table.csv"
PER_CLASS_FILE = "per_class_metrics_table.csv"
HYPERPARAMETER_FILE = "hyperparameter_table.csv"
LABEL_MAPPING_FILE = "label_mapping_mini_table.csv"

BENCHMARK_HEADER = ("Model", "Family", "Accuracy", "MacroF1", "WeightedF1")
PER_CLASS_HEADER = ("Class", "Precision", "Recall", "F1", "Support")
HYPERPARAMETER_HEADER = ("Component", "Hyperparameter", "Value")
LABEL_MAPPING_HEADER = ("RawLabel", "MappedClass")

# The compact reference subset of the label map used in reports.
MINI_LABEL_ROWS = (
    ("Joy", "positive"),
    ("Gratitude", "positive"),
    ("Excitement", "positive"),
    ("Sad", "negative"),
    ("Anger", "negative"),
    ("Frustrated", "negative"),
    ("Neutral", "neutral"),
    ("Confusion", "neutral"),
    ("Curiosity", "neutral"),
)


def format_metric(value: float) -> str:
    return format(float(value), ".4f")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(str(v) for v in value) + ")"
    if value is None:
        return "auto"
    return str(value)


def write_csv_atomic(path: str | Path, header: Sequence[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def benchmark_table_rows(rows: Sequence[BenchmarkRow]) -> list[tuple]:
    out = []
    for row in rows:
        if row.failed:
            out.append((row.model, row.family, "failed", "failed", "failed"))
        else:
            out.append(
                (
                    row.model,
                    row.family,
                    format_metric(row.accuracy),
                    format_metric(row.macro_f1),
                    format_metric(row.weighted_f1),
                )
            )
    return out


def per_class_table_rows(report: EvalReport) -> list[tuple]:
    return [
        (
            m.name,
            format_metric(m.precision),
            format_metric(m.recall),
            format_metric(m.f1),
            str(m.support),
        )
        for m in report.per_class
    ]


def hyperparameter_table_rows(
    tfidf_config: TfidfConfig, model_configs: dict[str, object]
) -> list[tuple]:
    """Flatten component configs into (Component, Hyperparameter, Value) rows:
    each model's, under its display name, then the TF-IDF's."""
    field_names = {"seed": "random_state"}
    configs = [(LEARNERS[kind].display, config) for kind, config in model_configs.items()]
    rows = []
    for component, config in [*configs, ("TF-IDF", tfidf_config)]:
        for key, value in asdict(config).items():
            rows.append((component, field_names.get(key, key), _format_value(value)))
    return rows


def label_mapping_rows(label_map: LabelMap) -> list[tuple]:
    """The label map's entries for the reference raw labels of the mini
    table, falling back to the bundled assignments."""
    rows = []
    for raw_label, default_class in MINI_LABEL_ROWS:
        found = label_map.lookup(raw_label)
        rows.append((raw_label, default_class if found is None else found.label))
    return rows


def export_tables(
    out_dir: str | Path,
    report: EvalReport,
    benchmark: Sequence[BenchmarkRow],
    tfidf_config: TfidfConfig,
    model_configs: dict[str, object],
    label_map: LabelMap,
) -> dict[str, Path]:
    """Write the four tables into out_dir and return name -> path."""
    out_dir = Path(out_dir)
    tables = {
        BENCHMARK_FILE: (BENCHMARK_HEADER, benchmark_table_rows(benchmark)),
        PER_CLASS_FILE: (PER_CLASS_HEADER, per_class_table_rows(report)),
        HYPERPARAMETER_FILE: (
            HYPERPARAMETER_HEADER, hyperparameter_table_rows(tfidf_config, model_configs)
        ),
        LABEL_MAPPING_FILE: (LABEL_MAPPING_HEADER, label_mapping_rows(label_map)),
    }
    return {
        name: write_csv_atomic(out_dir / name, header, rows)
        for name, (header, rows) in tables.items()
    }
