"""CSV table export with fixed headers and 4-decimal metric rendering.

All files are UTF-8 with LF line endings and a header row first, and are
written through a temp file plus atomic rename so a failed export never
leaves a partial table behind. Metric cells use 4 decimal places with
round-half-even; hyperparameter values keep their natural text form.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

from .bundle import write_text_atomic
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

# The raw labels of the compact label-map table used in reports.
MINI_LABELS = (
    "Joy", "Gratitude", "Excitement", "Sad", "Anger", "Frustrated",
    "Neutral", "Confusion", "Curiosity",
)


def format_metric(value: float) -> str:
    return format(float(value), ".4f")


def public_name(field: str) -> str:
    """A config field's name in its override flag and the hyperparameter table."""
    return "random_state" if field == "seed" else field


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(str(v) for v in value) + ")"
    if value is None:  # as its override flag spells it
        return "none"
    return str(value)


def write_csv_atomic(path: str | Path, header: Sequence[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text_atomic(path, buffer.getvalue())
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
    configs = [(LEARNERS[kind].display, config) for kind, config in model_configs.items()]
    rows = []
    for component, config in [*configs, ("TF-IDF", tfidf_config)]:
        for key, value in asdict(config).items():
            rows.append((component, public_name(key), _format_value(value)))
    return rows


def label_mapping_rows(label_map: LabelMap) -> list[tuple]:
    """The label map's class for each raw label of the mini table; a label
    the map lacks is left out."""
    found = [(raw_label, label_map.lookup(raw_label)) for raw_label in MINI_LABELS]
    return [(raw_label, cls.label) for raw_label, cls in found if cls is not None]


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
