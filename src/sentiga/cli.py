"""Command-line interface: preprocess, train, evaluate, predict, benchmark, export.

Exit codes: 0 success, 2 usage error, 3 data/schema error, 4 training
error, 5 I/O or bundle error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import bundle as bundle_mod
from . import corpus, datasets, evaluation, export, learners, textnorm
from .errors import BundleError, DataError, SentigaError, TrainingError
from .features import TfidfConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_IO = 5


class _UsageError(SentigaError):
    pass


def _bool_flag(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _int_tuple(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


# Override flags, each named after the config field it sets; `--random_state`
# sets `seed`, and `--class_weight none` sets None.
_TFIDF_FLAGS = {
    "max_features": {"type": int},
    "min_df": {"type": int},
    "max_df": {"type": float},
    "ngram_range": {"type": _int_tuple},
    "sublinear_tf": {"type": _bool_flag},
}
_MODEL_FLAGS = {
    "C": {"type": float},
    "class_weight": {"choices": ["balanced", "none"]},
    "max_iter": {"type": int},
    "tol": {"type": float},
    "random_state": {"type": int},
    "hidden_layer_sizes": {"type": _int_tuple},
    "activation": {},
    "solver": {},
    "alpha": {"type": float},
    "learning_rate_init": {"type": float},
    "early_stopping": {"type": _bool_flag},
    "regularization": {"type": float},
    "epochs": {"type": int},
}


def _flag_parser(title: str, flags: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group(title)
    for name, options in flags.items():
        group.add_argument(f"--{name}", default=None, **options)
    return parser


def _parent(*flags: tuple[str, dict]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(add_help=False)
    for name, options in flags:
        parser.add_argument(name, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it reads, so a stray flag is a
    # usage error (exit 2) rather than silently ignored.
    source = _parent(
        ("--data", {"default": None, "help": "raw CSV path (default: bundled reference corpus)"}),
        ("--drop-unmapped", {"action": "store_true",
                             "help": "drop records with unmapped labels instead of failing"}),
        ("--lenient", {"action": "store_true", "help": "map unparseable numeric cells to 0"}),
    )
    label_map = _parent(("--label-map", {"default": None, "help": "label map asset path"}))
    tables = _parent(
        ("--slang", {"default": None, "help": "slang dictionary asset path"}),
        ("--leet", {"default": None, "help": "leet map asset path"}),
    )
    split = _parent(
        ("--seed", {"type": int, "default": None, "help": "split/model seed (default 42)"}),
        ("--test-fraction", {"type": float, "default": None,
                             "help": "held-out fraction for evaluation (default 0.2)"}),
    )
    bundle = _parent(("--bundle", {"default": None, "help": "model bundle path"}))
    out_dir = _parent(("--out-dir", {"default": ".", "help": "directory for exported files"}))
    extra_row = _parent(("--extra-row", {
        "action": "append", "default": [], "metavar": "MODEL,FAMILY,ACC,MACRO,WEIGHTED",
        "help": "externally supplied benchmark row (repeatable)",
    }))

    tfidf = _flag_parser("TF-IDF overrides", _TFIDF_FLAGS)
    hyper = _flag_parser("model hyperparameter overrides (each applies to some --model)",
                         _MODEL_FLAGS)

    parser = argparse.ArgumentParser(
        prog="sentiga",
        description="Three-class sentiment toolkit for Indonesian social-media text.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", parents=[source, label_map, tables, out_dir],
                       help="clean, remap, deduplicate, and write the prepared corpus")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[bundle, source, label_map, tables, split, tfidf, hyper],
                       help="train one model and save a bundle")
    p.add_argument("--model", choices=learners.LEARNERS, default="logreg")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[bundle, source, label_map, split],
                       help="evaluate a bundle on the held-out split of a dataset")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[bundle],
                       help="classify one post with a trained bundle")
    p.add_argument("--text", required=True)
    p.add_argument("--retweets", type=int, default=0)
    p.add_argument("--likes", type=int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("benchmark",
                       parents=[source, label_map, tables, split, out_dir, tfidf, extra_row],
                       help="train and compare all models on one shared split")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("export", parents=[bundle, label_map, out_dir, extra_row],
                       help="write the report tables for a trained bundle")
    p.set_defaults(func=cmd_export)
    return parser


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------

def _resolve_data_path(args) -> Path:
    return Path(args.data) if args.data else datasets.reference_corpus_path()


def _label_map(args, policy: str = "error") -> corpus.LabelMap:
    if args.label_map:
        return corpus.LabelMap.from_file(args.label_map, policy)
    return corpus.default_label_map(policy)


def _load_assets(args):
    slang = textnorm.load_slang(args.slang) if args.slang else textnorm.default_slang()
    leet = textnorm.load_leet(args.leet) if args.leet else textnorm.default_leet()
    return _label_map(args, "drop" if args.drop_unmapped else "error"), slang, leet


def _load_records(args):
    label_map, slang, leet = _load_assets(args)
    raw = corpus.load_raw(_resolve_data_path(args), lenient=args.lenient)
    records = corpus.prepare_corpus(raw, label_map, slang, leet)
    return records, label_map, slang, leet


def _seed(args) -> int:
    return 42 if args.seed is None else args.seed


def _test_fraction(args) -> float:
    return 0.2 if args.test_fraction is None else args.test_fraction


def _given(args, flags: dict) -> dict:
    """The flags of `flags` that the command line set."""
    return {name: getattr(args, name) for name in flags if getattr(args, name) is not None}


def _config(cls, values: dict):
    """Build a config; a value outside its bounds is a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _tfidf_config(args) -> TfidfConfig:
    return _config(TfidfConfig, _given(args, _TFIDF_FLAGS))


def _model_config(args, seed: int):
    cls = learners.LEARNERS[args.model].config
    values = _given(args, _MODEL_FLAGS)
    values["seed"] = values.pop("random_state", seed)
    if values.get("class_weight") == "none":
        values["class_weight"] = None
    unused = sorted(values.keys() - {f.name for f in fields(cls)})
    if unused:
        flags = ", ".join(f"--{name}" for name in unused)
        raise _UsageError(f"--model {args.model} does not take {flags}")
    return _config(cls, values)


def _require_bundle_path(args) -> Path:
    if not args.bundle:
        raise _UsageError("--bundle is required for this command")
    return Path(args.bundle)


def _print_report(rep: evaluation.EvalReport) -> None:
    print("confusion matrix (rows true, columns predicted; negative/neutral/positive):")
    for row in rep.confusion.counts:
        print("  " + " ".join(f"{int(v):5d}" for v in row))
    print(f"{'class':<10} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}")
    for m in rep.per_class:
        print(f"{m.name:<10} {m.precision:9.4f} {m.recall:9.4f} {m.f1:9.4f} {m.support:8d}")
    print(f"accuracy    {rep.accuracy:.4f}")
    print(f"macro F1    {rep.macro_f1:.4f}")
    print(f"weighted F1 {rep.weighted_f1:.4f}")


def _parse_extra_rows(raw_rows) -> list[evaluation.BenchmarkRow]:
    rows = []
    for raw in raw_rows:
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 5:
            raise _UsageError(
                f"--extra-row expects MODEL,FAMILY,ACC,MACRO,WEIGHTED, got {raw!r}"
            )
        try:
            metrics = [float(part) for part in parts[2:]]
        except ValueError:
            raise _UsageError(f"--extra-row has non-numeric metrics: {raw!r}") from None
        if not all(0.0 <= m <= 1.0 for m in metrics):  # false for NaN too
            raise _UsageError(f"--extra-row metrics must be in [0, 1], got {raw!r}")
        rows.append(evaluation.BenchmarkRow(parts[0], parts[1], *metrics))
    return rows


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    records, _, _, _ = _load_records(args)
    counts = corpus.class_counts(records)
    out_path = Path(args.out_dir) / "clean_corpus.csv"
    export.write_csv_atomic(
        out_path,
        ("clean_text", "label", "word_count", "engagement", "hashtag_count"),
        (
            (r.clean_text, r.label.label, r.word_count, r.engagement, r.hashtag_count)
            for r in records
        ),
    )
    print(f"prepared {len(records)} records -> {out_path}")
    for cls in corpus.SentimentClass:
        print(f"  {cls.label}: {counts[int(cls)]}")
    return EXIT_OK


def cmd_train(args) -> int:
    bundle_path = _require_bundle_path(args)
    records, label_map, slang, leet = _load_records(args)
    seed = _seed(args)
    result = bundle_mod.train_bundle(
        records,
        kind=args.model,
        model_config=_model_config(args, seed),
        tfidf_config=_tfidf_config(args),
        label_map=label_map,
        slang=slang,
        leet=leet,
        seed=seed,
        test_fraction=_test_fraction(args),
    )
    bundle_mod.save_bundle(result.bundle, bundle_path)
    print(
        f"trained {args.model} on {len(result.train_indices)} records, "
        f"evaluated on {len(result.test_indices)} -> {bundle_path}"
    )
    _print_report(result.holdout_report)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    loaded = bundle_mod.load_bundle(_require_bundle_path(args))
    label_map = _label_map(args, "drop" if args.drop_unmapped else "error")
    raw = corpus.load_raw(_resolve_data_path(args), lenient=args.lenient)
    records = corpus.prepare_corpus(raw, label_map, loaded.slang, loaded.leet)

    seed = loaded.seed if args.seed is None else args.seed
    fraction = loaded.test_fraction if args.test_fraction is None else args.test_fraction
    split = evaluation.stratified_split([r.label for r in records], fraction, seed)
    space = bundle_mod.HybridFeatureSpace(tfidf=loaded.tfidf, scaler=loaded.scaler)
    X_test, y_test = evaluation.featurized(space, [records[i] for i in split.test_indices])
    rep = evaluation.held_out_report(loaded.kind, loaded.classifier, X_test, y_test)
    print(f"evaluated {loaded.kind} bundle on {len(y_test)} held-out records")
    _print_report(rep)
    return EXIT_OK


def cmd_predict(args) -> int:
    loaded = bundle_mod.load_bundle(_require_bundle_path(args))
    result = bundle_mod.predict(loaded, args.text, args.retweets, args.likes)
    scores = {
        cls.label: float(result.scores[int(cls)]) for cls in corpus.SentimentClass
    }
    payload = {"class": result.label.label, "probabilistic": result.probabilistic}
    payload["probabilities" if result.probabilistic else "decision_scores"] = scores
    print(json.dumps(payload))
    return EXIT_OK


def cmd_benchmark(args) -> int:
    extra_rows = _parse_extra_rows(args.extra_row)  # a usage error before any training
    records, _, _, _ = _load_records(args)
    rows = evaluation.run_benchmark(
        records,
        seed=_seed(args),
        test_fraction=_test_fraction(args),
        tfidf_config=_tfidf_config(args),
    )
    rows = evaluation.rank_rows(rows + extra_rows)

    print(f"{'Model':<22} {'Family':<16} {'Accuracy':>9} {'MacroF1':>9} {'WeightedF1':>11}")
    for row in rows:
        if row.failed:
            print(f"{row.model:<22} {row.family:<16} {'failed':>9} ({row.error})")
        else:
            print(
                f"{row.model:<22} {row.family:<16} {row.accuracy:>9.4f} "
                f"{row.macro_f1:>9.4f} {row.weighted_f1:>11.4f}"
            )
    out_path = export.write_csv_atomic(
        Path(args.out_dir) / export.BENCHMARK_FILE,
        export.BENCHMARK_HEADER,
        export.benchmark_table_rows(rows),
    )
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_export(args) -> int:
    loaded = bundle_mod.load_bundle(_require_bundle_path(args))
    if loaded.metrics_snapshot is None:
        raise DataError("bundle carries no metrics snapshot; retrain to export tables")
    name, family = evaluation.MODEL_DISPLAY[loaded.kind]
    own_row = evaluation.BenchmarkRow(
        model=name,
        family=family,
        accuracy=loaded.metrics_snapshot.accuracy,
        macro_f1=loaded.metrics_snapshot.macro_f1,
        weighted_f1=loaded.metrics_snapshot.weighted_f1,
    )
    written = export.export_tables(
        args.out_dir,
        report=loaded.metrics_snapshot,
        benchmark=evaluation.rank_rows([own_row, *_parse_extra_rows(args.extra_row)]),
        tfidf_config=loaded.tfidf.config,
        model_configs={loaded.kind: loaded.classifier.config},
        label_map=_label_map(args),
    )
    for path in written.values():
        print(f"wrote {path}")
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage/help itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (BundleError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
