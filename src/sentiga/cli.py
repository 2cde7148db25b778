"""Command-line interface: preprocess, train, evaluate, predict, benchmark, export.

A command returns 0; each failure exits with the code its error class in
`sentiga.errors` names.
"""

from __future__ import annotations

import argparse
import json
import sys
import typing
from dataclasses import fields
from pathlib import Path

from . import bundle as bundle_mod
from .errors import BundleError, DataError, SentigaError
from .model import LEARNERS, EvalReport, SentimentClass, SplitConfig, TfidfConfig, public_name

if typing.TYPE_CHECKING:
    from .corpus import LabelMap
    from .evaluation import BenchmarkRow

_MODEL_CONFIGS = [learner.config for learner in LEARNERS.values()]


def _bool_flag(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _path(value: str) -> str:
    if not value:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return value


def _extra_row(raw: str) -> BenchmarkRow:
    from . import evaluation

    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(f"expects MODEL,FAMILY,ACC,MACRO,WEIGHTED, got {raw!r}")
    if not (parts[0] and parts[1]):
        raise argparse.ArgumentTypeError(f"MODEL and FAMILY must be non-empty, got {raw!r}")
    try:
        metrics = [float(part) for part in parts[2:]]
    except ValueError:
        raise argparse.ArgumentTypeError(f"metrics must be numbers, got {raw!r}") from None
    if not all(0.0 <= m <= 1.0 for m in metrics):  # false for NaN too
        raise argparse.ArgumentTypeError(f"metrics must be in [0, 1], got {raw!r}")
    return evaluation.BenchmarkRow(parts[0], parts[1], *metrics)


def _int_tuple(value: str) -> tuple[int, ...]:
    """Comma-separated integers; "" and "," are the empty tuple, which the
    field's bound refuses, and an empty part beside a number is refused here."""
    parts = [part.strip() for part in value.split(",")]
    if not any(parts):
        return ()
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def _flag_type(hint):
    """The parser of a config field's override flag, by the field's type
    hint; for `X | None`, the value `none` means None."""
    if type(None) not in typing.get_args(hint):
        return {bool: _bool_flag, tuple: _int_tuple}.get(typing.get_origin(hint) or hint, hint)
    parse = _flag_type(typing.get_args(hint)[0])

    def parse_or_none(value: str):
        return None if value == "none" else parse(value)

    parse_or_none.__name__ = parse.__name__  # for argparse's "invalid int value: 'x'"
    return parse_or_none


def _override_parser(title: str, configs) -> argparse.ArgumentParser:
    """A flag per field of `configs`, under its public name; one that is not
    given sets nothing, so `_given` sees exactly the flags given."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group(title)
    flags = {}
    for cls in configs:
        hints = typing.get_type_hints(cls)
        flags |= {public_name(f.name): _flag_type(hints[f.name]) for f in fields(cls)}
    for name, parse in flags.items():
        group.add_argument(f"--{name}", type=parse, default=argparse.SUPPRESS)
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
        ("--seed", {"type": int, "default": argparse.SUPPRESS,
                    "help": f"split/model seed (default {SplitConfig.seed})"}),
        ("--test-fraction", {"type": float, "default": argparse.SUPPRESS,
                             "help": "held-out fraction for evaluation "
                                     f"(default {SplitConfig.test_fraction})"}),
    )
    bundle = _parent(("--bundle", {"required": True, "type": _path, "help": "model bundle path"}))
    out_dir = _parent(("--out-dir", {"default": ".", "help": "directory for exported files"}))
    extra_row = _parent(("--extra-row", {
        "action": "append", "type": _extra_row, "default": [],
        "metavar": "MODEL,FAMILY,ACC,MACRO,WEIGHTED",
        "help": "externally supplied benchmark row (repeatable)",
    }))

    tfidf = _override_parser("TF-IDF overrides", [TfidfConfig])
    hyper = _override_parser("model hyperparameter overrides (each applies to some --model)",
                             _MODEL_CONFIGS)

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
    p.add_argument("--model", choices=LEARNERS, default="logreg")
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
    from . import datasets

    return Path(args.data) if args.data else datasets.reference_corpus_path()


def _label_map(args, loaded=None) -> LabelMap:
    """The --label-map map, or the bundled one; given a bundle, it must be the
    map the bundle was trained with."""
    from . import corpus

    if args.label_map:
        label_map = corpus.LabelMap.from_file(args.label_map)
    else:
        label_map = corpus.default_label_map()
    if loaded is not None and label_map.digest() != loaded.label_map_digest:
        raise DataError(
            f"the label map's digest {label_map.digest()[:12]}... differs from the bundle's "
            f"{loaded.label_map_digest[:12]}...; pass the label map the bundle was trained with"
        )
    return label_map


def _load_records(args, loaded=None):
    """(records, label_map, slang, leet): the --data CSV, or the reference
    corpus, cleaned with the tables of the bundle `loaded` when one is given,
    else with --slang and --leet (default: the bundled tables)."""
    from . import corpus, textnorm

    if loaded is not None:
        slang, leet = loaded.slang, loaded.leet
    else:
        slang = textnorm.load_slang(args.slang) if args.slang else textnorm.default_slang()
        leet = textnorm.load_leet(args.leet) if args.leet else textnorm.default_leet()
    label_map = _label_map(args, loaded)
    raw = corpus.load_raw(_resolve_data_path(args), lenient=args.lenient)
    records = corpus.prepare_corpus(raw, label_map, slang, leet, drop_unmapped=args.drop_unmapped)
    return records, label_map, slang, leet


def _given(args, configs) -> dict:
    """Field name -> value of each override flag of `configs` that is given."""
    flags = {public_name(f.name): f.name for cls in configs for f in fields(cls)}
    return {flags[flag]: value for flag, value in vars(args).items() if flag in flags}


def _config(cls, values: dict):
    """Build a config; a value outside its bounds is a usage error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise SentigaError(str(exc)) from None


def _tfidf_config(args) -> TfidfConfig:
    return _config(TfidfConfig, _given(args, [TfidfConfig]))


def _split(args, base: SplitConfig) -> SplitConfig:
    """`base` with the --seed and --test-fraction that are given."""
    given = {f.name: getattr(args, f.name) for f in fields(SplitConfig) if f.name in args}
    return _config(SplitConfig, vars(base) | given)


def _model_config(args, split: SplitConfig):
    from . import evaluation

    cls = LEARNERS[args.model].config
    values = _given(args, _MODEL_CONFIGS)
    unused = sorted(values.keys() - {f.name for f in fields(cls)})
    if unused:
        flags = ", ".join(f"--{public_name(name)}" for name in unused)
        raise SentigaError(f"--model {args.model} does not take {flags}")
    return _config(lambda **given: evaluation.seeded_config(args.model, split, **given), values)


def _print_report(rep: EvalReport) -> None:
    print("confusion matrix (rows true, columns predicted; negative/neutral/positive):")
    for row in rep.confusion:
        print("  " + " ".join(f"{int(v):5d}" for v in row))
    print(f"{'class':<10} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}")
    for m in rep.per_class:
        print(f"{m.name:<10} {m.precision:9.4f} {m.recall:9.4f} {m.f1:9.4f} {m.support:8d}")
    print(f"accuracy    {rep.accuracy:.4f}")
    print(f"macro F1    {rep.macro_f1:.4f}")
    print(f"weighted F1 {rep.weighted_f1:.4f}")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_preprocess(args) -> int:
    from . import corpus, export

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
    for cls in SentimentClass:
        print(f"  {cls.label}: {counts[int(cls)]}")
    return 0


def cmd_train(args) -> int:
    bundle_path = Path(args.bundle)
    # the split and the hyperparameters are checked before any data is read
    split = _split(args, SplitConfig())
    model_config, tfidf_config = _model_config(args, split), _tfidf_config(args)
    records, label_map, slang, leet = _load_records(args)
    result = bundle_mod.train_bundle(
        records,
        kind=args.model,
        model_config=model_config,
        tfidf_config=tfidf_config,
        label_map=label_map,
        slang=slang,
        leet=leet,
        split=split,
    )
    bundle_mod.save_bundle(result.bundle, bundle_path)
    print(
        f"trained {args.model} on {len(result.train_indices)} records, "
        f"evaluated on {len(result.test_indices)} -> {bundle_path}"
    )
    _print_report(result.holdout_report)
    return 0


def cmd_evaluate(args) -> int:
    from . import evaluation
    from .features import HybridFeatureSpace

    _split(args, SplitConfig())  # the flags given are checked before the bundle is read
    loaded = bundle_mod.load_bundle(args.bundle)
    split = _split(args, SplitConfig(loaded.seed, loaded.test_fraction))
    records, _, _, _ = _load_records(args, loaded)

    labels = [r.label for r in records]
    test = evaluation.stratified_split(labels, split.test_fraction, split.seed).test_indices
    space = HybridFeatureSpace(tfidf=loaded.tfidf, scaler=loaded.scaler)
    X_test, y_test = evaluation.featurized(space, [records[i] for i in test])
    rep = evaluation.held_out_report(loaded.kind, loaded.classifier, X_test, y_test)
    print(f"evaluated {loaded.kind} bundle on {len(y_test)} held-out records")
    _print_report(rep)
    return 0


def cmd_predict(args) -> int:
    serving = bundle_mod.load_serving(args.bundle)  # no numpy for a logreg or SVM bundle
    result = serving.predict(args.text, args.retweets, args.likes)
    scores = {
        cls.label: float(result.scores[int(cls)]) for cls in SentimentClass
    }
    payload = {"class": result.label.label, "probabilistic": result.probabilistic}
    payload["probabilities" if result.probabilistic else "decision_scores"] = scores
    print(json.dumps(payload))
    return 0


def cmd_benchmark(args) -> int:
    from . import evaluation, export

    # usage errors before any data is read
    split, tfidf_config = _split(args, SplitConfig()), _tfidf_config(args)
    records, _, _, _ = _load_records(args)
    rows = evaluation.run_benchmark(records, split, tfidf_config)
    rows = evaluation.rank_rows(rows + args.extra_row)

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
    return 0


def cmd_export(args) -> int:
    from . import evaluation, export

    loaded = bundle_mod.load_bundle(args.bundle)
    if loaded.metrics_snapshot is None:
        raise DataError("bundle carries no metrics snapshot; retrain to export tables")
    own_row = evaluation.benchmark_row(loaded.kind, loaded.metrics_snapshot)
    written = export.export_tables(
        args.out_dir,
        report=loaded.metrics_snapshot,
        benchmark=evaluation.rank_rows([own_row, *args.extra_row]),
        tfidf_config=loaded.tfidf.config,
        model_configs={loaded.kind: loaded.classifier.config},
        label_map=_label_map(args, loaded=loaded),  # checked before any table is written
    )
    for path in written.values():
        print(f"wrote {path}")
    return 0


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
    except SentigaError as exc:
        print(f"{exc.kind} error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return BundleError.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
