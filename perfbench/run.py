"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-ref --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; it imports the package from `src/` of
that checkout. The second-to-last line of standard output is a report: every
end-to-end metric with its unit, the counters, the correctness failures and
the environment. The last line is the result: whether every check passed, the
operations attempted and failed, and the metrics BENCHMARK.json lists, the
end-to-end ones with `--trace 0` and the per-layer ones with `--trace 1`. The
exit code is 0 only when every check passed. README.md describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="every phase once at its smallest size (self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import sentiga from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "sentiga" / "__init__.py").is_file():
        sys.exit(f"error: no package at {src / 'sentiga'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import sentiga

    if not Path(sentiga.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: sentiga imported from {sentiga.__file__}, not {src}")


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, read from the library; never changed."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(session, plan, seconds: float) -> tuple[dict, dict]:
    from workloads import end_to_end, percentile, run_untraced

    samples = run_untraced(session, plan, seconds)
    metrics = end_to_end(samples, len(session.posts))
    metrics["peak_rss_mb"] = (peak_rss_mib(), "MiB")
    extra = {
        "stream_posts": len(session.posts),
        "rounds": samples["rounds"],
        "samples": {k: len(v) for k, v in samples.items() if k != "rounds"},
        # The 99th percentile of all single posts of the run pooled, for
        # comparison with predict_p99_us.
        "predict_p99_pooled_us": percentile(sorted(samples["predict_ns"]), 99.0) / 1e3,
    }
    return metrics, extra


def traced_run(session, plan, workload: str, seed: int) -> tuple[dict, dict]:
    """The first training and one round, traced; per-layer metrics come from
    them. The round's serving windows cover the stream once. After a warm-up
    round, the round runs three times untraced and three times traced,
    alternately, and the ratio of the median times is the tracing overhead."""
    from tracing import Tracer
    from workloads import first_training, new_samples, run_round

    imports = [session.setup_probe(False)[1] for _ in range(3)]
    unit = replace(plan, posts=-(-len(session.posts) // 2))
    compare = bool(plan.comparisons)
    samples = new_samples()
    tracer = Tracer()
    with tracer:
        first_training(session, samples)
    run_round(session, unit, samples, compare, traced_pass=True)
    untraced, traced = [], []
    for i in range(3):
        for tracing, times in ((None, untraced), (tracer if i == 0 else Tracer(), traced)):
            with tracing or contextlib.nullcontext():
                start = time.perf_counter()
                run_round(session, unit, samples, compare, traced_pass=True)
                times.append(time.perf_counter() - start)
    if plan.export:
        with tracer:
            session.export_op()
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)

    layers = tracer.layer_times()
    layer = lambda name, key: layers.get(name, {}).get(key, 0)  # noqa: E731
    logreg = tracer.returns.get("learners.train_logreg")
    mlp = tracer.returns.get("learners.train_mlp")
    logreg_calls = layer("learners.train_logreg", "calls")
    evals = tracer.counts["learners.logreg.evals"] / logreg_calls if logreg_calls else 0
    facts = session.facts
    values = {
        "textnorm.clean_text.calls": layer("textnorm.clean_text", "calls"),
        "textnorm.clean_text.busy_s": layer("textnorm.clean_text", "busy_s"),
        "corpus.load_raw.busy_s": layer("corpus.load_raw", "busy_s"),
        "corpus.prepare_corpus.self_s": layer("corpus.prepare_corpus", "self_s"),
        "features.fit_tfidf.busy_s": layer("features.fit_tfidf", "busy_s"),
        "features.transform_corpus.busy_s": layer("features.transform_corpus", "busy_s"),
        "features.transform_corpus.rows": tracer.counts["features.transform_corpus.rows"],
        "features.to_csr.busy_s": layer("features.to_csr", "busy_s"),
        "learners.train_logreg.busy_s": layer("learners.train_logreg", "busy_s"),
        "learners.logreg.n_iter": logreg.n_iter_ if logreg else 0,
        "learners.logreg.evals": evals,
        "learners.logreg.iters_per_eval": logreg.n_iter_ / evals if logreg and evals else 0,
        "learners.train_mlp.busy_s": layer("learners.train_mlp", "busy_s"),
        "learners.mlp.epochs": mlp.n_epochs_ if mlp else 0,
        "learners.mlp.best_epoch": mlp.best_epoch_ if mlp else 0,
        "learners.train_linear_svm.busy_s": layer("learners.train_linear_svm", "busy_s"),
        "learners.predict.busy_s": layer("learners.predict", "busy_s"),
        "evaluation.stratified_split.busy_s": layer("evaluation.stratified_split", "busy_s"),
        "evaluation.report.busy_s": layer("evaluation.report", "busy_s"),
        "evaluation.run_benchmark.self_s": layer("evaluation.run_benchmark", "self_s"),
        "bundle.train_bundle.self_s": layer("bundle.train_bundle", "self_s"),
        "bundle.save_bundle.busy_s": layer("bundle.save_bundle", "busy_s"),
        "bundle.load_bundle.busy_s": layer("bundle.load_bundle", "busy_s"),
        "bundle.predict.self_s": layer("bundle.predict", "self_s"),
        "export.export_tables.busy_s": layer("export.export_tables", "busy_s"),
        "cli.import_s": statistics.median(imports),
        "cli.main.busy_s": layer("cli.main", "busy_s"),
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.spans": len(tracer.spans),
    }
    for key in ("corpus.records_in", "corpus.records_kept", "corpus.dropped_empty",
                "corpus.dropped_duplicate", "features.vocab_terms", "features.train_nnz",
                "learners.logreg.objective_len", "learners.logreg.budget_hit", "bundle.bytes"):
        values[key] = facts[key]

    self_time = sorted(((v["self_s"], k) for k, v in layers.items()), reverse=True)
    extra = {
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "top_self_s": {name: seconds for seconds, name in self_time[:6]},
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "environment": environment(),
        "layers": layers, "values": values, "spans": tracer.spans, **extra,
    }))
    extra["trace_file"] = str(trace_path.relative_to(ROOT))
    return values, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    plan = workloads.WORKLOADS[args.workload]
    if args.tiny:
        plan = workloads.tiny(plan)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench"))
    try:
        session = workloads.Session(plan, args.seed, ROOT, work)
        session.setup_probe(False)   # compiles bytecode and checks the import path
        if args.trace:
            values, extra = traced_run(session, plan, args.workload, args.seed)
            declared = spec["per_layer"]
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
        else:
            metrics, extra = untraced_run(session, plan, args.seconds)
            declared = spec["end_to_end"]
        ledger = session.ledger
        facts = session.facts
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = ledger.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": {
            **{name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "holdout_accuracy": {"value": facts["holdout.accuracy"], "unit": "ratio"},
            "holdout_macro_f1": {"value": facts["holdout.macro_f1"], "unit": "ratio"},
            "failed_frac": {"value": ledger.failed / ledger.attempted, "unit": "ratio"},
        },
        "counters": facts,
        **extra,
        "failures": ledger.failures,
        "environment": environment(),
    }
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in declared},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
