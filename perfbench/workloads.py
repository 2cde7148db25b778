"""The benchmark's workloads, their inputs and their correctness gates.

Every workload is one closed-loop client in one process. It trains a bundle
from a raw CSV with the production flow, then serves a stream of raw posts
with that bundle: one post at a time, through the batch path, and through
fresh `sentiga predict` processes. Subprocesses run one after another. The
workloads differ in the corpus and in where the time goes; README.md says
why each one exists.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from sentiga import bundle, cli, corpus, datasets, evaluation, export, features, textnorm

# Pinned results of the production training. A run whose training does not
# reproduce them fails. Floats are compared at the number of decimals given.
REFERENCE_PINS = {
    "corpus.records_in": 732,
    "corpus.records_kept": 707,
    "corpus.dropped_empty": 10,
    "corpus.dropped_duplicate": 15,
    "split.train_rows": 565,
    "split.test_rows": 142,
    "features.vocab_terms": 1127,
    "features.columns": 1130,
    "learners.logreg.n_iter": 103,
    "holdout.accuracy": (0.95775, 5),
    "holdout.macro_f1": (0.95308, 5),
}
# train-x4 exhausts the L-BFGS budget (ROADMAP item 2). Keep budget_hit pinned
# at 1 until the change that fixes the solver updates it.
X4_PINS = {
    "corpus.records_in": 2928,
    "corpus.records_kept": 2828,
    "split.train_rows": 2263,
    "features.columns": 3003,
    "learners.logreg.budget_hit": 1,
    "holdout.accuracy": (0.9876, 4),
}
# Generator seeds of the train-x4 corpus. Fixed, not derived from --seed:
# most other x4 corpora converge in under a second and would hide the defect.
X4_CORPUS_SEEDS = (0, 1, 2, 3)

# Stream posts come from generator seeds at and above this base, so they never
# overlap the training corpora (42, 0-3) or the held-out x4 corpora
# (200-203, 212-215) that README.md names.
STREAM_SEED_BASE = 10_000
# Single posts per serving window: enough that ten lie beyond the window's
# 99th percentile.
WINDOW_POSTS = 1000
# Untimed single posts at the start of each serving window: the launch before
# it leaves the caches cold, which a serving process does not see.
WARMUP_POSTS = 5


@dataclass(frozen=True)
class Plan:
    """How much work a run does. The first production training makes the
    bundle. Then rounds repeat until there have been `min_rounds` of them and
    --seconds have passed. Each round does a little of every phase, so a slow
    spell of a shared machine touches every metric alike, and each metric gets
    many samples for its median: trainings, one CLI launch, a serving window,
    a comparison (in the first `comparisons` rounds only), one set-up probe,
    and a second serving window. A serving window is `posts` single-post
    predictions and `batches` batch passes over the whole stream."""

    corpus: str                 # "reference" or "x4"
    stream_seeds: int           # generator seeds in the post stream
    trainings: int              # production trainings per round
    posts: int                  # single-post predictions per serving window
    batches: int                # batch passes per serving window
    min_rounds: int
    comparisons: int = 0        # run_benchmark calls per run, one per round
    export: bool = False        # one export_tables after the rounds
    setup_loads_bundle: bool = False
    pins: dict = field(default_factory=dict)


WORKLOADS = {
    "serve-ref": Plan(corpus="reference", stream_seeds=4, trainings=2, posts=WINDOW_POSTS,
                      batches=1, min_rounds=8, setup_loads_bundle=True, pins=REFERENCE_PINS),
    "train-ref": Plan(corpus="reference", stream_seeds=2, trainings=3, posts=WINDOW_POSTS,
                      batches=2, min_rounds=6, comparisons=3, export=True, pins=REFERENCE_PINS),
    # Not in BENCHMARK.json: one run takes about 85 s, most of it the one
    # training; README.md says why and how to run it. The training runs far
    # past --seconds, so a run does exactly min_rounds rounds after it.
    "train-x4": Plan(corpus="x4", stream_seeds=2, trainings=0, posts=WINDOW_POSTS, batches=2,
                     min_rounds=8, pins=X4_PINS),
}


def tiny(plan: Plan) -> Plan:
    """The smallest run that still does every phase and every check."""
    return replace(plan, stream_seeds=1, batches=1, min_rounds=1,
                   trainings=min(plan.trainings, 1), comparisons=min(plan.comparisons, 1))


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def write_csv(path: Path, rows) -> Path:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(datasets.HEADER)
        writer.writerows(rows)
    return path


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def corpus_path(plan: Plan, work: Path) -> Path:
    if plan.corpus == "reference":
        return datasets.reference_corpus_path()
    rows = [row for seed in X4_CORPUS_SEEDS for row in datasets.generate_reference_rows(seed)]
    return write_csv(work / "x4.csv", rows)


def post_stream(plan: Plan, seed: int, work: Path) -> list[corpus.RawRecord]:
    """Raw posts from generator seeds derived from the workload seed. Posts
    that clean to nothing are left out, since the batch path drops them."""
    base = STREAM_SEED_BASE + 8 * abs(seed)
    rows = [
        row for k in range(plan.stream_seeds)
        for row in datasets.generate_reference_rows(base + k)
    ]
    raw = corpus.load_raw(write_csv(work / "stream.csv", rows))
    return [post for post in raw if textnorm.clean_text(post.text)]


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def production_training(csv_path: Path, bundle_path: Path):
    """`sentiga train`: raw CSV to a saved logreg bundle."""
    raw = corpus.load_raw(csv_path)
    records = corpus.prepare_corpus(raw)
    result = bundle.train_bundle(records, kind="logreg")
    bundle.save_bundle(result.bundle, bundle_path)
    return raw, records, result


def batch_labels(loaded: bundle.ModelBundle, posts, label_map) -> list[int]:
    """The batch path of `sentiga evaluate`: clean, featurize, score."""
    space = features.HybridFeatureSpace(tfidf=loaded.tfidf, scaler=loaded.scaler)
    records = [corpus.clean_record(p, label_map, loaded.slang, loaded.leet) for p in posts]
    X = space.featurize(records).to_csr()
    return [int(v) for v in evaluation.predict_model(loaded.kind, loaded.classifier, X)]


def predict_argv(bundle_path: Path, post: corpus.RawRecord) -> list[str]:
    return [
        "predict", "--bundle", str(bundle_path), f"--text={post.text}",
        "--retweets", str(post.retweets), "--likes", str(post.likes),
    ]


def training_facts(raw, records, result, label_map) -> dict:
    """Counts and scores of one production training, read from public state."""
    cleaned = [corpus.clean_record(r, label_map) for r in raw]
    non_empty = [r for r in cleaned if r is not None]
    model = result.bundle.classifier
    vocab = len(result.bundle.tfidf.vocabulary)
    return {
        "corpus.records_in": len(raw),
        "corpus.records_kept": len(records),
        "corpus.dropped_empty": len(cleaned) - len(non_empty),
        "corpus.dropped_duplicate": len(non_empty) - len(corpus.deduplicate(non_empty)),
        "split.train_rows": len(result.train_indices),
        "split.test_rows": len(result.test_indices),
        "features.vocab_terms": vocab,
        "features.columns": vocab + result.bundle.scaler.means.shape[0],
        "learners.logreg.n_iter": model.n_iter_,
        "learners.logreg.objective_len": len(model.objective_history_),
        "learners.logreg.budget_hit": int(model.n_iter_ >= model.config.max_iter),
        "holdout.accuracy": result.holdout_report.accuracy,
        "holdout.macro_f1": result.holdout_report.macro_f1,
    }


def pin_mismatches(facts: dict, pins: dict) -> list[str]:
    bad = []
    for key, pin in pins.items():
        value = facts[key]
        if isinstance(pin, tuple):
            expected, places = pin
            ok = round(value, places) == expected
        else:
            expected, ok = pin, value == pin
        if not ok:
            bad.append(f"{key}={value!r}, pinned {expected!r}")
    return bad


class Session:
    """One workload run: its inputs, the bundle it trains, and its ledger.

    Each `*_op` method is one timed operation; the matching `check_*` method
    verifies its output outside the timed region."""

    def __init__(self, plan: Plan, seed: int, root: Path, work: Path):
        self.plan = plan
        self.root = root
        self.ledger = Ledger()
        self.label_map = corpus.default_label_map()
        self.csv_path = corpus_path(plan, work)
        self.bundle_path = work / "model.bundle"
        self.tables_dir = work / "tables"
        self.posts = post_stream(plan, seed, work)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.bundle_bytes: bytes | None = None
        self.facts: dict = {}
        self.records: list[corpus.CleanRecord] = []
        self.result = None                  # last TrainResult
        self.rows: list[evaluation.BenchmarkRow] = []   # last run_benchmark rows
        self.loaded: bundle.ModelBundle | None = None
        self.expected: list[int] = []      # batch-path argmax per stream post
        self._next_post = 0                 # next post for a CLI launch
        self.singles = 0                    # single-post predictions so far

    def record(self, ok: bool, what: str) -> None:
        self.ledger.record(ok, what)

    # -- training ----------------------------------------------------------

    def train_op(self):
        return production_training(self.csv_path, self.bundle_path)

    def check_train(self, out) -> None:
        raw, self.records, self.result = out
        data = self.bundle_path.read_bytes()
        if self.bundle_bytes is not None:
            self.record(data == self.bundle_bytes, "training: bundle bytes differ")
            return
        self.bundle_bytes = data
        self.facts = training_facts(raw, self.records, self.result, self.label_map)
        bad = pin_mismatches(self.facts, self.plan.pins)
        self.record(not bad, "training: " + "; ".join(bad))
        train = [self.records[i] for i in self.result.train_indices]
        self.facts["features.train_nnz"] = self.result.space.featurize(train).to_csr().nnz
        self.facts["bundle.bytes"] = len(data)

    def compare_op(self):
        return evaluation.run_benchmark(self.records)

    def check_compare(self, rows) -> None:
        self.rows = rows
        for row in rows:
            self.record(not row.failed, f"run_benchmark {row.model}: {row.error}")
        logreg = [r for r in rows if r.model == evaluation.MODEL_DISPLAY["logreg"][0]]
        self.record(
            len(logreg) == 1 and logreg[0].accuracy == self.facts["holdout.accuracy"],
            "run_benchmark: logreg row differs from the production bundle",
        )

    def export_op(self) -> None:
        result = self.result
        written = export.export_tables(
            self.tables_dir,
            report=result.holdout_report,
            benchmark=self.rows,
            tfidf_config=result.bundle.tfidf.config,
            model_configs={"logreg": result.bundle.classifier.config},
            label_map=self.label_map,
        )
        self.record(
            len(written) == 4 and all(p.stat().st_size > 0 for p in written.values()),
            "export_tables: missing table",
        )

    # -- serving -----------------------------------------------------------

    def single_posts(self, count: int, latencies: list[int]) -> None:
        """`count` single-post predictions, cycling through the stream; each
        must give the batch path's answer for that post."""
        loaded, expected, record = self.loaded, self.expected, self.record
        posts, clock = self.posts, time.perf_counter_ns
        for _ in range(count):
            i = self.singles % len(posts)
            self.singles += 1
            post = posts[i]
            start = clock()
            label = int(bundle.predict(loaded, post.text, post.retweets, post.likes).label)
            latencies.append(clock() - start)
            record(label == expected[i], f"predict and the batch path differ on post {i}")

    def batch_op(self) -> list[int]:
        return batch_labels(self.loaded, self.posts, self.label_map)

    def check_batch(self, labels: list[int]) -> None:
        self.record(labels == self.expected, "the batch path changed its answers")

    def _post(self) -> tuple[corpus.RawRecord, str]:
        """The next stream post for a CLI launch, cycling, and its expected class."""
        i = self._next_post % len(self.posts)
        self._next_post += 1
        return self.posts[i], corpus.SentimentClass(self.expected[i]).label

    def cold_op(self):
        post, label = self._post()
        argv = [sys.executable, "-m", "sentiga", *predict_argv(self.bundle_path, post)]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        return proc, label

    def check_cli(self, out) -> None:
        proc, label = out
        ok = proc.returncode == 0 and json.loads(proc.stdout)["class"] == label
        self.record(ok, f"sentiga predict exit {proc.returncode}: {proc.stderr[-300:]}")

    def main_op(self):
        """`sentiga predict` inside this process, for the traced run."""
        post, label = self._post()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(predict_argv(self.bundle_path, post))
        return subprocess.CompletedProcess([], code, stdout.getvalue(), ""), label

    # -- set-up cost ---------------------------------------------------------

    def setup_probe(self, load_bundle: bool) -> tuple[float, float]:
        """A fresh interpreter until the workload is ready: `import sentiga`,
        plus `load_bundle` where the workload serves a trained bundle.
        Returns (time from launch to ready, import time inside the process)."""
        load = "sentiga.bundle.load_bundle(sys.argv[1])" if load_bundle else ""
        code = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            "import sentiga\n"
            "t1 = time.perf_counter()\n"
            f"{load}\n"
            "print(time.monotonic(), t1 - t0, sentiga.__file__)\n"
        )
        launched = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code, str(self.bundle_path)],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=120)
        ok = proc.returncode == 0
        if ok:
            ready, import_s, path = proc.stdout.split()
            # The package must come from this checkout, never from an install.
            ok = Path(path).resolve().is_relative_to((self.root / "src").resolve())
        self.record(ok, f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}")
        if not ok:
            raise RuntimeError(f"set-up probe failed: {proc.stdout} {proc.stderr[-300:]}")
        return float(ready) - launched, float(import_s)


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def timed(fn, check, samples: list[float]) -> None:
    """Append fn's wall time to samples; check its result outside the timing."""
    start = time.perf_counter()
    out = fn()
    samples.append(time.perf_counter() - start)
    check(out)


def new_samples() -> dict[str, list]:
    return {key: [] for key in (
        "train_s", "compare_s", "predict_ns", "window_p99_ns", "batch_s", "cold_predict_s",
        "setup_s")}


def first_training(session: Session, samples: dict) -> None:
    """The first production training, which makes the bundle; then the batch
    path fixes each stream post's expected answer."""
    timed(session.train_op, session.check_train, samples["train_s"])
    session.loaded = bundle.load_bundle(session.bundle_path)
    session.expected = session.batch_op()


def run_round(session: Session, plan: Plan, samples: dict, compare: bool,
              traced_pass: bool) -> None:
    """One round of the plan. In a traced pass `sentiga predict` runs through
    `cli.main` in this process, and there is no set-up probe."""
    def serve() -> None:
        session.single_posts(WARMUP_POSTS, [])
        latencies: list[int] = []
        session.single_posts(plan.posts, latencies)
        samples["predict_ns"] += latencies
        if len(latencies) >= WINDOW_POSTS:
            samples["window_p99_ns"].append(percentile(sorted(latencies), 99.0))
        for _ in range(plan.batches):
            timed(session.batch_op, session.check_batch, samples["batch_s"])

    # Serving follows a launch: while this process waits for it, the BLAS
    # threads that training woke stop spinning (a spinning thread on a sibling
    # CPU slows single posts by ~30 %).
    for _ in range(plan.trainings):
        timed(session.train_op, session.check_train, samples["train_s"])
    if traced_pass:
        timed(session.main_op, session.check_cli, samples["cold_predict_s"])
    else:
        timed(session.cold_op, session.check_cli, samples["cold_predict_s"])
    serve()
    if compare:
        timed(session.compare_op, session.check_compare, samples["compare_s"])
    if not traced_pass:
        samples["setup_s"].append(session.setup_probe(plan.setup_loads_bundle)[0])
    serve()


def run_untraced(session: Session, plan: Plan, seconds: float) -> dict:
    """The first training, then rounds until there have been `plan.min_rounds`
    and `seconds` have passed since the start; returns the raw samples."""
    samples = new_samples()
    deadline = time.perf_counter() + seconds
    first_training(session, samples)
    singles_before = session.singles
    rounds = 0
    while rounds < plan.min_rounds or time.perf_counter() < deadline:
        run_round(session, plan, samples, rounds < plan.comparisons, traced_pass=False)
        rounds += 1
    if plan.export:
        session.export_op()
    session.record(session.singles - singles_before >= len(session.posts),
                   "some stream posts were never predicted one at a time")
    samples["rounds"] = rounds
    return samples


def end_to_end(samples: dict, stream_posts: int) -> dict[str, tuple[float, str]]:
    """Medians of the raw samples, with units. The single-post tail is the
    median over serving windows of each window's 99th percentile, so a burst
    of interference from the shared machine moves one window, not the run.
    Batch throughput is all posts scored over all time spent in batch passes:
    it grows in proportion to the run's share of fast spells, where a median
    of pass times jumps between the machine's two speeds."""
    if not samples["window_p99_ns"]:
        raise ValueError(f"no serving window of {WINDOW_POSTS} posts; p99 needs one")
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "train_s": (statistics.median(samples["train_s"]), "s"),
        "predict_p50_us": (statistics.median(samples["predict_ns"]) / 1e3, "us"),
        "predict_p99_us": (statistics.median(samples["window_p99_ns"]) / 1e3, "us"),
        "batch_posts_per_s": (stream_posts * len(samples["batch_s"]) / sum(samples["batch_s"]),
                              "posts/s"),
        "cold_predict_s": (statistics.median(samples["cold_predict_s"]), "s"),
    }
    if samples["compare_s"]:
        metrics["compare_s"] = (statistics.median(samples["compare_s"]), "s")
    return metrics
