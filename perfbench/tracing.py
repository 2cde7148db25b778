"""Span recorder for the traced benchmark run.

The wrappers are installed from the benchmark's side, around calls into the
public functions of each package module, so no program file changes. A span
is (name, start, end, parent); spans stay in memory until the run writes them
out. Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, class or "", attribute, span name). Several functions may share one
# span name; `learners.predict` covers every scoring entry point.
SPAN_TARGETS = [
    ("sentiga.textnorm", "", "clean_text", "textnorm.clean_text"),
    ("sentiga.corpus", "", "load_raw", "corpus.load_raw"),
    ("sentiga.corpus", "", "prepare_corpus", "corpus.prepare_corpus"),
    ("sentiga.features", "", "fit_feature_space", "features.fit_feature_space"),
    ("sentiga.features", "", "fit_tfidf", "features.fit_tfidf"),
    ("sentiga.features", "HybridFeatureSpace", "featurize", "features.featurize"),
    ("sentiga.features", "", "transform_corpus", "features.transform_corpus"),
    ("sentiga.features", "HybridMatrix", "to_csr", "features.to_csr"),
    ("sentiga.learners", "", "train_logreg", "learners.train_logreg"),
    ("sentiga.learners", "", "train_mlp", "learners.train_mlp"),
    ("sentiga.learners", "", "train_linear_svm", "learners.train_linear_svm"),
    ("sentiga.learners", "", "predict_logreg", "learners.predict"),
    ("sentiga.learners", "", "predict_proba_logreg", "learners.predict"),
    ("sentiga.learners", "", "predict_mlp", "learners.predict"),
    ("sentiga.learners", "", "predict_proba_mlp", "learners.predict"),
    ("sentiga.learners", "", "predict_svm", "learners.predict"),
    ("sentiga.learners", "", "decision_scores_svm", "learners.predict"),
    ("sentiga.evaluation", "", "stratified_split", "evaluation.stratified_split"),
    ("sentiga.evaluation", "", "report", "evaluation.report"),
    ("sentiga.evaluation", "", "run_benchmark", "evaluation.run_benchmark"),
    ("sentiga.bundle", "", "train_bundle", "bundle.train_bundle"),
    ("sentiga.bundle", "", "save_bundle", "bundle.save_bundle"),
    ("sentiga.bundle", "", "load_bundle", "bundle.load_bundle"),
    ("sentiga.bundle", "", "predict", "bundle.predict"),
    ("sentiga.export", "", "export_tables", "export.export_tables"),
    ("sentiga.cli", "", "main", "cli.main"),
]

# Called tens of thousands of times per training: counted, not spanned.
COUNT_TARGETS = [
    ("sentiga.learners", "", "_logreg_value_grad", "learners.logreg.evals"),
]


class Tracer:
    """Records spans and counts while installed; restores the package on exit.
    Besides the COUNT_TARGETS, `counts["<span>.rows"]` adds up the rows of the
    arrays and matrices a spanned function returns."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.returns: dict[str, object] = {}   # last return value per span name
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, cls, attr, name in SPAN_TARGETS:
            self._patch(module, cls, attr, self._span_wrapper(name))
        for module, cls, attr, name in COUNT_TARGETS:
            self._patch(module, cls, attr, self._count_wrapper(name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, module_name: str, cls: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls) if cls else module
        original = getattr(owner, attr)
        wrapped = make(original)
        owners = [owner]
        if not cls:
            # `from .x import f` binds f in other modules too; rebind those.
            owners += [
                m for key, m in list(sys.modules.items())
                if m is not module and (key == "sentiga" or key.startswith("sentiga."))
                and getattr(m, attr, None) is original
            ]
        for target in owners:
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapped)

    def _span_wrapper(self, name: str):
        spans, stack, returns, counts = self.spans, self._stack, self.returns, self.counts
        rows = name + ".rows"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                record = [name, time.perf_counter(), None, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    stack.pop()
                returns[name] = result
                if hasattr(result, "shape"):    # matrices and score arrays
                    counts[rows] += result.shape[0]
                return result
            return wrapper
        return make

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time (outermost spans of that name,
        so nesting is not counted twice) and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor(parent, name):
                entry["busy_s"] += end - start
        return dict(out)

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
