"""Spans around the program's layers, recorded from the benchmark's side.

The tracer replaces each public function at the module or class attribute
its callers look up (``ascl.training.pgd_attack``, ``ascl.losses.supcon_batch``,
``Tensor.backward``, ...) with a wrapper that records a span: name, start,
end and the index of the enclosing span. A span's self time is its
duration minus the time its child spans cover. Some functions are only
counted, because a span per call would cost more than the call.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
import tracemalloc
from collections import defaultdict

import ascl
import ascl.attacks
import ascl.config
import ascl.data
import ascl.divergence
import ascl.losses
import ascl.models
import ascl.training
from ascl.models import MLPClassifier
from ascl.tensor import Tensor

# layer name -> the attributes its callers look up
SPANS = {
    "training.train_step": [(ascl.training, "train_step")],
    "training.optimizer_step": [(ascl.training.Adam, "step")],
    "tensor.backward": [(Tensor, "backward")],
    "models.forward": [(MLPClassifier, "encode"), (MLPClassifier, "classify"),
                       (MLPClassifier, "project")],
    "losses.supcon_batch": [(ascl.losses, "supcon_batch")],
    "losses.selection_stats": [(ascl.losses, "selection_stats")],
    "losses.at_loss": [(ascl.losses, "at_loss")],
    "losses.vat_loss": [(ascl.losses, "vat_loss")],
    "attacks.pgd_attack": [(ascl.training, "pgd_attack"), (ascl.attacks, "pgd_attack"),
                           (ascl.divergence, "pgd_attack")],
    "attacks.multi_targeted_pgd": [(ascl.attacks, "multi_targeted_pgd")],
    "attacks.robust_accuracy": [(ascl.training, "robust_accuracy"),
                                (ascl.divergence, "robust_accuracy")],
    "divergence.divergence_report": [(ascl.training, "divergence_report"),
                                     (ascl.divergence, "divergence_report")],
    "divergence.absolute_divergences": [(ascl.divergence, "absolute_divergences")],
    "models.save_model": [(ascl.training, "save_model")],
    "models.load_model": [(ascl, "load_model")],
    "data.load_dataset": [(ascl.data, "load_dataset"), (ascl.config, "load_dataset")],
    "data.build_datasets": [(ascl.RunConfig, "build_datasets")],
}
# counted per training step, without a span
COUNTS = {
    "tensor.tensors": (Tensor, "__init__"),
    "losses.select_calls": (ascl.losses, "select"),
}
STEP = "training.train_step"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._step_depth = 0
        self.steps = 0
        self.step_counts = defaultdict(int)
        self.step_peaks = []
        self.measure_memory = False

    def install(self):
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
        for name, (owner, attr) in COUNTS.items():
            self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        is_step = name == STEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            if is_step:
                self.steps += 1
                self._step_depth += 1
                if self.measure_memory:
                    tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_step:
                    self._step_depth -= 1
                    if self.measure_memory:
                        self.step_peaks.append(tracemalloc.get_traced_memory()[1])
                        tracemalloc.stop()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.step_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._step_depth:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self, first=0, last=None):
        """Self seconds per layer over the spans ``first`` to ``last``."""
        total = defaultdict(float)
        for name, start, end, parent in self.spans[first:last]:
            total[name] += end - start
            if parent >= first:
                total[self.spans[parent][0]] -= end - start
        return total

    def inclusive_times(self, first=0):
        """Seconds per layer from ``first`` on, children included; a span
        nested in a span of the same layer is not counted twice."""
        total = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            while parent >= first and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < first:
                total[name] += end - start
        return total

    def write(self, path):
        """All spans as gzipped CSV: index, name, start, end, parent."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start", "end", "parent"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((i, name, f"{start:.9f}", f"{end:.9f}", parent))

    def calls(self, name, first=0):
        return sum(1 for span in self.spans[first:] if span[0] == name)
