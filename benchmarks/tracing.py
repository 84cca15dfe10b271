"""Per-layer spans recorded from outside the package.

Each span wraps one public function of ``randspn``. The wrapper replaces
every module-level name that refers to the original function, in every
loaded ``randspn`` module, so calls resolve through the caller's own
namespace (``randspn.training.forward_log``, ``randspn.cli.train``, ...)
without a single line of the package changing. Spans nest on one thread;
a span's self time is its duration minus the durations of its child
spans. Totals are aggregated in memory while the spans run and read out
once at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, defining module, function). The Gaussian leaf kernel is
# named after its caller, inference, where it acts as the leaf layer.
SPANS = (
    ("cli.main", "randspn.cli", "main"),
    ("training.train", "randspn.training", "train"),
    ("training.backward_gradients", "randspn.training", "backward_gradients"),
    ("training.adam_step", "randspn.training", "adam_step"),
    ("training.evaluate_metrics", "randspn.training", "evaluate_metrics"),
    ("training.sample_input_dropout_mask", "randspn.training", "sample_input_dropout_mask"),
    ("training.sample_sum_dropout_mask", "randspn.training", "sample_sum_dropout_mask"),
    ("inference.forward_log", "randspn.inference", "forward_log"),
    ("inference.sum_block_inputs", "randspn.inference", "sum_block_inputs"),
    ("inference.sum_block_forward", "randspn.inference", "sum_block_forward"),
    ("inference.gaussian_block_log_density", "randspn.leaves", "gaussian_block_log_density"),
    ("inference.log_marginal_input", "randspn.inference", "log_marginal_input"),
    ("inference.conditional_log", "randspn.inference", "conditional_log"),
    ("model_io.load_model", "randspn.model_io", "load_model"),
    ("model_io.save_model", "randspn.model_io", "save_model"),
    ("data.load_idx", "randspn.data", "load_idx"),
    ("region_graph.random_region_graph", "randspn.region_graph", "random_region_graph"),
    ("circuit.construct_circuit", "randspn.circuit", "construct_circuit"),
    ("circuit.init_parameters", "randspn.circuit", "init_parameters"),
)

# Spans with child spans, for which the inclusive share is also reported.
INCLUSIVE = (
    "cli.main",
    "training.train",
    "training.backward_gradients",
    "training.evaluate_metrics",
    "inference.forward_log",
    "inference.log_marginal_input",
    "inference.conditional_log",
    "model_io.load_model",
)

# Spans a workload's set-up runs, reported on their own.
SETUP_SPANS = (
    "model_io.save_model",
    "model_io.load_model",
    "region_graph.random_region_graph",
    "circuit.construct_circuit",
    "circuit.init_parameters",
)

# Spans whose third positional argument is a batch of samples; the rows
# they see give the forward-pass and metrics-pass counts.
ROW_ARG = {
    "inference.forward_log": 2,
    "training.backward_gradients": 2,
    "training.evaluate_metrics": 2,
}


class Tracer:
    """Aggregates calls, self time and inclusive time per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.rows = defaultdict(int)
        self._stack: list[float] = []
        self._patches = []  # (module, attribute, original, wrapper)
        for name, module_name, attr in SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(name, original)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def _wrap(self, name, fn):
        stack = self._stack
        row_arg = ROW_ARG.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            if row_arg is not None and len(args) > row_arg:
                self.rows[name] += len(args[row_arg])
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child
                self.incl_s[name] += duration
                if stack:
                    stack[-1] += duration

        return span

    def install(self):
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    def reset(self):
        for table in (self.calls, self.self_s, self.incl_s, self.rows):
            table.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "randspn" or name.startswith("randspn."))
    ]
