"""The three benchmark workloads and their output checks.

Every input is generated from the workload seed; the package only ever
sees the generated files and arrays. Each workload has the same shape:

* ``setup(directory)`` builds the inputs under a fresh directory (timed as
  set-up),
* ``op(i)`` is the one timed operation, returning True on success,
* ``after_op(i)`` runs untimed bookkeeping on the operation's outputs and
  returns False when they are wrong,
* ``checks()`` runs the untimed correctness checks at the end and yields
  ``(name, ok, detail)`` triples.

Why these three: ``train_desk`` is the only workload that writes
parameters (backward pass, Adam, dropout, the per-epoch metrics pass);
``eval_wide`` runs large batches through blocks up to 1000 inputs wide, so
the tensor kernels dominate; ``query_desk`` answers one sample at a time,
so per-block Python dispatch dominates and the kernels do little.
``eval_wide`` is not among the workloads BENCHMARK.json gates on: its
memory-bound kernels slow down most when other tenants load the host, and
its run-to-run spread (0.18 to 0.27 of the median over ten seeds) is
wider than two sets of runs can be held to. Run it by name to measure
the large-batch path.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import randspn as rs
import randspn.cli
from randspn import oracle

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_eval_wide.json"

# Outputs compared with the brute-force oracle or the recorded reference
# may differ by summation order only: |got - want| <= RTOL * max(1, |want|).
RTOL = 1e-9

NUM_CLASSES = 10
# D, R, S, I of the desk and 784-variable configurations.
DESK = dict(side=8, depth=2, repetitions=8, sums=8, leaves=8)
WIDE = dict(side=28, depth=3, repetitions=10, sums=10, leaves=10)
# Fixed case for the recorded reference; independent of the workload seed.
REFERENCE_SEED = 20180605
REFERENCE_SAMPLES = 12


def close(got, want) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= RTOL * np.maximum(1.0, np.abs(want)))
    )


def run_cli(argv) -> int:
    """``randspn`` in-process, its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return randspn.cli.main(argv)


def write_idx_set(directory: Path, num_samples, side, seed, name="set"):
    """Synthetic 10-class images as 0..255 IDX files; returns the data spec."""
    data = rs.make_synthetic_classes(
        num_samples, num_classes=NUM_CLASSES, side=side, sample_seed=seed
    )
    images, labels = directory / f"{name}-images.idx", directory / f"{name}-labels.idx"
    rs.save_idx(np.rint(data.features * 255.0), images, labels, labels=data.labels)
    return f"idx:{images},{labels}"


def build_circuit(config, seed):
    graph = rs.random_region_graph(
        config["side"] ** 2, config["depth"], config["repetitions"], seed
    )
    return rs.construct_circuit(graph, NUM_CLASSES, config["sums"], config["leaves"])


def save_scaled_model(directory: Path, spec, config, seed, name="model"):
    """Model whose leaf means follow the divmax-scaled data it will read."""
    raw = randspn.cli.load_data_spec(spec)
    scaling = rs.Scaling(mode="divmax", max_value=255.0)
    data = rs.apply_scaling(raw, scaling)
    circuit = build_circuit(config, seed)
    params = rs.init_parameters(circuit, seed=seed, feature_stats=data.feature_stats())
    path = directory / f"{name}.model.json"
    rs.save_model(circuit, params, path, scaling=scaling)
    return path, data


def all_missing_checks(circuit, params, features, batch_sizes):
    """Marginalizing every variable must give log p(x) = 0 exactly."""
    for rows in batch_sizes:
        x = features[:rows]
        log_px = rs.log_marginal_input(
            circuit, params, x, missing=np.ones_like(x, dtype=bool)
        )
        yield (
            f"all-missing log p(x) is exactly 0, batch of {rows}",
            bool(np.all(log_px == 0.0)),
            f"values {log_px.tolist()}",
        )


def oracle_log_roots(model_path, rows):
    """Per-class log root values from the brute-force oracle, one row each."""
    model = oracle.load_model_file(model_path)
    return np.asarray([[math.log(v) for v in model.evaluate(list(row))] for row in rows])


def oracle_log_px(model_path, row, missing):
    """log p(x) under a uniform class prior, by the oracle."""
    model = oracle.load_model_file(model_path)
    values = model.evaluate(list(row), missing=np.flatnonzero(missing).tolist())
    return math.log(sum(values) / len(values))


class TrainDesk:
    """In-process ``randspn train`` on a synthetic 8x8 set, desk config."""

    name = "train_desk"
    aliases = {"samples_per_s.mean": "train_samples_per_s"}

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.num_samples = 100 if tiny else 200
        self.samples_per_op = self.num_samples  # one epoch per run

    def setup(self, directory: Path):
        spec = write_idx_set(directory, self.num_samples, DESK["side"], self.seed)
        self.prefix = str(directory / "run")
        self.argv = [
            "train", "--data", spec,
            "--depth", str(DESK["depth"]), "--repetitions", str(DESK["repetitions"]),
            "--sums", str(DESK["sums"]), "--leaves", str(DESK["leaves"]),
            "--classes", str(NUM_CLASSES),
            "--batch-size", "100", "--lambda", "0.2",
            "--keep-input", "0.9", "--keep-sum", "0.75",
            "--epochs", "1", "--seed", str(self.seed),
            "--out", self.prefix,
        ]
        self.spec = spec
        self.first_outputs = None

    def op(self, i) -> bool:
        return run_cli(self.argv) == 0

    def after_op(self, i) -> bool:
        # A fixed seed must give byte-identical metrics and model files.
        outputs = tuple(
            Path(self.prefix + suffix).read_bytes()
            for suffix in (".metrics.csv", ".model.json")
        )
        if self.first_outputs is None:
            self.first_outputs = outputs
        return outputs == self.first_outputs

    def checks(self):
        model_path = self.prefix + ".model.json"
        circuit, params, meta = rs.load_model(model_path)
        data = rs.apply_scaling(randspn.cli.load_data_spec(self.spec), meta["scaling"])
        rows = np.random.default_rng([self.seed, 7]).choice(
            len(data), size=2, replace=False
        )
        x = data.features[rows]
        got = rs.forward_log(circuit, params, x)
        want = oracle_log_roots(model_path, x)
        yield "trained model matches oracle on 2 sampled rows", close(got, want), (
            f"max abs diff {np.max(np.abs(got - want)):.3g}"
        )

    def circuit(self):
        return build_circuit(DESK, self.seed)


class EvalWide:
    """In-process ``randspn eval`` at the 784-variable config."""

    name = "eval_wide"
    aliases = {"samples_per_s.mean": "eval_samples_per_s"}

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.num_samples = 16 if tiny else 128
        self.samples_per_op = self.num_samples

    def setup(self, directory: Path):
        self.dir = directory
        spec = write_idx_set(directory, self.num_samples, WIDE["side"], self.seed)
        self.model_path, self.data = save_scaled_model(directory, spec, WIDE, self.seed)
        self.prefix = str(directory / "eval")
        self.argv = ["eval", "--model", str(self.model_path), "--data", spec,
                     "--out", self.prefix]
        self.first_output = None

    def op(self, i) -> bool:
        return run_cli(self.argv) == 0

    def after_op(self, i) -> bool:
        output = Path(self.prefix + ".eval.csv").read_bytes()
        if self.first_output is None:
            self.first_output = output
        return output == self.first_output

    def checks(self):
        reference = json.loads(REFERENCE_FILE.read_text())
        got = reference_outputs(self.dir / "reference")
        for key, want in reference["outputs"].items():
            ok = close(got[key], want)
            yield f"reference {key} within rtol {RTOL}", ok, (
                f"max abs diff {np.max(np.abs(np.subtract(got[key], want))):.3g}"
            )
        circuit, params, _ = rs.load_model(self.model_path)
        # Batches of 1 and 4: eval runs whole files in one batch.
        yield from all_missing_checks(circuit, params, self.data.features, (1, 4))

    def circuit(self):
        return build_circuit(WIDE, self.seed)


def reference_outputs(directory: Path):
    """Engine and CLI outputs on the fixed 784-variable reference case."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = write_idx_set(
        directory, REFERENCE_SAMPLES, WIDE["side"], REFERENCE_SEED, name="reference"
    )
    model_path, data = save_scaled_model(
        directory, spec, WIDE, REFERENCE_SEED, name="reference"
    )
    prefix = str(directory / "reference")
    if run_cli(["eval", "--model", str(model_path), "--data", spec,
                "--out", prefix]) != 0:
        raise RuntimeError("randspn eval failed on the reference case")
    header, values = Path(prefix + ".eval.csv").read_text().splitlines()
    circuit, params, _ = rs.load_model(model_path)
    return {
        "eval_csv": [float(v) for v in values.split(",")],
        "log_roots": rs.forward_log(circuit, params, data.features).tolist(),
        "log_px": rs.log_marginal_input(circuit, params, data.features).tolist(),
    }


class QueryDesk:
    """Closed loop, one client: single-sample conditional queries."""

    name = "query_desk"
    aliases = {"op_ms.p50": "query_ms.p50", "op_ms.p99": "query_ms.p99"}
    POOL = 2048
    QUERY_SHARE = 0.30
    EVIDENCE_SHARE = 0.35
    CHECKED = 3

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.num_samples = 100 if tiny else 500
        self.samples_per_op = 1

    def setup(self, directory: Path):
        data = rs.make_synthetic_classes(
            self.num_samples, num_classes=NUM_CLASSES, side=DESK["side"],
            sample_seed=self.seed,
        )
        circuit = build_circuit(DESK, self.seed)
        params = rs.init_parameters(
            circuit, seed=self.seed, feature_stats=data.feature_stats()
        )
        self.model_path = directory / "desk.model.json"
        rs.save_model(circuit, params, self.model_path)
        self.model = rs.load_model(self.model_path)
        rng = np.random.default_rng([self.seed, 1])
        self.rows = data.features[rng.integers(self.num_samples, size=self.POOL)]
        u = rng.random(self.rows.shape)
        self.query = u < self.QUERY_SHARE
        self.evidence = (u >= self.QUERY_SHARE) & (
            u < self.QUERY_SHARE + self.EVIDENCE_SHARE
        )
        self.answers = {}

    def op(self, i) -> bool:
        k = i % self.POOL
        circuit, params, _ = self.model
        self.last = rs.conditional_log(
            circuit, params, self.rows[k : k + 1],
            self.query[k : k + 1], self.evidence[k : k + 1],
        )
        return True

    def after_op(self, i) -> bool:
        if 0 <= i < self.CHECKED:
            self.answers[i] = float(self.last[0])
        return self.last.shape == (1,) and bool(np.isfinite(self.last[0]))

    def checks(self):
        for k, got in sorted(self.answers.items()):
            row = self.rows[k]
            want = oracle_log_px(
                self.model_path, row, ~(self.query[k] | self.evidence[k])
            ) - oracle_log_px(self.model_path, row, ~self.evidence[k])
            yield f"query {k} matches oracle", close(got, want), (
                f"engine {got!r} oracle {want!r}"
            )
        circuit, params, _ = self.model
        # One row, the batch size every query here runs at.
        yield from all_missing_checks(circuit, params, self.rows, (1,))

    def circuit(self):
        return self.model[0]


WORKLOADS = {w.name: w for w in (TrainDesk, EvalWide, QueryDesk)}


def computed_counts(circuit, rows, samples):
    """Exact counts from block shapes and the batch rows the spans saw."""
    kinds = Counter(block.kind for block in circuit.blocks)
    sum_bytes = sum(
        8 * block.width * sum(b.width for b in block.inputs)
        for block in circuit.blocks
        if block.kind == "sum"
    )
    leaf_bytes = sum(
        8 * block.width * len(block.scope)
        for block in circuit.blocks
        if block.kind == "leaf"
    )
    trained = rows["training.backward_gradients"]
    return {
        "computed.inference.blocks_per_pass.leaf": kinds["leaf"],
        "computed.inference.blocks_per_pass.product": kinds["product"],
        "computed.inference.blocks_per_pass.sum": kinds["sum"],
        "computed.inference.forward_passes_per_sample":
            rows["inference.forward_log"] / samples,
        "computed.inference.sum_bytes_per_sample": sum_bytes,
        "computed.leaves.bytes_per_sample": leaf_bytes,
        "computed.training.metrics_samples_per_trained_sample":
            rows["training.evaluate_metrics"] / trained if trained else 0.0,
    }
