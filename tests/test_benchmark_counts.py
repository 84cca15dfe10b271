"""The benchmark's ``--trace 1`` counts still compute on today's circuit.

``benchmarks/workloads.computed_counts`` reads the circuit's structure from
outside the package to report the exact per-pass counts. A refactor of the
circuit that it no longer understands would otherwise fail only when the
benchmark runs; this test fails instead. The expected values come from the
plan and the region graph.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import randspn as rs

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("num_vars", [1, 5])
def test_computed_counts_match_the_plan(num_vars):
    graph = rs.random_region_graph(num_vars, 2, 2, seed=0)
    circuit = rs.construct_circuit(graph, 2, 3, 2)
    params = rs.init_parameters(circuit, seed=0)
    rng = np.random.default_rng(0)
    data = rs.Dataset(rng.normal(size=(6, num_vars)), labels=np.array([1, 2] * 3))

    with _load("tracing").Tracer() as tracer:
        rs.train(circuit, params, data, None, rs.TrainConfig(epochs=1, batch_size=6))
    counts = _load("workloads").computed_counts(circuit, tracer.rows, len(data.labels))

    def members(kind):
        return [group for group in circuit.plan if group.kind == kind]

    def table_bytes(kind):
        return sum(8 * len(g.regions) * g.width * g.columns for g in members(kind))

    assert counts == {
        "computed.inference.blocks_per_pass.leaf": sum(len(g.regions) for g in members("leaf")),
        "computed.inference.blocks_per_pass.product": len(graph.partitions),
        "computed.inference.blocks_per_pass.sum": sum(len(g.regions) for g in members("sum")),
        # one training step and one metrics pass over every sample
        "computed.inference.forward_passes_per_sample": 2.0,
        "computed.inference.sum_bytes_per_sample": table_bytes("sum"),
        "computed.leaves.bytes_per_sample": table_bytes("leaf"),
        "computed.training.metrics_samples_per_trained_sample": 1.0,
    }
