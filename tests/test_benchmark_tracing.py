"""The benchmark's per-layer spans still find the engine functions they wrap.

``benchmarks/tracing.py`` wraps engine functions by module and name from
outside the package. A renamed or inlined function would silently record
no calls and zero its per-layer metrics; this test fails instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

import randspn as rs

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
SPANS = (
    "inference.forward_log",
    "inference.sum_block_inputs",
    "inference.sum_block_forward",
    "inference.gaussian_block_log_density",
    "training.backward_gradients",
    "training.adam_step",
)


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_training_and_a_query_record_every_engine_span():
    graph = rs.random_region_graph(4, 2, 2, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0)
    rng = np.random.default_rng(0)
    data = rs.Dataset(rng.normal(size=(6, 4)), labels=np.array([1, 2] * 3))
    query = np.zeros((1, 4), bool)
    query[0, 0] = True
    evidence = ~query

    with _tracing_module().Tracer() as tracer:
        rs.train(circuit, params, data, None, rs.TrainConfig(epochs=1, batch_size=6))
        rs.conditional_log(circuit, params, data.features[:1], query, evidence)
    for span in SPANS:
        assert tracer.calls[span] >= 1, span
    # the wrappers are gone again
    assert rs.forward_log.__module__ == "randspn.inference"


def test_a_bernoulli_circuit_runs_the_one_leaf_kernel():
    # Bernoulli leaves share the Gaussian leaf's kernel, so the benchmark's
    # leaf span sees them; a second leaf kernel would record no calls here
    graph = rs.random_region_graph(4, 2, 2, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2, "bernoulli")
    params = rs.init_parameters(circuit, seed=0)
    batch = np.array([[0.0, 1.0, 1.0, 0.0]])
    with _tracing_module().Tracer() as tracer:
        rs.forward_log(circuit, params, batch)
    assert tracer.calls["inference.gaussian_block_log_density"] >= 1
