import ast
import math
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randspn as rs
from randspn.model_io import model_to_dict
from randspn.oracle import (
    OracleError,
    brute_force_marginal,
    brute_force_mass,
    enumerate_assignments,
    finite_diff_gradient,
    load_model_dict,
    load_model_file,
)
from conftest import random_circuit, randomize_params


def _random_discrete_model(rng, num_vars=None):
    circuit, params = random_circuit(rng, num_vars=num_vars, leaf_family="bernoulli")
    params = randomize_params(params, rng)
    return circuit, params, load_model_dict(model_to_dict(circuit, params))


def test_single_bernoulli_leaf_model():
    graph = rs.random_region_graph(1, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 1, 1, 1, leaf_family="bernoulli")
    params = rs.init_parameters(circuit, seed=0)
    leaves = circuit.plan[0]  # the root's own leaves, its one leaf member
    flat = params.flat.copy()
    params.stacked("leaf_logits", leaves, flat)[0] = 0.0  # p = 0.5
    params = rs.ParameterSet(params.layout, flat)
    model = load_model_dict(model_to_dict(circuit, params))
    table = brute_force_mass(model)
    np.testing.assert_allclose(table, np.log(0.5), atol=1e-12)


def test_mass_tables_normalize_and_match_engine(rng):
    for _ in range(6):
        circuit, params, model = _random_discrete_model(rng, int(rng.integers(2, 8)))
        table = brute_force_mass(model)
        np.testing.assert_allclose(np.exp(table).sum(axis=0), 1.0, atol=1e-9)
        X = np.array(enumerate_assignments(circuit.num_vars), dtype=float)
        engine = rs.forward_log(circuit, params, X)
        np.testing.assert_allclose(engine, table, atol=1e-9)


def test_marginal_edge_cases_and_agreement(rng):
    circuit, params, model = _random_discrete_model(rng, 5)
    x = [1, 0, 1, 1, 0]

    full = brute_force_marginal(model, x, [])
    np.testing.assert_allclose(
        full, [np.log(v) for v in model.evaluate(x)], atol=1e-12
    )

    everything = brute_force_marginal(model, x, range(5))
    np.testing.assert_allclose(everything, 0.0, atol=1e-9)

    for _ in range(10):
        missing = list(np.flatnonzero(rng.random(5) < 0.5))
        mask = np.zeros((1, 5), bool)
        mask[0, missing] = True
        engine = rs.forward_log(circuit, params, np.array([x], float), missing=mask)[0]
        oracle = brute_force_marginal(model, x, missing)
        np.testing.assert_allclose(engine, oracle, atol=1e-9)


def test_brute_force_guards():
    rng = np.random.default_rng(0)
    graph = rs.random_region_graph(13, 2, 1, seed=1)
    circuit = rs.construct_circuit(graph, 1, 1, 1, leaf_family="bernoulli")
    params = rs.init_parameters(circuit, seed=0)
    model = load_model_dict(model_to_dict(circuit, params))
    with pytest.raises(OracleError):
        brute_force_mass(model)
    with pytest.raises(OracleError):
        brute_force_marginal(model, [0] * 13, [0])

    gauss_c, gauss_p = random_circuit(rng, num_vars=3)
    gauss = load_model_dict(model_to_dict(gauss_c, gauss_p))
    with pytest.raises(OracleError):
        brute_force_mass(gauss)


def test_finite_differences_on_quadratic_toy():
    arrays = {"w": np.array([1.0, -2.0, 0.5])}

    def objective(work):
        w = work["w"]
        return float(w @ w + 3.0 * w[0])

    grads = finite_diff_gradient(objective, arrays, 1e-5)
    np.testing.assert_allclose(grads["w"], 2 * arrays["w"] + np.array([3, 0, 0]),
                               atol=1e-8)


def test_finite_differences_keep_their_writes_on_f_ordered_input():
    arrays = {"a": np.asfortranarray(np.arange(4.0).reshape(2, 2))}

    def objective(work):
        return float((work["a"] ** 2).sum())

    grads = finite_diff_gradient(objective, arrays, 1e-5)
    np.testing.assert_allclose(grads["a"], 2 * arrays["a"], atol=1e-8)


def test_step_halving_improves_smooth_disagreement():
    arrays = {"w": np.array([0.3, -0.7])}

    def objective(work):
        w = work["w"]
        return float(np.exp(np.sin(w).sum()))

    exact = np.exp(np.sin(arrays["w"]).sum()) * np.cos(arrays["w"])
    err_h = np.abs(finite_diff_gradient(objective, arrays, 1e-2)["w"] - exact).max()
    err_half = np.abs(finite_diff_gradient(objective, arrays, 5e-3)["w"] - exact).max()
    assert err_half < 0.5 * err_h  # central differences converge at second order


def test_finite_diff_rejects_non_finite_probe():
    arrays = {"w": np.array([0.0])}

    def objective(work):
        with np.errstate(invalid="ignore", divide="ignore"):
            return float(np.log(work["w"][0]))

    with pytest.raises(OracleError):
        finite_diff_gradient(objective, arrays, 1e-3)


def test_oracle_loads_files_independently(tmp_path, rng):
    circuit, params, _ = _random_discrete_model(rng, 4)
    path = tmp_path / "model.json"
    rs.save_model(circuit, params, path)
    from randspn.oracle import load_model_file

    model = load_model_file(path)
    X = np.array(enumerate_assignments(4), dtype=float)
    engine = rs.forward_log(circuit, params, X)
    table = brute_force_mass(model)
    np.testing.assert_allclose(engine, table, atol=1e-9)


def test_oracle_module_never_imports_the_engine():
    import randspn.oracle as oracle_module

    source = pathlib.Path(oracle_module.__file__).read_text()
    tree = ast.parse(source)
    engine_modules = {
        "randspn.circuit", "randspn.inference", "randspn.training",
        "randspn.leaves", "randspn.region_graph", "randspn.model_io",
        "randspn.data", "randspn.cli",
        "circuit", "inference", "training", "leaves", "region_graph",
        "model_io", "data", "cli",
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = {(node.module or "").lstrip(".")} | {
                alias.name for alias in node.names
            }
        else:
            continue
        assert not names & engine_modules, f"oracle imports engine code: {names}"


def _oracle_log_px(model, x, missing):
    """log p(x) under a uniform class prior, marginalizing ``missing`` (a boolean row)."""
    missing_set = np.flatnonzero(missing).tolist()
    if model.leaf_family == "bernoulli":  # enumerate every completion
        values = np.exp(brute_force_marginal(model, [int(v) for v in x], missing_set))
    else:  # a Gaussian integrates to 1: the oracle drops its terms
        values = model.evaluate(list(x), missing=missing_set)
    return math.log(sum(values) / len(values))


@settings(max_examples=80, deadline=None)
@given(
    num_vars=st.integers(1, 8),
    depth=st.integers(1, 3),
    repetitions=st.integers(1, 4),
    sums=st.integers(1, 3),
    leaves=st.integers(1, 3),
    classes=st.integers(1, 3),
    leaf_family=st.sampled_from(["gaussian", "bernoulli"]),
    rows=st.integers(1, 2),
    seed=st.integers(0, 2**31 - 1),
)
def test_engine_queries_match_the_oracle_through_a_model_file(
    num_vars, depth, repetitions, sums, leaves, classes, leaf_family, rows, seed
):
    # the engine and the oracle each read the same saved file, so they share no code
    rng = np.random.default_rng(seed)
    graph = rs.random_region_graph(num_vars, depth, repetitions, seed)
    circuit = rs.construct_circuit(graph, classes, sums, leaves, leaf_family)
    params = randomize_params(rs.init_parameters(circuit, seed=seed), rng)
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory) / "model.json"
        rs.save_model(circuit, params, path)
        circuit, params, _ = rs.load_model(path)
        model = load_model_file(path)
    if leaf_family == "bernoulli":
        batch = rng.integers(0, 2, (rows, num_vars)).astype(float)
    else:
        batch = rng.normal(size=(rows, num_vars))
    missing = rng.random((rows, num_vars)) < 0.4
    query = ~missing & (rng.random((rows, num_vars)) < 0.5)
    evidence = ~missing & ~query

    log_px = rs.log_marginal_input(circuit, params, batch, missing=missing)
    conditional = rs.conditional_log(circuit, params, batch, query, evidence)
    for i, x in enumerate(batch):
        expected = _oracle_log_px(model, x, missing[i])
        assert log_px[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)
        joint = _oracle_log_px(model, x, ~(query[i] | evidence[i]))
        given_evidence = _oracle_log_px(model, x, ~evidence[i])
        assert conditional[i] == pytest.approx(joint - given_evidence, rel=1e-9, abs=1e-9)
