import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randspn as rs
from randspn.circuit import ParamTensor, softmax
from randspn.errors import InvalidInput, NumericFailure
from randspn.inference import sum_block_forward
from randspn.leaves import VARIANCE_FLOOR
from randspn.training import (
    AdamState,
    _factor_gradients,
    _leaf_gradients,
    sum_block_backward,
)
from randspn.oracle import enumerate_assignments, finite_diff_gradient, load_model_dict
from conftest import (
    block_kernel,
    block_matrices,
    partitions_of,
    random_circuit,
    randomize_params,
    sum_block_cases,
)


def test_cross_entropy_examples():
    # uniform roots -> ln C
    roots = np.full((4, 3), -2.0)
    labels = np.array([1, 2, 3, 1])
    assert rs.cross_entropy(roots, labels) == pytest.approx(np.log(3), abs=1e-12)

    # infinitely dominant labeled root -> 0
    roots = np.array([[0.0, -np.inf], [0.0, -np.inf]])
    assert rs.cross_entropy(roots, np.array([1, 1])) == 0.0

    # shift invariance and direct arithmetic
    for k in (0.0, -7.0, 123.0):
        roots = np.log(np.array([[0.9, 0.1]])) + k
        assert rs.cross_entropy(roots, np.array([1])) == pytest.approx(
            -np.log(0.9), abs=1e-10
        )

    with pytest.raises(InvalidInput):
        rs.cross_entropy(np.zeros((2, 2)), np.array([1, 3]))


def test_neg_log_likelihood_examples():
    roots = np.zeros((3, 2))
    assert rs.neg_log_likelihood(roots, np.array([1, 2, 1]), 5) == 0.0

    roots = np.array([[-8.0, 0.0], [0.0, -4.0]])
    labels = np.array([1, 2])
    assert rs.neg_log_likelihood(roots, labels, 4) == pytest.approx(1.5, abs=1e-12)
    assert rs.neg_log_likelihood(roots, labels, 8) == pytest.approx(0.75, abs=1e-12)


def test_hybrid_objective_identities(rng):
    roots = rng.normal(size=(6, 3))
    labels = rng.integers(1, 4, 6)
    ce = rs.cross_entropy(roots, labels)
    nll = rs.neg_log_likelihood(roots, labels, 7)
    assert rs.hybrid_objective(roots, labels, 7, 1.0) == ce
    assert rs.hybrid_objective(roots, labels, 7, 0.0) == nll
    mid = rs.hybrid_objective(roots, labels, 7, 0.5)
    assert mid == pytest.approx(0.5 * ce + 0.5 * nll, abs=1e-14)
    assert rs.hybrid_objective(roots, labels, 7, 0.25) == pytest.approx(
        0.25 * ce + 0.75 * nll, abs=1e-12
    )
    with pytest.raises(InvalidInput):
        rs.hybrid_objective(roots, labels, 7, 1.5)


def _zero_row_calls():
    circuit = rs.construct_circuit(rs.random_region_graph(4, 1, 1, seed=0), 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0)
    roots, labels, x = np.zeros((0, 2)), np.zeros(0, int), np.zeros((0, 4))
    some = rs.Dataset(np.zeros((3, 4)), np.array([1, 2, 1]))
    empty = rs.Dataset(x, labels)
    config = rs.TrainConfig(epochs=1)
    return {
        "cross_entropy": lambda: rs.cross_entropy(roots, labels),
        "neg_log_likelihood": lambda: rs.neg_log_likelihood(roots, labels, 4),
        "hybrid_objective": lambda: rs.hybrid_objective(roots, labels, 4, 0.5),
        "backward_gradients": lambda: rs.backward_gradients(circuit, params, x, labels, 0.5),
        "evaluate_metrics": lambda: rs.evaluate_metrics(circuit, params, x, labels, 0.5),
        "train-empty-train-set": lambda: rs.train(circuit, params, empty, None, config),
        "train-empty-valid-set": lambda: rs.train(circuit, params, some, empty, config),
    }


@pytest.mark.parametrize("call", list(_zero_row_calls()))
def test_zero_rows_are_a_caller_error_not_a_numeric_failure(call):
    # forward_log returns an empty table for 0 rows, but nothing averages over
    # 0 rows; the suite turns any warning on the way into an error
    with pytest.raises(InvalidInput, match="at least one sample"):
        _zero_row_calls()[call]()


# checked before the cast, which would truncate 1.5 to class 1
@pytest.mark.parametrize("labels", [[1.5, 2], [1e19, 1], [np.nan, 1]])
def test_labels_that_are_not_class_integers_are_a_caller_error(rng, labels):
    circuit = rs.construct_circuit(rs.random_region_graph(3, 1, 1, seed=0), 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0)
    batch = rng.normal(size=(2, 3))
    roots = rs.forward_log(circuit, params, batch)
    calls = (
        lambda: rs.cross_entropy(roots, labels),
        lambda: rs.neg_log_likelihood(roots, labels, 3),
        lambda: rs.backward_gradients(circuit, params, batch, labels, 0.5),
    )
    for call in calls:
        with pytest.raises(InvalidInput, match=r"labels must be integers in 1\.\.2"):
            call()


def _fd_check(circuit, params, batch, labels, lam, missing=None, sum_dropout=None,
              step=1e-4, tol=1e-4):
    grads, _ = rs.backward_gradients(
        circuit, params, batch, labels, lam, missing, sum_dropout
    )

    def objective(work):
        probe = rs.ParameterSet(params.layout, work["flat"])
        roots = rs.forward_log(circuit, probe, batch, missing, sum_dropout)
        return rs.hybrid_objective(roots, labels, circuit.num_vars, lam)

    approx = finite_diff_gradient(objective, {"flat": params.flat}, step)["flat"]
    analytic = grads.flat
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(approx)), 1e-2)
    worst = float((np.abs(analytic - approx) / denom).max())
    assert worst < tol, f"gradient mismatch {worst}"
    return grads


def test_gradients_match_finite_differences(rng):
    for lam in (0.0, 0.5, 1.0):
        circuit, params = random_circuit(rng, num_vars=int(rng.integers(2, 7)))
        params = randomize_params(params, rng, 0.4)
        batch = rng.normal(size=(5, circuit.num_vars))
        labels = rng.integers(1, circuit.classes_C + 1, 5)
        grads = _fd_check(circuit, params, batch, labels, lam)
        for logit_grad in block_matrices(circuit, grads, "sum_logits").values():
            assert np.abs(logit_grad.sum(axis=1)).max() < 1e-10


def test_gradients_with_trainable_variances(rng):
    graph = rs.random_region_graph(5, 2, 1, seed=8)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=1, train_variance=True)
    params = randomize_params(params, rng, 0.3)
    batch = rng.normal(size=(4, 5))
    labels = rng.integers(1, 3, 4)
    _fd_check(circuit, params, batch, labels, 0.5)


def test_gradients_with_bernoulli_leaves(rng):
    circuit, params = random_circuit(rng, num_vars=5, leaf_family="bernoulli")
    params = randomize_params(params, rng, 0.7)
    batch = rng.integers(0, 2, (6, 5)).astype(float)
    labels = rng.integers(1, circuit.classes_C + 1, 6)
    _fd_check(circuit, params, batch, labels, 0.5)


def test_gradients_respect_masks_and_dropout(rng):
    circuit, params = random_circuit(rng, num_vars=6)
    params = randomize_params(params, rng, 0.4)
    batch = rng.normal(size=(4, 6))
    labels = rng.integers(1, circuit.classes_C + 1, 4)
    missing = rng.random((4, 6)) < 0.4
    sum_dropout = rs.sample_sum_dropout_mask(circuit, 0.6, 4, rng)
    _fd_check(circuit, params, batch, labels, 0.5, missing, sum_dropout)

    # fully masked input under pure likelihood: constant objective, so all
    # leaf-mean gradients vanish exactly and logit gradients vanish to fp noise
    grads, obj = rs.backward_gradients(
        circuit, params, batch, labels, 0.0, np.ones((4, 6), bool)
    )
    assert obj == 0.0
    for arr in block_matrices(circuit, grads, "leaf_means").values():
        np.testing.assert_array_equal(arr, np.zeros_like(arr))
    for arr in block_matrices(circuit, grads, "sum_logits").values():
        assert np.abs(arr).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(sum_block_cases(max_n=6, max_k=12, max_s=4), st.integers(0, 2**32 - 1))
def test_sum_block_gradients_match_finite_differences(case, seed):
    values, logits, _ = case
    g = np.random.default_rng(seed).normal(size=(len(values), len(logits)))
    live = np.isfinite(sum_block_forward(block_kernel(values, logits)))

    def objective(work):
        out = sum_block_forward(block_kernel(work["values"], work["logits"]))
        return float((g * out)[live].sum())

    approx = finite_diff_gradient(objective, {"values": values, "logits": logits}, 1e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_values, d_logits = sum_block_backward(g, block_kernel(values, logits))
    np.testing.assert_allclose(d_values, approx["values"], rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(d_logits, approx["logits"], rtol=1e-5, atol=1e-6)

    # dropped columns and dead rows get exactly zero input gradient, and a
    # dead row's output gradient reaches nothing
    dropped = np.isneginf(values)
    assert np.all(d_values[dropped] == 0.0)
    dead = dropped.all(axis=1)
    g_dead = g.copy()
    g_dead[dead] = 1e300
    again_values, again_logits = sum_block_backward(g_dead, block_kernel(values, logits))
    np.testing.assert_array_equal(again_values, d_values)
    np.testing.assert_array_equal(again_logits, d_logits)



@pytest.mark.filterwarnings("error")
def test_sum_dropout_kernel_matches_the_minus_inf_formulation(rng):
    # dropping columns through the keep-mask gives bit for bit what writing
    # -inf into them does, forward and backward, in a dead row too
    values = rng.normal(0.0, 5.0, (3, 6, 10))
    logits = rng.normal(0.0, 2.0, (3, 4, 10))
    keep = rng.random(values.shape) < 0.6
    keep[..., 0] = True
    values[0, 1, 3:] = 1e300  # dropped columns far above the kept maximum
    keep[0, 1, 3:] = False
    values[1, 2] = -np.inf  # a dead row: every kept input is -inf
    values[1, 2, ~keep[1, 2]] = 7.0
    values[2, 3] = 0.0  # an equal row
    keep[2, 3] = True
    g = rng.normal(size=(3, 6, 4))

    kernel = block_kernel(values, logits, keep)
    dropped = np.where(keep, values, -np.inf)
    out = sum_block_forward(kernel)
    np.testing.assert_array_equal(out, sum_block_forward(block_kernel(dropped, logits)))
    assert np.isneginf(out[1, 2]).all() and np.all(out[2, 3] == 0.0)
    for got, want in zip(
        sum_block_backward(g, kernel), sum_block_backward(g, block_kernel(dropped, logits))
    ):
        np.testing.assert_array_equal(got, want)


def test_gradients_with_a_dead_row_in_an_inner_sum_block(rng):
    # one repetition loses a whole row of an inner sum block; the other
    # repetition keeps every root finite, so the objective stays finite
    graph = rs.random_region_graph(4, 2, 2, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = randomize_params(rs.init_parameters(circuit, seed=5), rng, 0.4)
    batch = rng.normal(size=(4, 4))
    labels = rng.integers(1, 3, 4)
    sum_dropout = rs.sample_sum_dropout_mask(circuit, 0.6, 4, rng)
    inner = [b for b in circuit.blocks if b.kind == "sum" and b is not circuit.root_block]
    assert len(inner) == 4  # the two repetitions split the root differently
    dead = inner[0]
    sum_dropout[dead.group][dead.position, 1] = False
    roots, tables, _ = rs.forward_log(
        circuit, params, batch, sum_dropout=sum_dropout, return_tables=True
    )
    assert np.isneginf(tables[dead.group][dead.position][1]).all()
    assert np.isfinite(roots).all()
    _fd_check(circuit, params, batch, labels, 0.5, None, sum_dropout)


@settings(max_examples=40, deadline=None)
@given(
    num_vars=st.integers(2, 8),
    leaf_family=st.sampled_from(["gaussian", "bernoulli"]),
    batch_size=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
)
def test_masked_inputs_get_exactly_zero_gradient(num_vars, leaf_family, batch_size, seed):
    rng = np.random.default_rng(seed)
    circuit, params = random_circuit(rng, num_vars=num_vars, leaf_family=leaf_family)
    params = randomize_params(params, rng, 0.5)
    batch = rng.integers(0, 2, (batch_size, num_vars)).astype(float)
    labels = rng.integers(1, circuit.classes_C + 1, batch_size)
    missing = rng.random((batch_size, num_vars)) < 0.3
    hidden = rng.random(num_vars) < 0.5  # masked in every row
    missing[:, hidden] = True
    sum_dropout = rs.sample_sum_dropout_mask(circuit, 0.5, batch_size, rng)
    grads, _ = rs.backward_gradients(
        circuit, params, batch, labels, 0.5, missing, sum_dropout
    )
    name = "leaf_means" if leaf_family == "gaussian" else "leaf_logits"
    leaf_grads = block_matrices(circuit, grads, name)
    for block in (b for b in circuit.blocks if b.kind == "leaf"):
        columns = hidden[list(block.scope)]
        assert np.all(leaf_grads[block.index][:, columns] == 0.0)
    assert np.isfinite(grads.flat).all()



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("leaf_family", ["gaussian", "bernoulli"])
def test_masked_entries_add_exactly_zero_to_gradients(rng, leaf_family):
    # variable 2 is masked in every row: a NaN value there and a parameter of
    # 1e200 (squared distance overflows) leave every gradient unchanged
    graph = rs.random_region_graph(6, 2, 2, seed=1)
    circuit = rs.construct_circuit(graph, 2, 2, 2, leaf_family)
    params = randomize_params(
        rs.init_parameters(circuit, seed=2, train_variance=leaf_family == "gaussian"), rng, 0.4
    )
    batch = rng.integers(0, 2, (5, 6)).astype(float)
    labels = rng.integers(1, 3, 5)
    missing = rng.random((5, 6)) < 0.3
    missing[:, 2] = True
    name = "leaf_means" if leaf_family == "gaussian" else "leaf_logits"
    wild = params.flat.copy()
    columns = np.zeros(params.flat.shape, bool)
    for block in (b for b in circuit.blocks if b.kind == "leaf" and 2 in b.scope):
        group = circuit.plan[block.group]
        column = block.scope.index(2)
        params.stacked(name, group, wild)[block.position][:, column] = 1e200
        params.stacked(name, group, columns)[block.position][:, column] = True
    wild_batch = batch.copy()
    wild_batch[:, 2] = np.nan

    grads, objective = rs.backward_gradients(circuit, params, batch, labels, 0.5, missing)
    wild_grads, wild_objective = rs.backward_gradients(
        circuit, rs.ParameterSet(params.layout, wild), wild_batch, labels, 0.5, missing
    )
    assert columns.any() and wild_objective == objective
    np.testing.assert_array_equal(wild_grads.flat, grads.flat)
    assert np.all(grads.flat[columns] == 0.0)


def test_non_finite_objective_raises_with_diagnostics(rng):
    graph = rs.random_region_graph(4, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0)
    batch = rng.normal(size=(3, 4))
    labels = np.array([1, 2, 1])
    # kill every root input column for one sample, bypassing the keep-one guard
    root = circuit.root_block
    keep = np.ones((1, 3, sum(b.width for b in root.inputs)), bool)
    keep[0, 0, :] = False
    with pytest.raises(NumericFailure) as excinfo:
        rs.backward_gradients(
            circuit, params, batch, labels, 1.0, sum_dropout={root.group: keep}
        )
    assert any("-inf" in note for note in excinfo.value.diagnostics)
    assert any("Block#" in note for note in excinfo.value.diagnostics)


def test_input_dropout_mask_sampler(rng):
    mask = rs.sample_input_dropout_mask(7, 5, 1.0, rng)
    assert not mask.any()  # keep everything at rate 1.0

    big = rs.sample_input_dropout_mask(100, 1000, 0.7, np.random.default_rng(0))
    kept = 1.0 - big.mean()
    assert abs(kept - 0.7) < 0.01

    a = rs.sample_input_dropout_mask(9, 4, 0.5, np.random.default_rng(33))
    b = rs.sample_input_dropout_mask(9, 4, 0.5, np.random.default_rng(33))
    np.testing.assert_array_equal(a, b)


def test_sum_dropout_sampler(rng):
    graph = rs.random_region_graph(8, 1, 2, seed=12)
    circuit = rs.construct_circuit(graph, 2, 2, 2)  # root has 2*4=8 columns

    none_dropped = rs.sample_sum_dropout_mask(circuit, 1.0, 6, rng)
    assert all(m.all() for m in none_dropped.values())

    # a 4-column region at keep rate 0.5: conditional mean 2/(1 - 0.5^4),
    # and the keep-one guard means no row is ever empty
    graph4 = rs.random_region_graph(4, 1, 1, seed=3)
    circuit4 = rs.construct_circuit(graph4, 1, 2, 2)
    root = circuit4.root_block.group  # the root's group has one member
    counts = []
    sampler_rng = np.random.default_rng(7)
    for _ in range(400):
        mask = rs.sample_sum_dropout_mask(circuit4, 0.5, 25, sampler_rng)[root][0]
        kept = mask.sum(axis=1)
        assert kept.min() >= 1
        counts.append(kept.mean())
    assert np.mean(counts) == pytest.approx(2.0 / (1 - 0.5**4), abs=0.03)

    a = rs.sample_sum_dropout_mask(circuit, 0.5, 4, np.random.default_rng(5))
    b = rs.sample_sum_dropout_mask(circuit, 0.5, 4, np.random.default_rng(5))
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def test_sum_dropout_sampler_draws_group_by_group():
    # one (G, N, K) draw per sum group that reads products, in plan order,
    # each followed by that group's redraws of empty rows
    graph = rs.random_region_graph(9, 2, 3, seed=4)
    circuit = rs.construct_circuit(graph, 3, 2, 2)
    sampler_rng = np.random.default_rng(9)
    masks = rs.sample_sum_dropout_mask(circuit, 0.2, 5, sampler_rng)
    groups = [group for group in circuit.plan if group.runs]
    assert len(groups) > 1
    assert list(masks) == [group.index for group in groups]
    rng = np.random.default_rng(9)
    redraws = 0
    for group in groups:
        shape = (len(group.blocks), 5, group.columns)
        keep = rng.random(shape) < 0.2
        while not keep.any(axis=2).all():
            dead = ~keep.any(axis=2)
            keep[dead] = rng.random((int(dead.sum()), shape[2])) < 0.2
            redraws += 1
        np.testing.assert_array_equal(masks[group.index], keep)
    assert redraws > 0
    assert sampler_rng.random() == rng.random()  # nothing else was drawn

    # a single-variable root mixes leaves: nothing to drop, nothing drawn
    single = rs.construct_circuit(rs.random_region_graph(1, 1, 1, seed=0), 2, 2, 2)
    rng = np.random.default_rng(9)
    assert rs.sample_sum_dropout_mask(single, 0.2, 5, rng) == {}
    assert rng.random() == np.random.default_rng(9).random()


def test_dropping_all_but_one_product(rng):
    # with a single survivor the mixture reduces to log-weight + survivor
    graph = rs.random_region_graph(2, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 1, 1, 2)
    params = randomize_params(rs.init_parameters(circuit, seed=2), rng)
    batch = rng.normal(size=(3, 2))
    root = circuit.root_block
    keep = np.zeros((1, 3, 4), bool)
    keep[..., 2] = True
    roots = rs.forward_log(circuit, params, batch, sum_dropout={root.group: keep})

    _, tables, _ = rs.forward_log(circuit, params, batch, return_tables=True)
    left, right = (tables[b.group][b.position] for b in root.inputs[0].inputs)
    product = (left[:, :, None] + right[:, None, :]).reshape(len(batch), -1)
    logits = block_matrices(circuit, params, "sum_logits")[root.index][0]
    log_w = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
    np.testing.assert_allclose(roots[:, 0], log_w[2] + product[:, 2], atol=1e-10)


def test_adam_first_step_and_determinism():
    config = rs.TrainConfig(lam=1.0, epochs=1, learning_rate=1e-3)
    layout = (ParamTensor("sum_logits", 0, 0, (1, 1, 2)),)
    params = rs.ParameterSet(layout, np.array([0.5, -0.5]))
    grads = rs.ParameterSet(layout, np.array([0.2, -3.0]))
    state = AdamState.initial(params)
    updated, state = rs.adam_step(params, grads, state, config)
    g = grads.flat
    expected = params.flat - config.learning_rate * g / (np.abs(g) + config.epsilon)
    np.testing.assert_allclose(updated.flat, expected, atol=1e-15)
    assert state.step == 1

    # zero gradient on a fresh optimizer: parameter untouched, counter advances
    zero = rs.ParameterSet(layout, np.zeros(2))
    updated2, fresh = rs.adam_step(params, zero, AdamState.initial(params), config)
    np.testing.assert_array_equal(updated2.flat, params.flat)
    assert fresh.step == 1

    with pytest.raises(NumericFailure, match="sum_logits of plan group 0, member 0$"):
        bad = rs.ParameterSet(layout, np.array([np.nan, 0.0]))
        rs.adam_step(params, bad, AdamState.initial(params), config)


def test_a_non_finite_gradient_names_its_plan_group_and_member():
    graph = rs.random_region_graph(8, 2, 2, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0, train_variance=True)
    for tensor in params.layout:
        for block in circuit.plan[tensor.group].blocks[1:]:
            grad = params.flat * 0.0
            matrix = params.stacked(tensor.name, circuit.plan[block.group], grad)[block.position]
            matrix[-1, -1] = np.inf
            where = f"{tensor.name} of plan group {block.group}, member {block.position}$"
            with pytest.raises(NumericFailure, match=where):
                rs.adam_step(
                    params, rs.ParameterSet(params.layout, grad), AdamState.initial(params),
                    rs.TrainConfig(),
                )


def test_adam_runs_are_bit_identical(rng):
    circuit, params = random_circuit(rng, num_vars=4)
    batch = rng.normal(size=(8, 4))
    labels = rng.integers(1, circuit.classes_C + 1, 8)
    config = rs.TrainConfig(lam=0.5, epochs=1)

    def run():
        p = params
        state = AdamState.initial(p)
        for _ in range(5):
            grads, _ = rs.backward_gradients(circuit, p, batch, labels, config.lam)
            p, state = rs.adam_step(p, grads, state, config)
        return p

    a, b = run(), run()
    np.testing.assert_array_equal(a.flat, b.flat)


def test_objective_decreases_on_convex_toy():
    # one sum node over a single variable: objective convex in the weights
    graph = rs.random_region_graph(1, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 1, 1, 3)
    params = rs.init_parameters(circuit, seed=4)
    block = circuit.root_block.inputs[0]
    flat = params.flat.copy()
    means = params.stacked("leaf_means", circuit.plan[block.group], flat)[block.position]
    means[:] = np.array([[-1.0], [0.0], [2.0]])
    params = rs.ParameterSet(params.layout, flat)
    rng = np.random.default_rng(1)
    batch = rng.normal(0.5, 1.0, (50, 1))
    labels = np.ones(50, dtype=int)
    config = rs.TrainConfig(lam=0.0, epochs=1, learning_rate=1e-4)
    state = AdamState.initial(params)
    values = []
    for _ in range(10):
        grads, obj = rs.backward_gradients(circuit, params, batch, labels, 0.0)
        values.append(obj)
        params, state = rs.adam_step(params, grads, state, config)
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_train_config_validation():
    with pytest.raises(InvalidInput):
        rs.TrainConfig(lam=1.5)
    with pytest.raises(InvalidInput):
        rs.TrainConfig(input_keep=0.0)
    with pytest.raises(InvalidInput):
        rs.TrainConfig(batch_size=0)
    for name, value in [
        ("learning_rate", np.nan), ("learning_rate", 0.0), ("learning_rate", np.inf),
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", np.nan),
        ("epsilon", 0.0), ("epsilon", np.inf), ("seed", -1),
    ]:
        with pytest.raises(InvalidInput, match=name):
            rs.TrainConfig(**{name: value})
    rs.TrainConfig(beta1=0.0, beta2=0.0)


@pytest.mark.filterwarnings("error")
def test_a_non_finite_update_names_its_plan_group_and_member():
    layout = (ParamTensor("sum_logits", 0, 0, (1, 1, 2)),)
    params = rs.ParameterSet(layout, np.array([-1e308, 0.0]))
    grads = rs.ParameterSet(layout, np.array([1.0, 0.0]))
    config = rs.TrainConfig(learning_rate=1e308)
    with pytest.raises(NumericFailure, match="updated value .* plan group 0, member 0$"):
        rs.adam_step(params, grads, AdamState.initial(params), config)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_second_moment_fails_instead_of_freezing_a_parameter():
    # g * g of a finite gradient above ~1.3e154 overflows: an infinite second
    # moment would make every later update of that entry m_hat / inf = 0
    layout = (ParamTensor("sum_logits", 0, 0, (2, 1, 1)),)
    params = rs.ParameterSet(layout, np.array([0.5, 0.5]))
    config = rs.TrainConfig()

    def run(first_gradient):
        p, state = params, AdamState.initial(params)
        for g in [first_gradient] + [[1.0, 1.0]] * 3:
            p, state = rs.adam_step(p, rs.ParameterSet(layout, np.array(g)), state, config)
        return p

    with pytest.raises(NumericFailure, match="second moment .* plan group 0, member 0$"):
        run([1e160, 1.0])
    # just below the overflow both entries keep moving
    assert np.all(run([1e150, 1.0]).flat < params.flat)


@pytest.mark.filterwarnings("error")
def test_softmax_gives_an_overflowing_logit_gap_weight_zero():
    np.testing.assert_array_equal(softmax(np.array([[1e308, -1e308, 1e308]])), [[0.5, 0.0, 0.5]])


def test_train_zero_epochs_returns_params_unchanged(rng):
    circuit, params = random_circuit(rng, num_vars=4)
    data = rs.Dataset(
        features=rng.normal(size=(20, 4)),
        labels=rng.integers(1, circuit.classes_C + 1, 20),
    )
    trained, metrics = rs.train(
        circuit, params, data, None, rs.TrainConfig(epochs=0)
    )
    assert metrics == []
    np.testing.assert_array_equal(params.flat, trained.flat)


def _blob_dataset(n=200, num_vars=4, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0] * num_vars, [2.0] * num_vars])
    labels = 1 + (np.arange(n) % 2)
    rng.shuffle(labels)
    features = centers[labels - 1] + rng.normal(0, 0.4, (n, num_vars))
    return rs.Dataset(features=features, labels=labels)


def test_train_separable_blobs_discriminative():
    data = _blob_dataset()
    graph = rs.random_region_graph(4, 2, 2, seed=1)
    circuit = rs.construct_circuit(graph, 2, 3, 3)
    params = rs.init_parameters(circuit, seed=1, feature_stats=data.feature_stats())
    config = rs.TrainConfig(lam=1.0, epochs=50, batch_size=50, seed=0)
    _, metrics = rs.train(circuit, params, data, None, config)
    assert max(row["train_accuracy"] for row in metrics) >= 0.99


def test_train_generative_nll_decreases():
    data = _blob_dataset()
    graph = rs.random_region_graph(4, 2, 2, seed=1)
    circuit = rs.construct_circuit(graph, 2, 3, 3)
    params = rs.init_parameters(circuit, seed=1, feature_stats=data.feature_stats())
    config = rs.TrainConfig(lam=0.0, epochs=5, batch_size=50, seed=0)
    _, metrics = rs.train(circuit, params, data, None, config)
    nils = [row["nll"] for row in metrics]
    assert all(b <= a + 1e-3 for a, b in zip(nils, nils[1:]))


@pytest.mark.parametrize(
    "dropout",
    [{}, {"input_keep": 0.9, "sum_keep": 0.75}],
    ids=["no-dropout", "dropout"],
)
def test_train_is_deterministic_and_supports_warm_start(dropout):
    data = _blob_dataset(n=60)
    graph = rs.random_region_graph(4, 1, 2, seed=5)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=3)
    config = rs.TrainConfig(lam=1.0, epochs=3, batch_size=30, seed=11, **dropout)

    p1, m1 = rs.train(circuit, params, data, None, config)
    p2, m2 = rs.train(circuit, params, data, None, config)
    assert m1 == m2
    np.testing.assert_array_equal(p1.flat, p2.flat)

    # warm start at a different trade-off continues from the trained state
    post = rs.TrainConfig(lam=0.0, epochs=2, batch_size=30, seed=12)
    p3, m3 = rs.train(circuit, p1, data, None, post)
    assert len(m3) == 2
    assert m3[0]["nll"] <= m1[-1]["nll"] + 0.05


@pytest.mark.filterwarnings("error")
def test_overflowing_observation_fails_training_with_numeric_failure(rng):
    circuit, params = random_circuit(rng, num_vars=4)
    batch = rng.normal(size=(3, 4))
    batch[1, 2] = 1e160
    labels = rng.integers(1, circuit.classes_C + 1, 3)
    for lam in (0.0, 0.2, 1.0):
        with pytest.raises(NumericFailure) as excinfo:
            rs.backward_gradients(circuit, params, batch, labels, lam)
        assert any("Block#" in note for note in excinfo.value.diagnostics)


def test_shared_child_regions_and_two_leaf_groups():
    # the two things a compiled plan can get wrong: a child region read by
    # two partitions (its gradient must sum both), and a layer split into
    # groups of different shapes (leaf scopes of sizes 1 and 2)
    graph = rs.random_region_graph(5, 2, 4, seed=0)
    parents = Counter(child.index for p in graph.partitions for child in p.children)
    assert sum(count >= 2 for count in parents.values()) == 4
    assert {len(r.scope) for r in graph.regions if not partitions_of(graph, r)} == {1, 2}
    rng = np.random.default_rng(11)

    circuit = rs.construct_circuit(graph, 2, 2, 2)
    assert [g.kind for g in circuit.plan].count("leaf") == 2
    assert not all(unique for g in circuit.plan for _, _, unique in g.reads)
    params = randomize_params(rs.init_parameters(circuit, seed=3, train_variance=True), rng, 0.4)
    batch = rng.normal(size=(4, 5))
    labels = rng.integers(1, 3, 4)
    missing = rng.random((4, 5)) < 0.3
    sum_dropout = rs.sample_sum_dropout_mask(circuit, 0.7, 4, rng)
    _fd_check(circuit, params, batch, labels, 0.5, missing, sum_dropout)

    bernoulli = rs.construct_circuit(graph, 2, 2, 2, "bernoulli")
    params = randomize_params(rs.init_parameters(bernoulli, seed=3), rng)
    oracle = load_model_dict(rs.model_to_dict(bernoulli, params))
    X = np.array(enumerate_assignments(5), dtype=float)
    expected = np.log([oracle.evaluate(list(x)) for x in X])
    np.testing.assert_allclose(rs.forward_log(bernoulli, params, X), expected, atol=1e-9)


def _factor_gradients_by_width_sums(circuit, tables, group, d_x):
    """The table gradients ``_factor_gradients`` gives, as reductions over the widths."""
    grads = [None] * len(circuit.plan)
    size, n, _ = d_x.shape
    for run in group.runs:
        d = d_x[..., run.columns].reshape((size, n) + run.shape)
        for (read, slots), axis in ((run.left, 4), (run.right, 3)):
            src, at, _ = group.reads[read]
            if grads[src] is None:
                grads[src] = np.zeros_like(tables[src])
            np.add.at(grads[src], at[:, slots], d.sum(axis=axis).transpose(0, 2, 1, 3))
    return grads


# id: (random_region_graph arguments, construct_circuit C, S, I, what the case covers)
_FACTOR_CASES = {
    "desk": ((64, 2, 8, 1), (10, 8, 8), lambda g: any(r.shape[0] > 1 for r in g.runs)),
    "shared-child": ((5, 2, 4, 0), (2, 2, 2), lambda g: not all(u for _, _, u in g.reads)),
    "several-runs": ((5, 3, 3, 3), (2, 3, 2), lambda g: len(g.runs) > 1),
}


@pytest.mark.parametrize("graph_args, sizes, covers", [
    pytest.param(*case, id=k) for k, case in _FACTOR_CASES.items()
])
def test_factor_gradient_contractions_equal_width_sums(graph_args, sizes, covers):
    # desk: a group with one partition and the root run over 8 partitions;
    # shared-child: a child read twice (the add.at path); several-runs: a
    # group whose runs are column slices, not all of d_x
    circuit = rs.construct_circuit(rs.random_region_graph(*graph_args), *sizes)
    rng = np.random.default_rng(5)
    params = randomize_params(rs.init_parameters(circuit, seed=1), rng, 0.5)
    batch = rng.normal(size=(7, circuit.num_vars))
    _, tables, kernels = rs.forward_log(circuit, params, batch, return_tables=True)
    groups = [group for group in circuit.plan if group.runs]
    assert any(covers(group) for group in groups)
    for group in groups:
        d_x = rng.normal(size=kernels[group.index].e.shape)
        got = [None] * len(circuit.plan)
        _factor_gradients(got, tables, group, d_x)
        want = _factor_gradients_by_width_sums(circuit, tables, group, d_x)
        assert [g is None for g in got] == [w is None for w in want]
        for g, w in zip(got, want):
            if w is not None:
                np.testing.assert_allclose(g, w, rtol=1e-13)


def _leaf_gradients_per_node(circuit, params, group, g, batch, missing):
    """{parameter name: (G, I, d)} gradients of a leaf group, term by term."""
    terms = params.terms(group)
    x = batch[:, group.scope] - params.centre[group.scope]  # (N, G, d), centred as the means are
    observed = np.ones_like(x) if missing is None else ~missing[:, group.scope]
    name = "leaf_logits" if circuit.leaf_family == "bernoulli" else "leaf_means"
    centers, inv_var = terms.means, terms.inv_variances
    x, observed = x[:, :, None], observed[:, :, None]  # (N, G, 1, d)
    diff = (x - centers) * observed  # (N, G, I, d)
    scaled = diff * inv_var
    grads = {name: np.einsum("gni,ngiv->giv", g, scaled)}
    if params.train_variance:
        active = terms.variances > VARIANCE_FLOOR
        halves = 0.5 * (diff * scaled - observed)
        grads["leaf_log_vars"] = np.einsum("gni,ngiv->giv", g, halves) * active
    return grads


@pytest.mark.parametrize("leaf_family, train_variance", [
    ("gaussian", False), ("gaussian", True), ("bernoulli", False),
])
@pytest.mark.parametrize("masked", [False, True])
def test_leaf_gradient_contractions_equal_the_per_node_formula(
    leaf_family, train_variance, masked
):
    graph = rs.random_region_graph(12, 2, 3, seed=2)
    circuit = rs.construct_circuit(graph, 3, 3, 4, leaf_family)
    rng = np.random.default_rng(7)
    params = rs.init_parameters(circuit, seed=4, train_variance=train_variance)
    params = randomize_params(params, rng, 0.5)
    if leaf_family == "bernoulli":
        batch = rng.integers(0, 2, (9, 12)).astype(float)
    else:
        batch = rng.normal(size=(9, 12))
    missing = None
    if masked:
        missing = rng.random((9, 12)) < 0.3
        missing[2] = True  # a fully masked row
    _, tables, kernels = rs.forward_log(circuit, params, batch, missing, return_tables=True)
    for group in (group for group in circuit.plan if group.kind == "leaf"):
        g = np.zeros_like(tables[group.index])  # the layout of a table gradient
        g[...] = rng.normal(size=g.shape)
        d_flat = np.zeros_like(params.flat)
        _leaf_gradients(params, d_flat, group, g, kernels[group.index])
        want = _leaf_gradients_per_node(circuit, params, group, g, batch, missing)
        assert len(want) == 1 + train_variance
        for name, value in want.items():
            np.testing.assert_allclose(params.stacked(name, group, d_flat), value, rtol=1e-12)


def test_backward_pass_memory_budget():
    # tracemalloc peak of one training step's forward and backward at the
    # desk config with both dropouts: 4.87 MiB with a product table per
    # product group, 2.52 MiB with products folded into the sums, and 2.61
    # MiB both before and after the factor and leaf gradients became
    # contractions over the batch. A larger transient makes the allocator
    # return and re-fault pages on every call.
    import tracemalloc

    graph = rs.random_region_graph(64, 2, 8, seed=1)
    circuit = rs.construct_circuit(graph, 10, 8, 8)
    params = rs.init_parameters(circuit, seed=1)
    rng = np.random.default_rng(0)
    batch = rng.random((100, 64))
    labels = rng.integers(1, 11, 100)
    missing = rs.sample_input_dropout_mask(64, 100, 0.9, rng)
    sum_dropout = rs.sample_sum_dropout_mask(circuit, 0.75, 100, rng)
    rs.backward_gradients(circuit, params, batch, labels, 0.2, missing, sum_dropout)
    tracemalloc.start()
    try:
        rs.backward_gradients(circuit, params, batch, labels, 0.2, missing, sum_dropout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0 * 2**20, f"peak {peak / 2**20:.2f} MiB"
