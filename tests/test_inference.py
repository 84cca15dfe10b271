import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import logsumexp as reference_logsumexp

import randspn as rs
from randspn.circuit import sum_terms
from randspn.errors import InvalidInput
from randspn.inference import check_log_prior, logsumexp, rows_per_pass, sum_block_forward
from randspn.tiles import TILE, tile_matmul
from randspn.training import sum_block_backward
from randspn.oracle import enumerate_assignments
from conftest import (
    block_kernel,
    partitions_of,
    plan_members,
    quadrature_mass_2d,
    random_circuit,
    randomize_params,
    region_matrices,
    sum_block_cases,
)


def test_weighted_sum_matches_linear_arithmetic():
    # one sum, weights (0.5, 0.5), children ln 0.2 and ln 0.4 -> ln 0.3
    values = np.log(np.array([[0.2, 0.4]]))
    log_w = np.log(np.array([[0.5, 0.5]]))
    out = logsumexp(values[:, None, :] + log_w[None, :, :])
    assert out[0, 0] == pytest.approx(np.log(0.3), abs=1e-12)


def test_weighted_logsumexp_handles_all_neg_inf():
    values = np.full((2, 3), -np.inf)
    log_w = np.log(np.full((1, 3), 1 / 3))
    out = logsumexp(values[:, None, :] + log_w[None, :, :])
    assert np.all(np.isneginf(out))
    assert not np.isnan(out).any()


def test_all_missing_roots_are_zero(rng):
    circuit, params = random_circuit(rng)
    params = randomize_params(params, rng)
    batch = rng.normal(size=(4, circuit.num_vars))
    roots = rs.forward_log(circuit, params, batch, missing=np.ones_like(batch, bool))
    np.testing.assert_array_equal(roots, np.zeros_like(roots))


def _all_missing_log_px(graph, leaf_family, batch_size):
    circuit = rs.construct_circuit(graph, 10, 8, 8, leaf_family)
    params = rs.init_parameters(circuit, seed=1)
    batch = np.zeros((batch_size, graph.num_vars))
    return rs.log_marginal_input(
        circuit, params, batch, missing=np.ones_like(batch, bool)
    )


@pytest.mark.parametrize("leaf_family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("batch_size", [*range(1, 17), 1100])
def test_all_missing_log_px_is_exactly_zero(leaf_family, batch_size):
    # desk configuration: with more than one row, some sum blocks receive
    # column-major input tables, which must not change the cancellation
    graph = rs.random_region_graph(64, 2, 8, seed=1)
    log_px = _all_missing_log_px(graph, leaf_family, batch_size)
    assert np.all(log_px == 0.0)


@pytest.mark.parametrize("leaf_family", ["gaussian", "bernoulli"])
@pytest.mark.parametrize("batch_size", range(1, 17))
def test_all_missing_log_px_is_exactly_zero_with_two_leaf_groups(leaf_family, batch_size):
    # uneven splits: sums fold factors from two leaf groups and shared regions
    graph = rs.random_region_graph(5, 2, 4, seed=0)
    log_px = _all_missing_log_px(graph, leaf_family, batch_size)
    assert np.all(log_px == 0.0)


def _reference_sum_block(values, logits):
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        joint = reference_logsumexp(values[:, None, :] + logits[None], axis=-1)
        return joint - reference_logsumexp(logits, axis=-1)[None, :]


def _f_ordered_case():
    """An F-ordered (N, K) input, as a transposed table is, with two constant rows."""
    rng = np.random.default_rng(5)
    values = rng.normal(0.0, 3.0, (3, 64))
    values[0], values[2] = 0.0, 3.7
    logits = rng.uniform(-25.0, 25.0, (10, 64))
    return np.asfortranarray(values), logits, np.array([True, False, True])


@settings(max_examples=200, deadline=None)
@given(sum_block_cases())
# a ones row of e must be row-major whatever the layout of the inputs, or p
# comes from another GEMM variant than q and loses p == q
@example(_f_ordered_case())
def test_sum_block_forward_matches_reference_lse(case):
    values, logits, constant = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sum_block_forward(block_kernel(values, logits))
    expected = _reference_sum_block(values, logits)
    assert got.shape == expected.shape
    assert not np.isnan(got).any()
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-12, atol=1e-12)
    # a mixture of equal components is that component, bit for bit
    np.testing.assert_array_equal(
        got[constant], np.broadcast_to(values[constant, :1], got[constant].shape)
    )


@settings(max_examples=40, deadline=None)
@given(
    num_vars=st.integers(1, 8),
    depth=st.integers(1, 3),
    repetitions=st.integers(1, 4),
    sums=st.integers(1, 4),
    leaves=st.integers(1, 4),
    classes=st.integers(1, 4),
    leaf_family=st.sampled_from(["gaussian", "bernoulli"]),
    batch_size=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)
def test_all_missing_log_px_is_exactly_zero_on_random_circuits(
    num_vars, depth, repetitions, sums, leaves, classes, leaf_family, batch_size, seed
):
    rng = np.random.default_rng(seed)
    graph = rs.random_region_graph(num_vars, depth, repetitions, seed)
    circuit = rs.construct_circuit(graph, classes, sums, leaves, leaf_family)
    params = randomize_params(rs.init_parameters(circuit, seed=seed), rng, 2.0)
    batch = rng.integers(0, 2, (batch_size, num_vars)).astype(float)
    log_px = rs.log_marginal_input(
        circuit, params, batch, missing=np.ones_like(batch, bool)
    )
    assert np.all(log_px == 0.0)


def test_shape_mismatch_rejected(rng):
    circuit, params = random_circuit(rng, num_vars=5)
    with pytest.raises(InvalidInput):
        rs.forward_log(circuit, params, np.zeros((2, 4)))
    with pytest.raises(InvalidInput):
        rs.forward_log(circuit, params, np.zeros((2, 5)), missing=np.zeros((3, 5), bool))


@pytest.mark.parametrize("mask_rows", [505, 495])
def test_a_mask_is_checked_against_the_whole_batch_not_each_pass(mask_rows):
    # a mask of the wrong height must fail even though every pass's slice of
    # it would have the pass's shape (the first 495 rows cover whole passes)
    circuit = rs.construct_circuit(rs.random_region_graph(64, 2, 8, seed=1), 10, 8, 8)
    params = rs.init_parameters(circuit, seed=1)
    assert rs.inference.rows_per_pass(circuit) < 500
    batch = np.random.default_rng(0).random((500, 64))
    with pytest.raises(InvalidInput, match="missing mask shape"):
        rs.forward_log(circuit, params, batch, missing=np.zeros((mask_rows, 64), bool))


def test_a_nan_is_marginalized_when_masked_and_rejected_when_observed():
    # the finiteness check runs per pass, after masking: a NaN in a later
    # pass is rejected all the same, and a masked one acts as any value
    circuit = rs.construct_circuit(rs.random_region_graph(64, 2, 8, seed=1), 10, 8, 8)
    params = rs.init_parameters(circuit, seed=1)
    batch = np.random.default_rng(0).random((500, 64))
    missing = np.zeros(batch.shape, bool)
    missing[450, 3] = True
    want = rs.forward_log(circuit, params, batch, missing)
    batch[450, 3] = np.nan
    np.testing.assert_array_equal(rs.forward_log(circuit, params, batch, missing), want)
    with pytest.raises(InvalidInput, match="observed values must be finite"):
        rs.forward_log(circuit, params, batch)


def test_bernoulli_observations_outside_0_and_1_are_rejected_once_per_query(monkeypatch):
    # an observed 0.5 would read as 0.5 log p + 0.5 log q, where the oracle
    # gives log(1 - p): it is rejected, in a later pass too, by one check
    circuit = rs.construct_circuit(rs.random_region_graph(64, 2, 8, seed=1), 10, 8, 8, "bernoulli")
    params = rs.init_parameters(circuit, seed=1)
    assert rs.inference.rows_per_pass(circuit) < 500
    batch = (np.random.default_rng(0).random((500, 64)) < 0.5).astype(float)
    missing = np.zeros(batch.shape, bool)
    missing[450, 3] = True
    want = rs.forward_log(circuit, params, batch, missing)
    batch[450, 3] = 0.5
    np.testing.assert_array_equal(rs.forward_log(circuit, params, batch, missing), want)
    calls = []
    check = rs.inference.check_support
    monkeypatch.setattr(rs.inference, "check_support", lambda *args: calls.append(check(*args)))
    with pytest.raises(InvalidInput, match="Bernoulli observations must be 0 or 1"):
        rs.forward_log(circuit, params, batch)
    assert calls == []  # the one call raised
    rs.forward_log(circuit, params, batch, missing)
    assert len(calls) == 1
    query = np.zeros(batch.shape, bool)
    query[:, 0] = True
    evidence = np.zeros(batch.shape, bool)
    evidence[:, 1] = True
    rs.conditional_log(circuit, params, batch, query, evidence)  # 0.5 is outside both
    evidence[450, 3] = True
    with pytest.raises(InvalidInput, match="Bernoulli observations must be 0 or 1"):
        rs.conditional_log(circuit, params, batch, query, evidence)


def test_sum_dropout_masks_are_checked():
    graph = rs.random_region_graph(4, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=0)
    batch = np.zeros((3, 4))
    root = circuit.plan[-1]
    leaf = next(g for g in circuit.plan if g.kind == "leaf")
    keep = np.ones((1, 3, root.columns), bool)
    np.testing.assert_array_equal(
        rs.forward_log(circuit, params, batch, sum_dropout={root.index: keep}),
        rs.forward_log(circuit, params, batch),
    )
    np.testing.assert_array_equal(
        rs.forward_log(circuit, params, batch, sum_dropout={}),
        rs.forward_log(circuit, params, batch),
    )
    for key in (leaf.index, len(circuit.plan), -1, "root"):  # not a sum group
        with pytest.raises(InvalidInput, match="not a sum group"):
            rs.forward_log(circuit, params, batch, sum_dropout={key: keep})
    for mask in (
        keep[0],  # (N, K) would broadcast across the group's members
        keep[:, :2],  # not one row per sample
        keep[..., 1:],  # not one column per input
        keep.astype(float),
        keep.tolist(),
    ):
        with pytest.raises(InvalidInput, match="bool array of shape"):
            rs.forward_log(circuit, params, batch, sum_dropout={root.index: mask})


def test_log_joint_and_priors(rng):
    circuit, params = random_circuit(rng, num_vars=4, max_dims={"classes": 2})
    while circuit.classes_C != 2:
        circuit, params = random_circuit(rng, num_vars=4, max_dims={"classes": 2})
    batch = rng.normal(size=(3, 4))
    roots = rs.forward_log(circuit, params, batch)

    uniform = rs.uniform_log_prior(2)
    joint = rs.log_joint(circuit, params, batch, uniform)
    np.testing.assert_allclose(joint, roots - np.log(2), atol=1e-12)

    with np.errstate(divide="ignore"):
        degenerate = np.log(np.array([1.0, 0.0]))
    joint = rs.log_joint(circuit, params, batch, degenerate)
    assert np.all(np.isneginf(joint[:, 1]))

    skew = np.log(np.array([0.9, 0.1]))
    joint = rs.log_joint(circuit, params, batch, skew)
    np.testing.assert_allclose(joint, roots + skew[None, :], atol=1e-12)

    with pytest.raises(InvalidInput):
        rs.log_joint(circuit, params, batch, np.log(np.array([0.8, 0.1])))
    # the finite entries sum to 1, but NaN and +inf are not log-probabilities
    for bad in ([np.log(0.5), np.log(0.5), np.nan], [0.0, np.inf, -np.inf]):
        with pytest.raises(InvalidInput, match="NaN or \\+inf"):
            check_log_prior(bad, 3)


def test_classify_tie_break_and_argmax(rng):
    circuit, params = random_circuit(rng, num_vars=3, max_dims={"classes": 3})
    batch = rng.normal(size=(5, 3))
    roots = rs.forward_log(circuit, params, batch)
    predicted = rs.classify(circuit, params, batch)
    np.testing.assert_array_equal(predicted, np.argmax(roots, axis=1) + 1)

    # all-missing sample: every root is 0, tie resolves to class 1
    missing = np.ones((1, 3), bool)
    assert rs.classify(circuit, params, batch[:1], missing=missing)[0] == 1


def test_log_marginal_input(rng):
    circuit, params = random_circuit(rng, num_vars=4, max_dims={"classes": 2})
    while circuit.classes_C != 2:
        circuit, params = random_circuit(rng, num_vars=4, max_dims={"classes": 2})
    batch = rng.normal(size=(2, 4))
    roots = rs.forward_log(circuit, params, batch)

    # symmetric case: equal roots collapse to the shared value
    fake = np.full((3, 2), -1.234)
    mix = logsumexp(fake + rs.uniform_log_prior(2)[None, :])
    np.testing.assert_allclose(mix, -1.234, atol=1e-12)

    got = rs.log_marginal_input(circuit, params, batch)
    expected = np.log(0.5 * np.exp(roots[:, 0]) + 0.5 * np.exp(roots[:, 1]))
    np.testing.assert_allclose(got, expected, atol=1e-10)

    # total mass: all features missing -> log 1
    all_missing = rs.log_marginal_input(
        circuit, params, batch, missing=np.ones_like(batch, bool)
    )
    np.testing.assert_allclose(all_missing, 0.0, atol=1e-12)


def test_conditional_log(rng):
    circuit, params = random_circuit(rng, num_vars=4)
    params = randomize_params(params, rng, 0.5)
    batch = rng.normal(size=(3, 4))
    query = np.zeros((3, 4), bool)
    query[:, :2] = True
    evidence = np.zeros((3, 4), bool)

    # empty evidence: conditional equals the marginal over the query block
    got = rs.conditional_log(circuit, params, batch, query, evidence)
    expected = rs.log_marginal_input(circuit, params, batch, missing=~query)
    np.testing.assert_allclose(got, expected, atol=1e-12)

    # empty query: log p(nothing | evidence) = 0
    evidence[:, 2] = True
    empty = rs.conditional_log(circuit, params, batch, np.zeros((3, 4), bool), evidence)
    np.testing.assert_allclose(empty, 0.0, atol=1e-12)

    with pytest.raises(InvalidInput):
        rs.conditional_log(circuit, params, batch, evidence, evidence)


def test_conditional_log_ignores_values_outside_query_and_evidence(rng):
    circuit, params = random_circuit(rng, num_vars=4)
    batch = rng.normal(size=(3, 4))
    query = np.zeros((3, 4), bool)
    query[:, 0] = True
    evidence = np.zeros((3, 4), bool)
    evidence[:, 1] = True
    expected = rs.conditional_log(circuit, params, batch, query, evidence)
    ignored = batch.copy()
    ignored[:, 2:] = [np.nan, np.inf]
    got = rs.conditional_log(circuit, params, ignored, query, evidence)
    np.testing.assert_array_equal(got, expected)
    assert np.isfinite(got).all()
    for selected in (query, evidence):
        bad = batch.copy()
        bad[selected] = np.nan
        with pytest.raises(InvalidInput, match="observed values must be finite"):
            rs.conditional_log(circuit, params, bad, query, evidence)


@pytest.fixture(scope="module")
def desk_query():
    """The desk config at randomized parameters, with 200 rows and their masks."""
    circuit = rs.construct_circuit(rs.random_region_graph(64, 2, 8, seed=1), 10, 8, 8)
    rng = np.random.default_rng(5)
    params = randomize_params(rs.init_parameters(circuit, seed=1), rng, 0.5)
    batch = rng.normal(size=(200, 64))
    u = rng.random(batch.shape)
    return circuit, params, batch, u < 0.3, (u >= 0.3) & (u < 0.65)


@pytest.mark.parametrize("prior", ["uniform", "skewed"])
@pytest.mark.parametrize("rows", [1, 3, 200])
def test_conditional_log_is_a_difference_of_marginals_bit_for_bit(desk_query, rows, prior):
    circuit, params, batch, query, evidence = desk_query
    assert rows_per_pass(circuit) < 200  # the 200-row call spans several passes
    log_prior = None if prior == "uniform" else np.log(np.arange(1, 11) / 55)
    batch, query, evidence = batch[:rows], query[:rows], evidence[:rows]
    got = rs.conditional_log(circuit, params, batch, query, evidence, log_prior)
    joint = rs.log_marginal_input(circuit, params, batch, log_prior, ~(query | evidence))
    marginal = rs.log_marginal_input(circuit, params, batch, log_prior, ~evidence)
    np.testing.assert_array_equal(got, joint - marginal)


def test_the_default_prior_is_the_uniform_prior_bit_for_bit(desk_query):
    circuit, params, batch, query, _ = desk_query
    uniform = rs.uniform_log_prior(circuit.classes_C)
    for call in (rs.log_joint, rs.log_marginal_input, rs.classify):
        np.testing.assert_array_equal(
            call(circuit, params, batch, None, query), call(circuit, params, batch, uniform, query)
        )


def test_conditional_log_checks_its_masks_batch_and_prior(desk_query):
    circuit, params, batch, query, evidence = desk_query
    batch, query, evidence = batch[:3], query[:3], evidence[:3]
    cases = [
        (batch, query, evidence[:, 1:], None, "same shape"),
        (batch, query, query, None, "overlap"),
        (batch[:, 1:], query[:, 1:], evidence[:, 1:], None, "does not match 64 variables"),
        (batch, query[:2], evidence[:2], None, "missing mask shape"),
        (batch, query, evidence, np.zeros(10), "not normalized"),
        (batch, query, evidence, np.log(np.full(3, 1 / 3)), "shape"),
    ]
    for x, q, e, log_prior, message in cases:
        with pytest.raises(InvalidInput, match=message):
            rs.conditional_log(circuit, params, x, q, e, log_prior)


def test_conditional_on_independent_factors_equals_marginal(rng):
    # single product of two singleton leaf regions: variables independent
    graph = rs.random_region_graph(2, 1, 1, seed=3)
    circuit = rs.construct_circuit(graph, 1, 1, 1)
    params = randomize_params(rs.init_parameters(circuit, seed=1), rng)
    batch = rng.normal(size=(4, 2))
    query = np.tile([True, False], (4, 1))
    evidence = ~query
    conditional = rs.conditional_log(circuit, params, batch, query, evidence)
    marginal = rs.log_marginal_input(circuit, params, batch, missing=~query)
    np.testing.assert_allclose(conditional, marginal, atol=1e-10)


def test_discrete_normalization_brute_force(rng):
    for _ in range(5):
        circuit, params = random_circuit(
            rng, num_vars=int(rng.integers(2, 7)), leaf_family="bernoulli"
        )
        params = randomize_params(params, rng)
        X = np.array(enumerate_assignments(circuit.num_vars), dtype=float)
        roots = rs.forward_log(circuit, params, X)
        np.testing.assert_allclose(np.exp(roots).sum(axis=0), 1.0, atol=1e-9)


def test_continuous_normalization_quadrature(rng):
    for _ in range(3):
        circuit, params = random_circuit(rng, num_vars=2)
        params = randomize_params(params, rng, 0.8)
        masses = quadrature_mass_2d(circuit, params)
        np.testing.assert_allclose(masses, 1.0, atol=1e-4)


def test_marginal_consistency_against_enumeration(rng):
    for _ in range(5):
        circuit, params = random_circuit(
            rng, num_vars=int(rng.integers(2, 7)), leaf_family="bernoulli"
        )
        params = randomize_params(params, rng)
        n = circuit.num_vars
        X = np.array(enumerate_assignments(n), dtype=float)
        roots = np.exp(rs.forward_log(circuit, params, X))

        assignment = rng.integers(0, 2, n).astype(float)
        missing_vars = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        mask = np.zeros((1, n), bool)
        mask[0, missing_vars] = True

        keep = np.ones(len(X), bool)
        for v in range(n):
            if not mask[0, v]:
                keep &= X[:, v] == assignment[v]
        expected = np.log(roots[keep].sum(axis=0))
        got = rs.forward_log(circuit, params, assignment[None, :], missing=mask)[0]
        np.testing.assert_allclose(got, expected, atol=1e-9)


def test_scale_stability_leaf_shift(rng):
    # singleton leaves everywhere: shifting every leaf table of one variable
    # by k shifts every root by exactly k
    graph = rs.random_region_graph(4, 2, 2, seed=21)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = randomize_params(rs.init_parameters(circuit, seed=2), rng)
    batch = rng.normal(size=(3, 4))
    _, tables, _ = rs.forward_log(circuit, params, batch, return_tables=True)
    graph, where = circuit.graph, plan_members(circuit)
    logits_of = region_matrices(circuit, params, "sum_logits")

    def forward_with_shift(k, var):
        def table(region):  # the engine's leaf tables; products and sums rebuilt from the graph
            parts = partitions_of(graph, region)
            if not parts:
                group, member = where["leaf", region.index]
                t = tables[group][member].copy()
                if set(region.scope) == {var}:
                    t += k
                return t
            products = []
            for part in parts:
                left, right = (table(child) for child in part.children)
                products.append((left[:, :, None] + right[:, None, :]).reshape(len(batch), -1))
            x = np.concatenate(products, axis=1)
            logits = logits_of[region.index]
            log_w = logits - logsumexp(logits)[..., None]
            return logsumexp(x[:, None, :] + log_w[None, :, :])

        return table(graph.root)

    base = forward_with_shift(0.0, 1)
    moved = forward_with_shift(2.5, 1)
    np.testing.assert_allclose(moved - base, 2.5, atol=1e-12)


def test_no_nan_under_stress(rng):
    circuit, params = random_circuit(rng, num_vars=6)
    params = randomize_params(params, rng, 3.0)
    batch = rng.normal(0, 50, size=(8, 6))
    missing = rng.random((8, 6)) < 0.3
    masks = rs.sample_sum_dropout_mask(circuit, 0.4, 8, rng)
    roots = rs.forward_log(circuit, params, batch, missing=missing, sum_dropout=masks)
    assert not np.isnan(roots).any()


def test_streaming_matches_table_mode(rng):
    circuit, params = random_circuit(rng, num_vars=6)
    batch = rng.normal(size=(4, 6))
    lean = rs.forward_log(circuit, params, batch)
    full, tables, _ = rs.forward_log(circuit, params, batch, return_tables=True)
    np.testing.assert_array_equal(lean, full)
    assert len(tables) == len(circuit.plan)


def test_a_large_batch_equals_its_1024_row_chunks(rng):
    graph = rs.random_region_graph(16, 2, 3, seed=0)
    circuit = rs.construct_circuit(graph, 3, 4, 4)
    params = randomize_params(rs.init_parameters(circuit, seed=1), rng, 0.5)
    batch = rng.normal(size=(2500, 16))
    missing = rng.random(batch.shape) < 0.3
    masks = rs.sample_sum_dropout_mask(circuit, 0.7, len(batch), rng)
    for drop in (None, masks):
        whole = rs.forward_log(circuit, params, batch, missing, drop)
        blocks = [
            rs.forward_log(
                circuit, params, batch[start : start + 1024], missing[start : start + 1024],
                drop and {key: keep[:, start : start + 1024] for key, keep in drop.items()},
            )
            for start in (0, 1024, 2048)
        ]
        np.testing.assert_array_equal(whole, np.concatenate(blocks))


@pytest.mark.parametrize("num_vars, depth, repetitions, width, rows", [
    (64, 2, 8, 8, 2500),  # the desk config; the whole-batch calls span several passes
    (784, 3, 10, 10, 100),
], ids=["desk", "784-variables"])
def test_a_rows_bits_do_not_depend_on_the_call_it_comes_in(
    num_vars, depth, repetitions, width, rows
):
    graph = rs.random_region_graph(num_vars, depth, repetitions, seed=1)
    circuit = rs.construct_circuit(graph, 10, width, width)
    rng = np.random.default_rng(2)
    params = randomize_params(rs.init_parameters(circuit, seed=1), rng, 0.5)
    batch = rng.normal(size=(rows, num_vars))
    # about half of the rows have no missing variable
    missing = (rng.random(batch.shape) < 0.3) & (rng.random((rows, 1)) < 0.5)
    query = ~missing & (rng.random(batch.shape) < 0.5)
    keep = rs.sample_sum_dropout_mask(circuit, 0.7, rows, rng)
    calls = {
        "forward_log": lambda r: rs.forward_log(circuit, params, batch[r]),
        "forward_log, masked, sum dropout": lambda r: rs.forward_log(
            circuit, params, batch[r], missing[r], {key: k[:, r] for key, k in keep.items()}
        ),
        "log_marginal_input, masked": lambda r: rs.log_marginal_input(
            circuit, params, batch[r], missing=missing[r]
        ),
        "conditional_log": lambda r: rs.conditional_log(
            circuit, params, batch[r], query[r], ~missing[r] & ~query[r]
        ),
    }
    for name, call in calls.items():
        alone = np.concatenate([call(slice(row, row + 1)) for row in range(rows)])
        np.testing.assert_array_equal(alone, call(slice(None)), err_msg=name)


@pytest.mark.parametrize("rows", [9, 100])
def test_one_rows_tables_are_its_rows_in_a_batch(rows):
    # one row takes tile_matmul's pad copy in every group; in a batch of 9 or
    # 100 rows it sits in a whole tile or in the last rows' tile. The leaf
    # table and every sum table give it the same bits either way
    graph = rs.random_region_graph(64, 2, 8, seed=1)
    circuit = rs.construct_circuit(graph, 10, 8, 8)
    rng = np.random.default_rng(4)
    params = randomize_params(rs.init_parameters(circuit, seed=1), rng, 0.5)
    batch = rng.normal(size=(rows, 64))
    missing = (rng.random(batch.shape) < 0.3) & (rng.random((rows, 1)) < 0.5)
    _, tables, _ = rs.forward_log(circuit, params, batch, missing, return_tables=True)
    assert {group.kind for group in circuit.plan} == {"leaf", "sum"}
    for row in range(rows):
        _, alone, _ = rs.forward_log(
            circuit, params, batch[row : row + 1], missing[row : row + 1], return_tables=True
        )
        for group, whole, one in zip(circuit.plan, tables, alone):
            np.testing.assert_array_equal(
                one[:, 0], whole[:, row], err_msg=f"row {row}, {group.kind} group {group.index}"
            )


@pytest.mark.parametrize("members, columns, sums, rows_unit_stride", [
    pytest.param(16, 64, 8, False, id="16-64-8"),  # the desk config's inner sum group
    pytest.param(1, 512, 10, False, id="1-512-10"),  # the desk root
    pytest.param(40, 100, 10, False, id="40-100-10"),  # an inner sum group at 784 variables
    pytest.param(80, 294, 10, False, id="80-294-10"),
    # a leaf group's statistics, a view with unit row stride: at the desk
    # config and at 784 variables
    pytest.param(32, 48, 8, True, id="32-48-8-unit-row-stride"),
    pytest.param(80, 294, 10, True, id="80-294-10-unit-row-stride"),
])
def test_a_rows_bits_do_not_depend_on_its_tile_position_or_companions(
    members, columns, sums, rows_unit_stride
):
    # the tile GEMM's contract: a row gives the same bits at every position of
    # its tile, whatever the other rows hold and however many rows the call
    # has, and a ones row gives the same bits too: q exactly, for the
    # row-major operand the sum mix passes. One row is read in the layout its
    # strides give (see tile_matmul): the leaf's one-row view as rows of unit
    # stride, a row-major row as row-major
    rng = np.random.default_rng(11)
    terms = sum_terms(rng.normal(0.0, 2.0, (members, sums, columns)))
    weights = terms.w.swapaxes(-1, -2)

    def product(a):
        """``tile_matmul`` of (members, rows, columns) ``a`` in the layout under test."""
        if rows_unit_stride:  # as the leaf passes its (G, 3d, N) statistics
            a = unit_row_stride(a)
        return tile_matmul(a, weights)

    row = rng.random((members, columns))
    alone = np.zeros((members, TILE, columns))
    alone[:, 0] = row
    want = product(alone)[:, 0]
    alone[:, 0] = 1.0
    ones = product(alone)[:, 0]
    if not rows_unit_stride:
        np.testing.assert_array_equal(ones, terms.q[:, 0])
    for position in range(TILE):
        batch = rng.random((members, 2 * TILE, columns))
        batch[:, TILE + position] = row
        batch[:, position] = 1.0
        got = product(batch)
        np.testing.assert_array_equal(got[:, TILE + position], want)
        np.testing.assert_array_equal(got[:, position], ones)
    for rows in (0, 1, 2, 7, TILE, 9, 17):
        assert product(rng.random((members, rows, columns))).shape == (members, rows, sums)
        for position in range(rows):
            batch = rng.random((members, rows, columns))
            batch[:, position] = row
            if rows > 1:
                batch[:, position - 1] = 1.0
            got = product(batch)
            np.testing.assert_array_equal(got[:, position], want)
            if rows > 1:
                np.testing.assert_array_equal(got[:, position - 1], ones)


def unit_row_stride(a):
    """``a`` as a view of a new (..., columns, rows) array, as the leaf builds it."""
    base = np.empty(a.shape[:-2] + a.shape[:-3:-1])
    base[...] = a.swapaxes(-1, -2)
    return base.swapaxes(-1, -2)


def test_one_rows_layout_is_read_from_its_strides():
    # one row has no layout of its own: tile_matmul reads strides[-2] <=
    # strides[-1] as rows of unit stride, so the leaf's one-row view (8, 8)
    # takes the transposed tile and a row-major row (8K, 8) the row-major
    # one, whose last bits may differ. A one-row copy of a transposed view
    # (np.ascontiguousarray) has strides (8K, 8) and reads as row-major
    rng = np.random.default_rng(11)
    row = rng.random((32, 1, 48))
    weights = sum_terms(rng.normal(0.0, 2.0, (32, 8, 48))).w.swapaxes(-1, -2)
    tile = np.zeros((32, TILE, 48))
    tile[:, :1] = row
    transposed, row_major = unit_row_stride(tile) @ weights, tile @ weights
    leaf_view = unit_row_stride(row)
    copied = np.ascontiguousarray(row.swapaxes(-1, -2)).swapaxes(-1, -2)
    assert (leaf_view.strides[1:], row.strides[1:]) == ((8, 8), (8 * 48, 8))
    assert copied.strides[1:] == (8 * 48, 8)
    np.testing.assert_array_equal(tile_matmul(leaf_view, weights), transposed[:, :1])
    np.testing.assert_array_equal(tile_matmul(row, weights), row_major[:, :1])
    np.testing.assert_array_equal(tile_matmul(copied, weights), row_major[:, :1])


def test_forward_memory_does_not_grow_with_the_rows(rng):
    # beyond one block of rows, only the (N, C) roots grow: each block's
    # roots and their concatenation
    graph = rs.random_region_graph(16, 2, 3, seed=0)
    circuit = rs.construct_circuit(graph, 3, 4, 4)
    params = rs.init_parameters(circuit, seed=1)
    rs.forward_log(circuit, params, np.zeros((2, 16)))  # terms, computed once per set
    peaks = {}
    for rows in (1024, 8192):
        batch = rng.normal(size=(rows, 16))
        tracemalloc.start()
        roots = rs.forward_log(circuit, params, batch)
        peaks[rows] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[8192] - peaks[1024] <= 2 * roots.nbytes


def test_sum_group_call_equals_block_calls_bit_for_bit(rng):
    # 4 blocks of 3 sums over 5 inputs, with dropped columns and a dead row
    values = rng.normal(0.0, 3.0, (4, 6, 5))
    values[rng.random((4, 6, 5)) < 0.3] = -np.inf
    values[1, 2] = -np.inf
    logits = rng.normal(0.0, 2.0, (4, 3, 5))
    g = rng.normal(size=(4, 6, 3))
    out = sum_block_forward(block_kernel(values, logits))
    d_values, d_logits = sum_block_backward(g, block_kernel(values, logits))
    for k in range(4):
        np.testing.assert_array_equal(
            out[k], sum_block_forward(block_kernel(values[k], logits[k]))
        )
        block_d_values, block_d_logits = sum_block_backward(
            g[k], block_kernel(values[k], logits[k])
        )
        np.testing.assert_array_equal(d_values[k], block_d_values)
        np.testing.assert_array_equal(d_logits[k], block_d_logits)


@pytest.mark.filterwarnings("error")
def test_overflowing_observation_gives_minus_inf_without_warning(rng):
    # a finite observation so far out that its squared distance overflows
    # has density 0: the forward pass returns -inf for its row, silently
    circuit, params = random_circuit(rng, num_vars=4)
    batch = rng.normal(size=(3, 4))
    batch[1, 2] = 1e160
    roots = rs.forward_log(circuit, params, batch)
    assert np.isneginf(roots[1]).all()
    assert np.isfinite(roots[[0, 2]]).all()
    assert np.isneginf(rs.log_marginal_input(circuit, params, batch)[1])
    missing = np.zeros_like(batch, bool)
    missing[1, 2] = True
    assert np.isfinite(rs.forward_log(circuit, params, batch, missing)).all()
