"""The fused product→sum layer against log-domain references.

Every sum group above the leaves folds its products in: it exps each factor
table once and mixes their outer products. These tests draw real plans
(random region graphs, so uneven splits, shared child regions and
multi-partition roots all occur) and feed each sum group random factor
tables, then compare with ``LSE_k(l_i + r_j + log w)`` computed per member
from the same tables, its products built from the region graph.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp as reference_logsumexp

import randspn as rs
from randspn.circuit import LEAF, SUM, sum_terms
from randspn.inference import sum_block_forward, sum_group_kernel
from randspn.oracle import finite_diff_gradient
from randspn.training import _factor_gradients, sum_block_backward
from conftest import partitions_of, plan_members


def _random_tables(circuit, n, rng, scale, far=False):
    """Random log-value tensors for every plan group.

    Entries are -inf at random, some rows are dead (all -inf) or constant,
    and one sample is 0 in every table (an all-missing row). With ``far``,
    entries spread over about 1600 nats, so kept columns may lie far below
    a dropped maximum.
    """
    tables = [None] * len(circuit.plan)
    spread = 800.0 if far else scale
    for group in circuit.plan:
        t = rng.normal(0.0, 1.0, (len(group.regions), n, group.width)) * spread
        t += rng.normal(0.0, 20.0)
        t[rng.random(t.shape) < 0.15] = -np.inf
        rows = rng.random(t.shape[:2])
        t[rows < 0.1] = -np.inf
        t[(rows >= 0.1) & (rows < 0.25)] = rng.normal(0.0, 10.0)
        t[:, 0] = 0.0
        tables[group.index] = t
    return tables


def _member_inputs(circuit, tables, group, member):
    """(N, K) log-domain input table of one sum member, products built explicitly
    from the partitions of its region."""
    graph, where = circuit.graph, plan_members(circuit)

    def table(region):  # a region's sums if a partition splits it, else its leaves
        source, at = where[SUM if partitions_of(graph, region) else LEAF, region.index]
        return tables[source][at]

    region = graph.regions[group.regions[member]]
    parts = partitions_of(graph, region)
    if not parts:  # a single-variable root mixes its own leaves
        return table(region)
    columns = []
    for part in parts:
        left, right = (table(child) for child in part.children)
        columns.append((left[:, :, None] + right[:, None, :]).reshape(len(left), -1))
    return np.concatenate(columns, axis=1)


def _reference(circuit, tables, group, logits, keep):
    out = []
    for position in range(len(group.regions)):
        values = _member_inputs(circuit, tables, group, position)
        if keep is not None:
            values = np.where(keep[position], values, -np.inf)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            joint = reference_logsumexp(values[:, None, :] + logits[position][None], axis=-1)
            out.append(joint - reference_logsumexp(logits[position], axis=-1)[None, :])
    return np.stack(out)


def _circuit(draw):
    num_vars = draw(st.integers(1, 8))
    graph = rs.random_region_graph(
        num_vars, draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 999))
    )
    return rs.construct_circuit(
        graph, draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    )


@st.composite
def folded_cases(draw):
    """(circuit, tables, logits per sum group, keep per sum group) on random plans."""
    circuit = _circuit(draw)
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = _random_tables(
        circuit, n, rng, draw(st.floats(0.0, 50.0)), far=draw(st.booleans())
    )
    spread = draw(st.floats(0.0, 20.0))
    drop = draw(st.sampled_from([None, 0.3, 0.8]))
    cases = []
    for group in circuit.plan:
        if group.kind != "sum":
            continue
        k = group.columns
        logits = rng.uniform(-0.5, 0.5, (len(group.regions), group.width, k)) * spread
        keep = None
        if drop is not None and group.runs:
            keep = rng.random((len(group.regions), n, k)) >= drop
            keep[rng.random(keep.shape[:2]) < 0.2] = False  # rows dropping every column
        cases.append((group, logits, keep))
    return circuit, tables, cases


@settings(max_examples=150, deadline=None)
@given(folded_cases())
def test_folded_sums_match_the_log_domain_reference(case):
    circuit, tables, cases = case
    for group, logits, keep in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on dead rows
            kernel = sum_group_kernel(tables, group, sum_terms(logits), keep)
            got = sum_block_forward(kernel)
        expected = _reference(circuit, tables, group, logits, keep)
        assert got.shape == expected.shape
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(np.isneginf(got), np.isneginf(expected))
        finite = np.isfinite(expected)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-12, atol=1e-9)
        # a row whose inputs all equal v gives v, bit for bit (all-missing rows give 0)
        if keep is None:
            for position in range(len(group.regions)):
                values = _member_inputs(circuit, tables, group, position)
                same = (values == values[:, :1]).all(axis=1)
                same &= np.isfinite(values[:, 0]) | np.isneginf(values).all(axis=1)
                np.testing.assert_array_equal(
                    got[position][same],
                    np.broadcast_to(values[same, :1], got[position][same].shape),
                )


@settings(max_examples=40, deadline=None)
@given(folded_cases(), st.integers(0, 2**32 - 1))
def test_folded_sum_gradients_match_finite_differences(case, seed):
    circuit, tables, cases = case
    rng = np.random.default_rng(seed)
    for group, logits, keep in cases:
        for src, _, _ in group.reads:  # finite factors: every entry can be probed
            tables[src] = np.nan_to_num(tables[src], neginf=-30.0) / 40.0
        weights = sum_terms(logits)
        out = sum_block_forward(sum_group_kernel(tables, group, weights, keep))
        live = np.isfinite(out)
        g = rng.normal(size=out.shape)

        def objective(work):
            probe = list(tables)
            for (src, _, _), name in zip(group.reads, work):
                probe[src] = work[name]
            kernel = sum_group_kernel(probe, group, weights, keep)
            return float((g * sum_block_forward(kernel))[live].sum())

        arrays = {f"t{i}": tables[src] for i, (src, _, _) in enumerate(group.reads)}
        approx = finite_diff_gradient(objective, arrays, 1e-6)
        kernel = sum_group_kernel(tables, group, weights, keep)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_x, _ = sum_block_backward(np.where(live, g, 0.0), kernel)
        if keep is not None:
            assert np.all(d_x[~keep] == 0.0)  # dropped columns: exactly zero
        grads = [None] * len(circuit.plan)
        _factor_gradients(grads, tables, group, d_x)
        for i, (src, _, _) in enumerate(group.reads):
            np.testing.assert_allclose(grads[src], approx[f"t{i}"], rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("far", [40.0, 26.9])
def test_dropout_rescue_keeps_a_far_column(far):
    # 2 variables, 2 leaves each: 4 product columns. Leaf node 1 sits
    # ``far`` standard deviations from the data, so column (1, 1) lies
    # far**2 nats below (0, 0), the row max: ~1,600 nats (its folded input
    # underflows to 0) or ~724 (a subnormal with 30 bits left). Dropping
    # all but (1, 1) must still give its value to full precision.
    graph = rs.random_region_graph(2, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 1, 1, 2)
    params = rs.init_parameters(circuit, seed=0)
    flat = np.zeros_like(params.flat)
    for tensor in params.layout:
        if tensor.name == "leaf_means":
            tensor.view(flat)[:, 1] = far
    params = rs.ParameterSet(params.layout, flat)
    batch = np.zeros((3, 2))
    root = circuit.plan[-1]  # the root's group, whose one member is the root
    keep = np.zeros((1, 3, 4), bool)
    keep[..., 3] = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = rs.forward_log(circuit, params, batch, sum_dropout={root.index: keep})
    expected = np.log(0.25) + 2 * (-0.5 * np.log(2 * np.pi) - 0.5 * far**2)
    np.testing.assert_allclose(roots, expected, rtol=1e-14)

    # the rescued rows' gradients are those of the log-domain form
    labels = np.ones(3, int)
    grads, _ = rs.backward_gradients(circuit, params, batch, labels, 0.0, None, {root.index: keep})

    def objective(work):
        probe = rs.ParameterSet(params.layout, work["flat"])
        out = rs.forward_log(circuit, probe, batch, None, {root.index: keep})
        return rs.hybrid_objective(out, labels, 2, 0.0)

    approx = finite_diff_gradient(objective, {"flat": params.flat}, 1e-5)["flat"]
    np.testing.assert_allclose(grads.flat, approx, rtol=1e-6, atol=1e-6)


def test_multi_partition_sum_scales_each_partition():
    # the root mixes 3 partitions whose factor shifts differ by up to 150 nats
    graph = rs.random_region_graph(4, 1, 4, seed=5)
    circuit = rs.construct_circuit(graph, 2, 2, 3)
    root = circuit.plan[-1]
    assert root.runs and root.runs[-1].parts.stop == 3
    rng = np.random.default_rng(5)
    tables = [None] * len(circuit.plan)
    for src, at, _ in root.reads:
        tables[src] = rng.normal(0.0, 3.0, (len(circuit.plan[src].regions), 5, 3))
        tables[src] -= 75.0 * rng.integers(0, 3, tables[src].shape[:2])[..., None]
    logits = rng.normal(0.0, 1.0, (1, 2, root.columns))
    got = sum_block_forward(sum_group_kernel(tables, root, sum_terms(logits)))
    want = _reference(circuit, tables, root, logits, None)
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_equal_rows_need_equal_partition_shifts_and_no_drop():
    # every factor row constant, but the partitions' shifts differ: the row
    # is a genuine mixture, not an equal row
    graph = rs.random_region_graph(4, 1, 4, seed=5)
    circuit = rs.construct_circuit(graph, 1, 1, 3)
    root = circuit.plan[-1]
    (src, at, _), = root.reads
    tables = [None] * len(circuit.plan)
    tables[src] = np.zeros((len(circuit.plan[src].regions), 2, 3))
    tables[src][at[0, 0], 1] = -3.0  # partition 0 has shift -3 in sample 1
    logits = np.random.default_rng(0).normal(0.0, 1.0, (1, 1, root.columns))
    kernel = sum_group_kernel(tables, root, sum_terms(logits))
    got = sum_block_forward(kernel)
    assert got[0, 0, 0] == 0.0
    want = _reference(circuit, tables, root, logits, None)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    keep = np.ones((1, 2, root.columns), bool)
    keep[0, 0, 1] = False  # a dropped column makes sample 0 a mixture too
    kernel = sum_group_kernel(tables, root, sum_terms(logits), keep)
    np.testing.assert_allclose(
        sum_block_forward(kernel), _reference(circuit, tables, root, logits, keep),
        rtol=1e-13,
    )
