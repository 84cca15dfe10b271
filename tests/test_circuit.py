import numpy as np
import pytest

import randspn as rs
from randspn.circuit import LEAF, PRODUCT, SUM, parameter_layout
from randspn.errors import InvalidInput, StructureError
from randspn.inference import logsumexp
from randspn.region_graph import Region
from conftest import block_matrices, wiring_mirrors_graph


def test_worked_example_block_widths():
    # 7 vars, 3 classes, depth 2, 2 repetitions, 2 sums, 2 leaves per region
    graph = rs.random_region_graph(7, 2, 2, seed=123)
    circuit = rs.construct_circuit(graph, classes_C=3, sums_S=2, leaves_I=2)
    assert circuit.root_block.width == 3
    for block in circuit.blocks:
        if block.kind == SUM and block is not circuit.root_block:
            assert block.width == 2
        if block.kind == LEAF:
            assert block.width == 2
    assert wiring_mirrors_graph(circuit)


def test_two_variable_cross_product_wiring():
    graph = rs.random_region_graph(2, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, classes_C=1, sums_S=1, leaves_I=2)
    root = circuit.root_block
    assert root.width == 1
    assert [b.kind for b in root.inputs] == [PRODUCT]
    assert root.inputs[0].width == 4  # 2 x 2 products pairing the leaf blocks
    params = rs.init_parameters(circuit, seed=1)
    assert block_matrices(circuit, params, "sum_logits")[root.index].shape == (1, 4)


def test_stack_depth_is_twice_the_split_depth(rng):
    for depth in (1, 2, 3):
        num_vars = int(rng.integers(2**depth, 40))
        graph = rs.random_region_graph(num_vars, depth, int(rng.integers(1, 4)),
                                       int(rng.integers(2**31)))
        circuit = rs.construct_circuit(graph, 2, 2, 2)
        assert circuit.stack_depth() == 2 * depth


def test_parameter_counts_small_example():
    # 4 vars, depth 1: two 2-var leaf regions of 2 leaves -> 8 means,
    # one root sum over 2*2 products -> 4 logits
    graph = rs.random_region_graph(4, 1, 1, seed=5)
    circuit = rs.construct_circuit(graph, classes_C=1, sums_S=1, leaves_I=2)
    counts = rs.count_parameters(circuit)
    assert counts == {"num_sum_logits": 4, "num_leaf_params": 8, "total": 12}
    with_var = rs.count_parameters(circuit, train_variance=True)
    assert with_var == {"num_sum_logits": 4, "num_leaf_params": 16, "total": 20}


def test_single_variable_circuit_is_a_mixture_over_leaves():
    graph = rs.random_region_graph(1, 2, 3, seed=0)
    circuit = rs.construct_circuit(graph, classes_C=1, sums_S=1, leaves_I=1)
    counts = rs.count_parameters(circuit)
    assert counts == {"num_sum_logits": 1, "num_leaf_params": 1, "total": 2}
    assert wiring_mirrors_graph(circuit)
    params = rs.init_parameters(circuit, seed=0)
    roots = rs.forward_log(circuit, params, np.zeros((3, 1)))
    assert roots.shape == (3, 1)


def test_construct_rejects_invalid_graph():
    graph = rs.random_region_graph(6, 1, 1, seed=1)
    graph.partitions[0].children[0].scope = (0,)
    with pytest.raises(StructureError):
        rs.construct_circuit(graph, 1, 1, 1)
    with pytest.raises(InvalidInput):
        rs.construct_circuit(rs.random_region_graph(4, 1, 1, seed=0), 0, 1, 1)


def _second_root(graph):
    graph.regions.append(Region(len(graph.regions), graph.root.scope, 1))


def _root_at_position_1(graph):
    regions = graph.regions
    regions[0], regions[1] = regions[1], regions[0]
    regions[0].index, regions[1].index = 0, 1


# id: (fault injected into a region graph, message of validate_region_graph)
_GRAPH_FAULTS = {
    "multiple-roots": (_second_root, "multiple root regions covering all variables"),
    "root-not-first": (_root_at_position_1, "is not graph.regions[0]"),
    "non-region-parent": (
        lambda graph: setattr(graph.partitions[0], "parent", None),
        "partition #0 has a parent outside graph.regions",
    ),
    "one-child": (
        lambda graph: setattr(graph.partitions[0], "children", graph.partitions[0].children[:1]),
        "partition #0 has 1 children (expected 2)",
    ),
    "non-region-child": (
        lambda graph: setattr(
            graph.partitions[0], "children", (graph.partitions[0].children[0], None)
        ),
        "partition #0 has a child outside graph.regions",
    ),
    "region-index": (
        lambda graph: setattr(graph.regions[2], "index", 1), "region #1 is at position 2"
    ),
    "partition-index": (
        lambda graph: setattr(graph.partitions[1], "index", 0), "partition #0 is at position 1"
    ),
    # the one way left to list a partition twice: its product would enter the sum twice
    "partition-in-list-twice": (
        lambda graph: graph.partitions.append(graph.partitions[0]),
        "partition #0 is at position 3",
    ),
}


@pytest.mark.parametrize("fault, message", [
    pytest.param(*case, id=k) for k, case in _GRAPH_FAULTS.items()
])
def test_validators_report_each_injected_fault(fault, message):
    graph = rs.random_region_graph(6, 2, 1, seed=4)
    assert repr(rs.validate_region_graph(graph)) == "ValidationReport(ok)"
    fault(graph)
    report = rs.validate_region_graph(graph)
    found = [v for v in report.violations if message in v]
    assert found, report.violations
    assert repr(report).startswith("ValidationReport(\n  ") and found[0] in repr(report)
    with pytest.raises(StructureError, match="invalid region graph"):
        rs.construct_circuit(graph, 2, 2, 2)


def test_normalized_weights_sum_to_one(rng):
    graph = rs.random_region_graph(9, 2, 2, seed=17)
    circuit = rs.construct_circuit(graph, 3, 3, 2)
    params = rs.init_parameters(circuit, seed=3)
    for idx, logits in block_matrices(circuit, params, "sum_logits").items():
        logits = logits + rng.normal(0, 2.0, logits.shape)
        weights = np.exp(logits - logsumexp(logits)[..., None])
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)


def test_parameter_count_invariant_to_seed_without_truncation():
    # num_vars >= 2**depth and scopes wide enough that duplicate draws
    # across repetitions do not occur for these seeds
    reference = None
    for seed in (1, 2, 3, 4):
        graph = rs.random_region_graph(24, 2, 3, seed=seed)
        circuit = rs.construct_circuit(graph, 4, 3, 2)
        counts = rs.count_parameters(circuit)
        if reference is None:
            reference = counts
        assert counts == reference


def test_data_aware_initialization_tracks_feature_stats():
    graph = rs.random_region_graph(6, 2, 1, seed=2)
    circuit = rs.construct_circuit(graph, 2, 2, 3)
    mu = np.linspace(10.0, 20.0, 6)
    sd = np.full(6, 0.01)
    params = rs.init_parameters(circuit, seed=0, feature_stats=(mu, sd))
    for block in (b for b in circuit.blocks if b.kind == LEAF):
        means = block_matrices(circuit, params, "leaf_means")[block.index]
        expected = mu[list(block.scope)]
        assert np.abs(means - expected[None, :]).max() < 0.1


@pytest.mark.parametrize(
    "config, kinds",
    [
        ((64, 2, 8, 10, 8, 8), ["leaf", "sum", "sum"]),
        ((784, 3, 10, 10, 10, 10), ["leaf", "sum", "sum", "sum"]),
    ],
)
def test_plan_has_one_group_per_layer_on_even_splits(config, kinds):
    num_vars, depth, repetitions, classes, sums, leaves = config
    graph = rs.random_region_graph(num_vars, depth, repetitions, seed=1)
    circuit = rs.construct_circuit(graph, classes, sums, leaves)
    assert [group.kind for group in circuit.plan] == kinds
    assert len(parameter_layout(circuit)) == len(kinds)  # one tensor per plan group
    placed = [(b.group, b.position) for b in circuit.blocks if b.kind != PRODUCT]
    assert sorted(placed) == sorted(
        (g.index, k) for g in circuit.plan for k in range(len(g.blocks))
    )
    for group in circuit.plan:
        for position, block in enumerate(group.blocks):
            assert (block.group, block.position) == (group.index, position)
            assert block.width == group.width
            factors = [p.inputs[side] for side in (0, 1) for p in block.inputs]
            taken = [(src, k) for src, at, _ in group.reads for k in at[position]]
            assert sorted(taken) == sorted((f.group, f.position) for f in factors)


@pytest.mark.parametrize("leaf_family, train_variance", [
    ("gaussian", False), ("gaussian", True), ("bernoulli", False),
])
def test_stacked_parameters_are_zero_copy_views_of_flat(leaf_family, train_variance):
    graph = rs.random_region_graph(5, 2, 4, seed=0)  # two leaf groups
    circuit = rs.construct_circuit(graph, 2, 3, 2, leaf_family)
    params = rs.init_parameters(circuit, seed=4, train_variance=train_variance)
    names = {SUM: ["sum_logits"]}
    names[LEAF] = (
        ["leaf_logits"] if leaf_family == "bernoulli"
        else ["leaf_means", "leaf_log_vars"] if train_variance else ["leaf_means"]
    )
    for group in circuit.plan:
        for name in names[group.kind]:
            stacked = params.stacked(name, group)
            assert np.shares_memory(stacked, params.flat)
            per_block = block_matrices(circuit, params, name)
            np.testing.assert_array_equal(
                stacked, np.stack([per_block[b.index] for b in group.blocks])
            )



def _assert_read_only(circuit, params):
    sum_group = next(g for g in circuit.plan if g.kind == SUM)
    for array in (
        params.flat,
        block_matrices(circuit, params, "sum_logits")[circuit.root_block.index],
        params.stacked("sum_logits", sum_group),
    ):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        params.flat += 1.0


def test_parameter_sets_are_read_only_values(tmp_path, rng):
    graph = rs.random_region_graph(6, 2, 2, seed=3)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    params = rs.init_parameters(circuit, seed=1, train_variance=True)
    _assert_read_only(circuit, params)
    _assert_read_only(circuit, rs.ParameterSet(params.layout, params.flat))
    rs.save_model(circuit, params, tmp_path / "m.json")
    _assert_read_only(circuit, rs.load_model(tmp_path / "m.json")[1])
    grads, _ = rs.backward_gradients(
        circuit, params, rng.normal(size=(3, 6)), np.array([1, 2, 1]), 0.5
    )
    _assert_read_only(circuit, grads)
    state = rs.training.AdamState.initial(params)
    updated, _ = rs.adam_step(params, grads, state, rs.TrainConfig())
    _assert_read_only(circuit, updated)


def test_a_parameter_set_copies_the_vector_it_is_built_from():
    graph = rs.random_region_graph(4, 1, 1, seed=0)
    circuit = rs.construct_circuit(graph, 1, 1, 2)
    params = rs.init_parameters(circuit, seed=0)
    source = params.flat.copy()
    built = rs.ParameterSet(params.layout, source)
    batch = np.zeros((2, 4))
    before = rs.forward_log(circuit, built, batch)
    source += 5.0
    np.testing.assert_array_equal(built.flat, params.flat)
    np.testing.assert_array_equal(rs.forward_log(circuit, built, batch), before)


def test_sum_terms_keep_the_log_of_each_weight_row_sum():
    from randspn.circuit import sum_terms

    terms = sum_terms(np.random.default_rng(3).normal(0.0, 2.0, (4, 3, 6)))
    np.testing.assert_array_equal(terms.log_q, np.log(terms.q))
    assert terms.log_q.shape == (4, 1, 3)


@pytest.mark.parametrize("leaf_family, train_variance", [
    ("gaussian", False), ("gaussian", True), ("bernoulli", False),
])
def test_memoized_terms_equal_fresh_computation(leaf_family, train_variance):
    from randspn.circuit import sum_terms
    from randspn.leaves import bernoulli_terms, clamped_variances, gaussian_terms

    graph = rs.random_region_graph(5, 2, 4, seed=0)  # two leaf groups
    circuit = rs.construct_circuit(graph, 2, 3, 2, leaf_family)
    params = rs.init_parameters(circuit, seed=4, train_variance=train_variance)
    params = rs.ParameterSet(params.layout, params.flat + np.linspace(-3, 3, params.flat.size))
    for group in circuit.plan:
        terms = params.terms(group)
        assert params.terms(group) is terms  # computed once, then kept
        if group.kind == SUM:
            fresh = sum_terms(params.stacked("sum_logits", group))
        elif leaf_family == "bernoulli":
            fresh = bernoulli_terms(params.stacked("leaf_logits", group))
        else:
            variances = (
                clamped_variances(params.stacked("leaf_log_vars", group))
                if train_variance else np.ones_like(params.stacked("leaf_means", group))
            )
            centre = params.centre[group.scope][:, None, :]
            fresh = gaussian_terms(params.stacked("leaf_means", group) - centre, variances)
        for got, want in zip(terms, fresh):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable


@pytest.mark.parametrize("leaf_family", ["gaussian", "bernoulli"])
def test_the_centre_is_the_mean_leaf_mean_where_it_exceeds_the_spread(leaf_family):
    # uneven splits: two leaf groups, and variables in leaves of both sizes.
    # Each variable's leaf means alternate about 10, -10, 10, 0 and 0, by 1
    graph = rs.random_region_graph(5, 2, 4, seed=0)
    circuit = rs.construct_circuit(graph, 2, 3, 2, leaf_family)
    params = rs.init_parameters(circuit, seed=4)
    if leaf_family == "bernoulli":
        np.testing.assert_array_equal(params.centre, np.zeros(5))
        return
    flat, means = params.flat.copy(), [[] for _ in range(5)]
    for block in (b for b in circuit.blocks if b.kind == "leaf"):
        matrix = params.stacked("leaf_means", circuit.plan[block.group], flat)[block.position]
        for column, var in enumerate(block.scope):
            for row in range(len(matrix)):
                matrix[row, column] = (10.0, -10.0, 10.0, 0.0, 0.0)[var] + (-1) ** len(means[var])
                means[var].append(matrix[row, column])
    params = rs.ParameterSet(params.layout, flat)
    centre = params.centre
    assert params.centre is centre and not centre.flags.writeable
    want = [np.mean(m) if np.mean(m) ** 2 > np.var(m) else 0.0 for m in means]
    np.testing.assert_allclose(centre, want, rtol=1e-13)
    assert (np.abs(centre[:3]) > 9).all() and (centre[3:] == 0).all()


def _integer_cases():
    graph = rs.random_region_graph(8, 2, 2, seed=0)
    circuit = rs.construct_circuit(graph, 2, 2, 2)
    return {
        "classes-float": lambda: rs.construct_circuit(graph, 2.5, 2, 2),
        "sums-bool": lambda: rs.construct_circuit(graph, 2, True, 2),
        "leaves-zero": lambda: rs.construct_circuit(graph, 2, 2, 0),
        "num-vars-float": lambda: rs.random_region_graph(8.0, 2, 2),
        "depth-float": lambda: rs.random_region_graph(8, 1.5, 2),
        "repetitions-float": lambda: rs.random_region_graph(8, 2, 2.5),
        "graph-seed-float": lambda: rs.random_region_graph(8, 2, 2, seed=1.5),
        "graph-seed-negative": lambda: rs.random_region_graph(8, 2, 2, seed=-1),
        "init-seed-float": lambda: rs.init_parameters(circuit, seed=1.5),
        "init-seed-negative": lambda: rs.init_parameters(circuit, seed=-1),
        "init-seed-bool": lambda: rs.init_parameters(circuit, seed=True),
        "epochs-float": lambda: rs.TrainConfig(epochs=1.5),
        "batch-size-float": lambda: rs.TrainConfig(batch_size=10.0),
        "train-seed-negative": lambda: rs.TrainConfig(seed=-1),
        "train-seed-bool": lambda: rs.TrainConfig(seed=False),
        "stats-longer": lambda: rs.init_parameters(
            circuit, feature_stats=(np.zeros(9), np.ones(9))),
        "stats-shorter": lambda: rs.init_parameters(
            circuit, feature_stats=(np.zeros(7), np.ones(7))),
        "stats-2d": lambda: rs.init_parameters(
            circuit, feature_stats=(np.zeros((1, 8)), np.ones((1, 8)))),
        "stats-three": lambda: rs.init_parameters(
            circuit, feature_stats=(np.zeros(8), np.ones(8), np.ones(8))),
    }


@pytest.mark.parametrize("case", list(_integer_cases()))
def test_malformed_integer_and_shape_arguments_are_caller_errors(case):
    # each is caught where it is passed in, not as a TypeError, numpy's
    # ValueError or a silently cut vector further on
    with pytest.raises(InvalidInput):
        _integer_cases()[case]()


def test_numpy_integers_are_accepted_as_python_integers(tmp_path):
    graph = rs.random_region_graph(np.int64(8), np.int32(2), np.uint8(2), seed=np.int64(3))
    circuit = rs.construct_circuit(graph, np.int64(2), np.int16(2), np.int8(2))
    params = rs.init_parameters(circuit, seed=np.int64(4))
    want_graph = rs.random_region_graph(8, 2, 2, seed=3)
    want = rs.init_parameters(rs.construct_circuit(want_graph, 2, 2, 2), seed=4)
    np.testing.assert_array_equal(params.flat, want.flat)
    rs.save_model(circuit, params, tmp_path / "m.json")  # the seed is stored as JSON
    config = rs.TrainConfig(epochs=np.int64(1), batch_size=np.int32(5), seed=np.uint8(2))
    assert (config.epochs, config.batch_size, config.seed) == (1, 5, 2)
    assert all(type(v) is int for v in (config.epochs, config.batch_size, config.seed))
