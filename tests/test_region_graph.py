import pytest

import randspn as rs
from randspn.errors import InvalidInput
from randspn.region_graph import Partition, Region


def longest_partition_path(graph):
    memo = {}

    def depth(region):
        if region.index not in memo:
            if region.is_leaf:
                memo[region.index] = 0
            else:
                memo[region.index] = 1 + max(
                    max(depth(c) for c in p.children) for p in region.child_partitions
                )
        return memo[region.index]

    return depth(graph.root)


def test_worked_seven_variable_example():
    # 7 variables, two repetitions of a depth-2 balanced split
    graph = rs.random_region_graph(7, 2, 2, seed=123)
    root = graph.root
    assert root.scope == tuple(range(7))
    assert len(root.child_partitions) == 2
    for part in root.child_partitions:
        sizes = sorted(len(c.scope) for c in part.children)
        assert sizes == [3, 4]
        # each half recurses one more level
        for child in part.children:
            assert len(child.child_partitions) == 1
    assert longest_partition_path(graph) == 2


def test_single_variable_graph_has_only_root():
    graph = rs.random_region_graph(1, 3, 5, seed=0)
    assert len(graph.regions) == 1
    assert len(graph.partitions) == 0
    assert graph.root.is_leaf


def test_four_variables_depth_three_truncates_at_singletons():
    # hand enumeration: root -> {2,2} -> four singletons; no third level
    graph = rs.random_region_graph(4, 3, 1, seed=7)
    assert len(graph.regions) == 7
    assert len(graph.partitions) == 3
    assert longest_partition_path(graph) == 2
    sizes = sorted(len(r.scope) for r in graph.regions)
    assert sizes == [1, 1, 1, 1, 2, 2, 4]


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidInput):
        rs.random_region_graph(0, 1, 1)
    with pytest.raises(InvalidInput):
        rs.random_region_graph(3, 0, 1)
    with pytest.raises(InvalidInput):
        rs.random_region_graph(3, 1, 0)


def test_generated_graphs_validate_and_respect_invariants(rng):
    for _ in range(60):
        num_vars = int(rng.integers(2, 40))
        depth = int(rng.integers(1, 5))
        reps = int(rng.integers(1, 6))
        graph = rs.random_region_graph(num_vars, depth, reps, int(rng.integers(2**31)))

        assert rs.validate_region_graph(graph).ok

        for part in graph.partitions:
            a, b = part.children
            assert len(a.scope) - len(b.scope) in (0, 1)  # balanced, larger first
            assert set(a.scope) | set(b.scope) == set(part.parent.scope)
            assert not set(a.scope) & set(b.scope)

        assert len(graph.root.child_partitions) <= reps
        if num_vars >= 2:
            assert len(graph.root.child_partitions) >= 1
        assert longest_partition_path(graph) <= depth


def test_root_gets_exactly_r_partitions_when_draws_distinct():
    # 24 variables: C(24,12)/2 splits make a collision essentially impossible
    graph = rs.random_region_graph(24, 1, 6, seed=99)
    assert len(graph.root.child_partitions) == 6


def test_determinism_under_seed():
    a = rs.random_region_graph(13, 3, 4, seed=321)
    b = rs.random_region_graph(13, 3, 4, seed=321)
    c = rs.random_region_graph(13, 3, 4, seed=322)
    assert a.structure_signature() == b.structure_signature()
    assert a.structure_signature() != c.structure_signature()


def test_duplicate_draws_are_merged():
    # 2 variables admit exactly one balanced split; all repetitions collapse
    graph = rs.random_region_graph(2, 1, 8, seed=5)
    assert len(graph.partitions) == 1
    assert len(graph.regions) == 3


def test_validator_flags_non_covering_partition():
    graph = rs.random_region_graph(6, 1, 1, seed=1)
    part = graph.partitions[0]
    # shrink one child so the union no longer covers the parent
    part.children[0].scope = part.children[0].scope[:-1]
    report = rs.validate_region_graph(graph)
    assert not report.ok
    assert any("does not cover parent" in v for v in report.violations)


def test_validator_flags_duplicate_scope():
    graph = rs.random_region_graph(5, 2, 1, seed=3)
    clone_source = graph.regions[1]
    graph.regions.append(Region(len(graph.regions), clone_source.scope, clone_source.level))
    report = rs.validate_region_graph(graph)
    assert not report.ok
    assert any("duplicate scope" in v for v in report.violations)


def test_validator_flags_orphan_region_and_overlap():
    graph = rs.random_region_graph(6, 2, 1, seed=9)
    orphan = Region(len(graph.regions), (0, 1), 1)
    graph.regions.append(orphan)
    report = rs.validate_region_graph(graph)
    assert any("no parent partition" in v for v in report.violations)

    other = rs.random_region_graph(4, 1, 1, seed=2)
    part = other.partitions[0]
    part.children[1].scope = part.children[0].scope[:1] + part.children[1].scope
    report = rs.validate_region_graph(other)
    assert any("overlap" in v for v in report.violations)


def test_validator_flags_cycle():
    graph = rs.random_region_graph(4, 2, 1, seed=2)
    leaf = next(r for r in graph.regions if r.is_leaf)
    bogus = Partition(len(graph.partitions), leaf, (graph.root, graph.root))
    leaf.child_partitions.append(bogus)
    graph.partitions.append(bogus)
    report = rs.validate_region_graph(graph)
    # a child must be a proper subset of its parent, so a cycle breaks a partition
    assert any(f"partition {bogus} children overlap" in v for v in report.violations)
    assert any(f"partition {bogus} does not cover parent" in v for v in report.violations)
