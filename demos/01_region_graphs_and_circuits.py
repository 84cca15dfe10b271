#!/usr/bin/env python3
"""Random region graphs and the tensorized circuits built on top of them.

A region graph lays out how the variable set is recursively split in two;
the circuit then places a block of nodes on every region (leaf distributions
at the bottom, sum nodes elsewhere) and a block of cross-products on every
partition. This script walks through both constructions and the structural
checks that keep them honest.
"""

import randspn as rs

# --- a small graph we can print in full -------------------------------------

graph = rs.random_region_graph(num_vars=7, depth=2, repetitions=2, seed=42)
print(f"region graph over 7 variables, depth 2, 2 repetitions (seed 42)")
print(f"  {len(graph.regions)} regions, {len(graph.partitions)} partitions\n")

for region in graph.regions:
    kind = graph.region_kind(region)
    print(f"  level {region.level}  {kind:8s} {list(region.scope)}")
print()
for part in graph.partitions:
    a, b = part.children
    print(f"  partition of {list(part.parent.scope)} -> {list(a.scope)} | {list(b.scope)}")

# construct_circuit runs this same check and raises StructureError on a
# graph that fails it; a circuit built on a graph that passes is complete and
# decomposable by construction.
report = rs.validate_region_graph(graph)
print(f"\nvalidation: {'ok' if report.ok else report.violations}")

# Both repetitions share the root, so the root ends up with two child
# partitions: the circuit's root sums will mix over both split strategies.

# --- the circuit -------------------------------------------------------------

circuit = rs.construct_circuit(graph, classes_C=3, sums_S=2, leaves_I=2)
kinds = ", ".join(f"{b.kind}x{b.width}" for b in circuit.blocks)
print(f"\ncircuit: {len(circuit.blocks)} blocks: {kinds}")

# The engine evaluates a compiled plan: the leaf and sum blocks split into
# groups of same-shape blocks that read the same groups, and each group is
# one stacked (G, N, width) tensor computed by one numpy call. Product
# blocks get no group: each sum group folds in its products, taking their
# factors' tables and mixing the outer products. A run of partitions takes
# its left and right factors from slots of the group's reads, and a read's
# take indices name the member of the group read, and so its region.


def factor(group, member, side, j):
    """The scope and plan group of partition j's factor on one side of a run."""
    read, slots = side
    source, at, _ = group.reads[read]
    region = circuit.plan[source].regions[at[member, slots.start + j]]
    return f"{list(graph.regions[region].scope)} (group {source})"


print(f"\nlayer plan: {len(circuit.plan)} groups")
for group in circuit.plan:
    print(f"  group {group.index}: {group.kind}x{group.width} times {len(group.regions)}")
    for member, region in enumerate(group.regions if group.kind == "sum" else ()):
        splits = "; ".join(
            " | ".join(factor(group, member, side, j) for side in (run.left, run.right))
            for run in group.runs for j in range(run.shape[0])
        )
        print(f"    {list(graph.regions[region].scope)} folds {splits}")

print(f"\nsum/product stack depth: {circuit.stack_depth()} (= 2 * depth)")
print(f"parameters: {rs.count_parameters(circuit)}")

# --- structure scales with the knobs -----------------------------------------

print("\nparameter counts as the structure grows:")
for depth, reps, width in [(1, 2, 4), (2, 4, 4), (2, 8, 8), (3, 8, 8)]:
    g = rs.random_region_graph(64, depth, reps, seed=1)
    c = rs.construct_circuit(g, classes_C=10, sums_S=width, leaves_I=width)
    total = rs.count_parameters(c)["total"]
    print(f"  depth={depth} repetitions={reps} sums=leaves={width}: {total:7d} parameters")

# Determinism: the same seed always gives the same structure, which is why a
# seed is enough to reproduce a saved model's region graph.
again = rs.random_region_graph(num_vars=7, depth=2, repetitions=2, seed=42)
print(f"\nsame seed reproduces the structure: "
      f"{again.structure_signature() == graph.structure_signature()}")
