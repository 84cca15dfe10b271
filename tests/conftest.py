import numpy as np
import pytest
from hypothesis import strategies as st

import randspn as rs
from randspn.circuit import LEAF, SUM, sum_terms
from randspn.inference import _log_inputs, _mix


def random_circuit(rng, num_vars=None, leaf_family="gaussian", max_dims=None):
    """Draw a small random circuit plus randomized parameters."""
    dims = max_dims or {}
    num_vars = num_vars or int(rng.integers(2, dims.get("num_vars", 8) + 1))
    depth = int(rng.integers(1, dims.get("depth", 3) + 1))
    repetitions = int(rng.integers(1, dims.get("repetitions", 3) + 1))
    sums = int(rng.integers(1, dims.get("sums", 3) + 1))
    leaves = int(rng.integers(1, dims.get("leaves", 3) + 1))
    classes = int(rng.integers(1, dims.get("classes", 3) + 1))
    graph = rs.random_region_graph(num_vars, depth, repetitions, int(rng.integers(2**31)))
    circuit = rs.construct_circuit(graph, classes, sums, leaves, leaf_family)
    params = rs.init_parameters(circuit, seed=int(rng.integers(2**31)))
    return circuit, params


def partitions_of(graph, region):
    """The partitions that split ``region``, in ``graph.partitions`` order."""
    return [part for part in graph.partitions if part.parent is region]


def plan_members(circuit):
    """{(kind, region index): (plan group, member)} of every member of the plan."""
    return {
        (group.kind, region): (group.index, member)
        for group in circuit.plan
        for member, region in enumerate(group.regions)
    }


def factor_members(circuit, group, member):
    """The (plan group, member) pairs a sum member's runs take, left then right
    factor of each partition in partition order, or its reads if it has no runs."""
    if not group.runs:
        return [(source, int(k)) for source, at, _ in group.reads for k in at[member]]
    taken = []
    for run in group.runs:
        for j in range(run.shape[0]):
            for read, slots in (run.left, run.right):
                source, at, _ = group.reads[read]
                taken.append((source, int(at[member, slots.start + j])))
    return taken


def leaf_members(circuit):
    """(plan group, member, region) of every leaf member, in region order."""
    return sorted(
        (
            (group, member, circuit.graph.regions[index])
            for group in circuit.plan if group.kind == LEAF
            for member, index in enumerate(group.regions)
        ),
        key=lambda leaf: leaf[2].index,
    )


def wiring_mirrors_graph(circuit) -> bool:
    """Whether the circuit's layer plan mirrors its region graph.

    Each region is one plan member: a sum member if a partition splits it,
    else a leaf member whose scope is the region's; a single-variable root
    also has a sum member that reads only its own leaves. The root is the
    one member of the last group. A sum member's runs take, in partition
    order, the left and right child of each partition that splits its
    region, and cover its input columns once. On a graph that passes
    ``validate_region_graph`` this makes the circuit complete and decomposable.
    """
    graph, plan = circuit.graph, circuit.plan
    where = plan_members(circuit)
    ok = plan[-1].regions == (graph.root.index,)
    ok &= len(where) == sum(len(group.regions) for group in plan)  # no region twice per kind
    for region in graph.regions:
        parts = partitions_of(graph, region)
        node = (SUM if parts else LEAF, region.index)
        ok &= node in where
        if not ok:
            return False
        group, member = plan[where[node][0]], where[node][1]
        if not parts:
            ok &= list(group.scope[member]) == list(region.scope)
            sums = where.get((SUM, region.index))
            if sums is not None:  # only a single-variable root mixes its own leaves
                ok &= region is graph.root and factor_members(
                    circuit, plan[sums[0]], sums[1]) == [where[node]]
            continue
        ok &= (LEAF, region.index) not in where
        ok &= [i for run in group.runs for i in range(run.parts.start, run.parts.stop)] == list(
            range(len(parts)))
        ok &= [c for run in group.runs for c in range(run.columns.start, run.columns.stop)] == list(
            range(group.columns))
        children = [(SUM if partitions_of(graph, child) else LEAF, child.index)
                    for part in parts for child in part.children]
        ok &= factor_members(circuit, group, member) == [where[child] for child in children]
    return ok


def root_second(doc):
    """Swap regions 0 and 1 of a saved model document and renumber every reference.

    The document stays consistent, but its root region is region 1.
    """
    renumber = {0: 1, 1: 0}
    structure = doc["structure"]
    regions = structure["regions"]
    regions[0], regions[1] = regions[1], regions[0]
    structure["partitions"] = [
        [renumber.get(i, i) for i in ends] for ends in structure["partitions"]
    ]
    for name, matrices in doc["parameters"].items():
        doc["parameters"][name] = {
            str(renumber.get(int(key), int(key))): entry for key, entry in matrices.items()
        }


def region_matrices(circuit, params, name):
    """{region index: matrix} of one parameter name, each a view of ``params.flat``."""
    return {
        region: matrix
        for tensor in params.layout
        if tensor.name == name
        for region, matrix in zip(circuit.plan[tensor.group].regions, tensor.view(params.flat))
    }


def randomize_params(params, rng, spread=1.0):
    """A new set: ``params`` plus normal noise of the given spread."""
    return rs.ParameterSet(params.layout, params.flat + rng.normal(0.0, spread, params.flat.shape))


def quadrature_mass_2d(circuit, params, lo=-10.0, hi=10.0, points=401):
    """Trapezoid integral of exp(root) over a 2-variable Gaussian circuit."""
    axis = np.linspace(lo, hi, points)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    batch = np.column_stack([xx.ravel(), yy.ravel()])
    roots = rs.forward_log(circuit, params, batch)
    masses = []
    for c in range(roots.shape[1]):
        density = np.exp(roots[:, c]).reshape(points, points)
        masses.append(np.trapezoid(np.trapezoid(density, axis, axis=1), axis))
    return np.asarray(masses)


def block_kernel(values, logits, keep=None):
    """The ``SumKernel`` of log-domain inputs ``values`` under sum ``logits``.

    ``values`` is one block's (N, K) inputs or a group's (G, N, K), ``keep``
    a sum-dropout keep-mask shaped like it, or None.
    """
    return _mix(*_log_inputs(values, keep), sum_terms(logits))


@st.composite
def sum_block_cases(draw, max_n=16, max_k=64, max_s=10):
    """(values, logits, constant-row mask) for one sum block.

    Inputs carry random -inf columns, dead rows (all -inf) and constant rows
    (all inputs equal, zero included); logit rows spread up to 600 nats.
    ``values`` is C-ordered, F-ordered (as a transposed view is) or a
    strided view.
    """
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    s = draw(st.integers(1, max_s))
    spread = draw(st.floats(0.0, 600.0))
    scale = draw(st.floats(0.0, 50.0))
    drop_rate = draw(st.sampled_from([0.0, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-0.5, 0.5, (s, k)) * spread
    values = rng.normal(0.0, scale, (n, k)) + rng.normal(0.0, 20.0)
    values[rng.random((n, k)) < drop_rate] = -np.inf
    constant = rng.random(n) < 0.25
    values[constant] = rng.choice([0.0, rng.normal(0.0, 10.0)])
    values[rng.random(n) < 0.2] = -np.inf
    constant |= np.isneginf(values).all(axis=1)
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        values = np.repeat(values, 2, axis=1)[:, ::2]
    return values, logits, constant


@pytest.fixture
def rng():
    return np.random.default_rng(20252025)
