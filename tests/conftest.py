import numpy as np
import pytest
from hypothesis import strategies as st

import randspn as rs
from randspn.circuit import LEAF, PRODUCT, SUM, sum_terms
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


def wiring_mirrors_graph(circuit) -> bool:
    """Whether the circuit's blocks mirror its region graph.

    The root block sits on region 0, a region that no partition splits holds
    a leaf block, each other sum block reads, in index order, the products of
    the partitions that name its region as parent, and each product reads its
    partition's children's blocks. On a graph that passes
    ``validate_region_graph`` this makes the circuit complete and decomposable.
    """
    graph, region_block = circuit.graph, circuit.region_block
    split: dict[int, list] = {}  # id(region) -> the partitions that split it
    for part in graph.partitions:
        split.setdefault(id(part.parent), []).append(part)
    ok = circuit.root_block.node is graph.regions[0]
    for region in graph.regions:
        block = region_block[region.index]
        ok &= block.node is region
        parts = split.get(id(region), [])
        if not parts:
            ok &= block.kind == LEAF or [b.kind for b in block.inputs] == [LEAF]
            continue
        ok &= block.kind == SUM and [b.node for b in block.inputs] == parts
        for product, part in zip(block.inputs, parts):
            ok &= product.kind == PRODUCT and product.inputs == tuple(
                region_block[child.index] for child in part.children
            )
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


def block_matrices(circuit, params, name):
    """{block index: matrix} of one parameter name, each a view of ``params.flat``."""
    return {
        block.index: matrix
        for tensor in params.layout
        if tensor.name == name
        for block, matrix in zip(circuit.plan[tensor.group].blocks, tensor.view(params.flat))
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
