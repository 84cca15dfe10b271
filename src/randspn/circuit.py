"""Populate a region graph with tensorized node blocks.

Every region carries one block of nodes: leaf regions get ``leaves_I``
input distributions, the root gets ``classes_C`` sum nodes (one per class),
all other regions get ``sums_S`` sum nodes. Every partition carries a
product block pairing each node of its first child region with each node of
its second (column order: left index * right width + right index). The
products of all partitions that split a region, concatenated in
partition-index order, are the inputs of every sum node in that region.

The one structure Algorithm-style construction leaves open is a single
variable: the root then has no partitions, so it holds ``classes_C`` sum
nodes mixing a block of ``leaves_I`` distributions over that variable.

Construction compiles the leaf and sum blocks into a layer plan of groups
of same-shape blocks that read the same groups, so the engine evaluates a
whole group with one stacked numpy call. Product blocks get no group: the
engine folds them into the sums that read them, and a sum group reads its
products' factor tables directly, through the take indices the plan
resolves once. After construction the plan is the circuit; its last group
holds only the root, an ancestor of every other region.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, StructureError, check_floats, check_int, too_large
from .leaves import BERNOULLI, GAUSSIAN, bernoulli_terms, clamped_variances, gaussian_terms
from .region_graph import Region, RegionGraph, validate_region_graph
from .tiles import tile_matmul

LEAF, SUM, PRODUCT = "leaf", "sum", "product"


class Block:
    """A block of identically-wired nodes attached to one region or partition."""

    __slots__ = ("index", "kind", "node", "width", "inputs")

    def __init__(self, index, kind, node, width, inputs=()):
        self.index = index
        self.kind = kind
        self.node = node  # Region for leaf/sum blocks, Partition for products
        self.width = width
        self.inputs: tuple[Block, ...] = tuple(inputs)

    @property
    def scope(self) -> tuple[int, ...]:
        node = self.node
        return node.scope if isinstance(node, Region) else node.parent.scope


class Run(NamedTuple):
    """Consecutive partitions of a folded sum group with the same factor groups.

    Partitions ``parts`` of every member fill input columns ``columns``,
    ``shape = (partitions, left width, right width)`` in row-major order.
    ``left`` and ``right`` are ``(read, slots)``: the factor tables are
    slots ``slots`` of the take along ``Group.reads[read]``.
    """

    parts: slice
    columns: slice
    left: tuple[int, slice]
    right: tuple[int, slice]
    shape: tuple[int, int, int]


class Group:
    """Same-shape leaf or sum blocks of one level, evaluated together as one tensor.

    The group's table is a (G, N, width) tensor, row ``m`` of which is the
    (N, width) table of member ``m``, the block on region ``regions[m]``.
    ``scope`` holds the (G, d) variable indices of a leaf group.
    ``columns`` is a member's parameter columns: a leaf group's scope size
    d, a sum group's input columns K.

    A sum group reads ``reads``: one ``(group, at, distinct)`` per plan
    group whose table it takes rows of, with ``at`` a (G, k) index array
    and ``distinct`` True when its entries are all distinct. It folds its
    products in: it takes their factors, in (left ‖ right) × partition
    order, and ``runs`` (see ``Run``) says which slots of which take
    multiply into which input columns. A sum group that mixes leaves
    directly (a single-variable root) has one read of one slot and no
    runs; a leaf group reads nothing.
    """

    __slots__ = ("index", "kind", "regions", "width", "columns", "scope", "reads", "runs")

    def __init__(self, index: int, blocks: list[Block], place: dict[int, tuple[int, int]]):
        first = blocks[0]
        self.index = index
        self.kind = first.kind
        self.regions = tuple(b.node.index for b in blocks)
        self.width = first.width
        self.columns = (
            len(first.scope) if first.kind == LEAF else sum(b.width for b in first.inputs)
        )
        self.scope = np.array([b.scope for b in blocks]) if first.kind == LEAF else None
        self.reads, self.runs = _fold(blocks, place) if first.kind == SUM else ((), ())


def _factors(block: Block) -> list[Block]:
    """The blocks whose tables a sum block reads: its products' factors, or its leaves."""
    if block.inputs[0].kind != PRODUCT:
        return list(block.inputs)  # a single-variable root mixes its leaves
    return [p.inputs[side] for side in (0, 1) for p in block.inputs]


def _fold(blocks: list[Block], place: dict[int, tuple[int, int]]):
    """The ``reads`` and ``runs`` of a sum group (see ``Group``); ``place`` is
    ``compile_plan``'s (plan group, member) of each block index."""
    first = blocks[0]
    rows = [_factors(block) for block in blocks]
    slot_groups = [place[child.index][0] for child in rows[0]]
    reads, where = [], {}  # where[slot] = (read, slot's index within that take)
    for src in dict.fromkeys(slot_groups):
        taken = [s for s, g in enumerate(slot_groups) if g == src]
        where.update((s, (len(reads), k)) for k, s in enumerate(taken))
        at = np.array([[place[row[s].index][1] for s in taken] for row in rows])
        reads.append((src, at, len(set(at.flat)) == at.size))
    if first.inputs[0].kind != PRODUCT:
        return tuple(reads), ()

    def factors(j):
        left, right = first.inputs[j].inputs
        return place[left.index][0], place[right.index][0], left.width, right.width

    parts = len(first.inputs)
    runs, start, column = [], 0, 0
    while start < parts:
        end = start + 1
        while end < parts and factors(end) == factors(start):
            end += 1
        _, _, wl, wr = factors(start)
        count = end - start
        (lr, lk), (rr, rk) = where[start], where[parts + start]
        runs.append(Run(
            slice(start, end),
            slice(column, column + count * wl * wr),
            (lr, slice(lk, lk + count)),
            (rr, slice(rk, rk + count)),
            (count, wl, wr),
        ))
        start, column = end, column + count * wl * wr
    return tuple(reads), tuple(runs)


_KIND_ORDER = {LEAF: 0, PRODUCT: 1, SUM: 2}


def _bottom_up(blocks: list[Block]) -> list[Block]:
    """The blocks reordered so that each one follows every block it reads.

    Sorts by (scope size, leaf < product < sum). This holds for the blocks
    of a validated region graph: a partition's children are strictly
    smaller than its parent, and a single-variable root's leaf block
    shares the root's scope. A loop over this order needs no recursion, so
    a region graph of any depth compiles.
    """
    return sorted(blocks, key=lambda block: (len(block.scope), _KIND_ORDER[block.kind]))


def compile_plan(blocks: list[Block]) -> list[Group]:
    """Split the leaf and sum blocks into groups one stacked call can evaluate.

    A leaf block has level 0, a sum block one more than the highest level
    of the blocks it reads (``_factors``). Within a level, leaves group by
    (width, scope size) and sums by width and the (width, group) of every
    block they read. Groups follow level order, and within a level the
    order of their first block; members keep block-index order.
    """
    levels: dict[int, int] = {}
    for block in _bottom_up([b for b in blocks if b.kind != PRODUCT]):
        levels[block.index] = (
            0 if block.kind == LEAF else 1 + max(levels[b.index] for b in _factors(block))
        )
    layers: dict[int, list[Block]] = {}
    for block in blocks:
        if block.kind != PRODUCT:
            layers.setdefault(levels[block.index], []).append(block)
    plan: list[Group] = []
    place: dict[int, tuple[int, int]] = {}  # block index -> (plan group, member)
    for depth in sorted(layers):
        members: dict[tuple, list[Block]] = {}
        for block in layers[depth]:
            if block.kind == LEAF:
                key = (LEAF, block.width, len(block.scope))
            else:
                key = (SUM, block.width,
                       tuple((b.width, place[b.index][0]) for b in _factors(block)))
            members.setdefault(key, []).append(block)
        for group_blocks in members.values():
            place.update((b.index, (len(plan), m)) for m, b in enumerate(group_blocks))
            plan.append(Group(len(plan), group_blocks, place))
    return plan


@dataclass
class Circuit:
    graph: RegionGraph
    classes_C: int
    sums_S: int
    leaves_I: int
    leaf_family: str
    # only construction reads blocks; they are kept, with kind, width, inputs and
    # scope, because the benchmark's workloads.computed_counts counts from them
    blocks: list[Block]
    plan: list[Group]  # compiled layer plan, in evaluation order; the root is plan[-1] member 0

    @property
    def num_vars(self) -> int:
        return self.graph.num_vars

    def stack_depth(self) -> int:
        """Longest chain of sum and product layers from the root down to a leaf.

        2 more than the deepest child of each partition, in scope-size order
        (no recursion); 0 for a leaf region, 1 for a single-variable root.
        """
        depth: dict[int, int] = {}  # region index -> depth, of split regions
        for part in sorted(self.graph.partitions, key=lambda p: len(p.parent.scope)):
            below = 2 + max(depth.get(child.index, 0) for child in part.children)
            depth[part.parent.index] = max(depth.get(part.parent.index, 0), below)
        return depth.get(self.graph.root.index, 1)


PARAM_NAMES = ("sum_logits", "leaf_means", "leaf_log_vars", "leaf_logits")


class ParamTensor(NamedTuple):
    """Where one plan group's matrices of one parameter name live in ``flat``."""

    name: str  # one of PARAM_NAMES
    group: int  # plan group index
    offset: int
    shape: tuple[int, int, int]  # (members, rows, cols)
    scope: np.ndarray | None = None  # a leaf tensor's variable per (member, col), read-only

    def __eq__(self, other):  # an array field compares by value
        return self[:4] == other[:4] and np.array_equal(self.scope, other.scope)

    def __ne__(self, other):
        return not self == other

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1] * self.shape[2]

    def view(self, flat: np.ndarray) -> np.ndarray:
        return flat[self.offset : self.offset + self.size].reshape(self.shape)


def parameter_layout(circuit: Circuit, train_variance: bool = False) -> tuple[ParamTensor, ...]:
    """Every parameter tensor of the circuit, in ``ParameterSet.flat`` order.

    This is the one place parameter shapes are decided. A sum block has one
    logit row per node and one column per input column; a leaf block has
    one row per node and one column per scope variable, holding Gaussian
    means (plus log-variances when ``train_variance``) or Bernoulli logits.
    A plan group's matrices of one name form one (G, rows, cols) tensor,
    one per member. Tensors come in
    ``PARAM_NAMES`` order, within each name in plan order.
    """
    if circuit.leaf_family == BERNOULLI:
        leaf_names = ("leaf_logits",)
    elif train_variance:
        leaf_names = ("leaf_means", "leaf_log_vars")
    else:
        leaf_names = ("leaf_means",)
    layout, offset = [], 0
    for name in PARAM_NAMES:
        for group in circuit.plan:
            if name in (leaf_names if group.kind == LEAF else ("sum_logits",)):
                shape = (len(group.regions), group.width, group.columns)
                scope = _read_only(group.scope.ravel()) if group.kind == LEAF else None
                layout.append(ParamTensor(name, group.index, offset, shape, scope))
                offset += layout[-1].size
    return tuple(layout)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis: the weights of sum nodes.

    A logit gap that overflows to -inf gives weight 0, without a warning.
    """
    with np.errstate(over="ignore"):
        w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return w


class SumTerms(NamedTuple):
    """What a sum kernel reads of its logits: (G, S, K) softmax weights
    ``w``; ``q``, (G, 1, S): each weight row's sum, by the tile GEMM that
    mixes the inputs (``tiles.tile_matmul``), on a row-major row of ones;
    and its log, ``log_q``.
    """

    w: np.ndarray
    q: np.ndarray
    log_q: np.ndarray


def sum_terms(logits: np.ndarray) -> SumTerms:
    """The ``SumTerms`` of sum logits."""
    w = softmax(logits)
    q = tile_matmul(np.ones(w.shape[:-2] + (1, w.shape[-1])), w.swapaxes(-1, -2))
    return SumTerms(w, q, np.log(q))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ParameterSet:
    """Trainable parameters: a value holding one read-only float64 vector.

    ``flat`` is a private copy of the vector it was built from, holding
    every parameter in ``layout`` order: a plan group's matrices are
    ``stacked(name, group)``, and member ``m``'s, on region
    ``group.regions[m]``, is ``stacked(name, group)[m]``. A sum member's
    logit matrix has one row per sum node and one column per input column;
    normalized weights are softmax rows. A leaf member holds a (width, scope
    size) matrix of Gaussian means, plus the matching log-variances when
    ``train_variance``, or Bernoulli success log-odds. Every view is
    read-only; new values make a new set, e.g.
    ``ParameterSet(params.layout, params.flat + noise)``.

    ``terms(group)`` derives what the kernels read from a plan group's
    parameters on first use and keeps it, and so does ``centre``, so a set
    pays for them once however many batches it evaluates.
    """

    def __init__(self, layout: tuple[ParamTensor, ...], flat: np.ndarray | None = None):
        self.layout = layout
        size = sum(tensor.size for tensor in layout)
        self.flat = _read_only(np.zeros(size) if flat is None else np.array(flat, dtype=float))
        self._tensors = {(tensor.name, tensor.group): tensor for tensor in layout}
        self.train_variance = any(tensor.name == "leaf_log_vars" for tensor in layout)
        self._terms: dict[int, object] = {}

    def stacked(self, name: str, plan_group: Group, flat: np.ndarray | None = None) -> np.ndarray:
        """The zero-copy (G, rows, cols) view of a plan group's ``name`` matrices.

        A vector in this set's layout given as ``flat`` is viewed in place of
        ``self.flat``, so a caller can fill a writable one group by group.
        """
        return self._tensors[name, plan_group.index].view(self.flat if flat is None else flat)

    @cached_property
    def centre(self) -> np.ndarray:
        """The (V,) centre ``c`` of each variable's leaf statistics, computed once.

        The mean of the variable's leaf means over every leaf group, so that
        large, close values and means do not cancel, where it lies farther
        from 0 than their spread and their squares are finite; else, and
        for Bernoulli leaves, 0. Read-only.
        """
        num_vars = 1 + max(t.scope.max() for t in self.layout if t.scope is not None)
        moments = np.zeros((3, num_vars))  # leaf count, sum and sum of squared means
        with np.errstate(over="ignore", invalid="ignore"):  # inf, nan or 0 / 0: centre 0
            for tensor in (t for t in self.layout if t.name == "leaf_means"):
                means = tensor.view(self.flat)
                moments[0] += np.bincount(tensor.scope, minlength=num_vars) * means.shape[1]
                for row, value in zip(moments[1:], (means, means * means)):
                    row += np.bincount(tensor.scope, value.sum(axis=1).ravel(), num_vars)
            mean, mean_square = moments[1:] / moments[0]
            return _read_only(np.where(2 * mean * mean > mean_square, mean, 0.0))

    def terms(self, plan_group: Group):
        """What the kernels read from a plan group's parameters, computed once.

        A sum group gives its ``sum_terms``. A leaf group gives
        ``leaves.gaussian_terms`` of its means less ``centre`` (clamped
        variances with variance training, else ones) or ``bernoulli_terms``,
        group-major (G, I, d) as ``stacked``. Every array is read-only.
        """
        terms = self._terms.get(plan_group.index)
        if terms is None:
            if plan_group.kind == SUM:
                terms = sum_terms(self.stacked("sum_logits", plan_group))
            elif ("leaf_logits", plan_group.index) in self._tensors:
                terms = bernoulli_terms(self.stacked("leaf_logits", plan_group))
            else:
                means = self.stacked("leaf_means", plan_group)
                variances = np.ones_like(means)
                if self.train_variance:
                    variances = clamped_variances(self.stacked("leaf_log_vars", plan_group))
                terms = gaussian_terms(means - self.centre[plan_group.scope][:, None], variances)
            for array in terms:
                _read_only(array)
            self._terms[plan_group.index] = terms
        return terms


def construct_circuit(
    graph: RegionGraph,
    classes_C: int,
    sums_S: int,
    leaves_I: int,
    leaf_family: str = GAUSSIAN,
) -> Circuit:
    """Build the layered block circuit for a region graph.

    Raises StructureError, listing every violation, unless the graph passes
    ``validate_region_graph``. The blocks mirror a graph that passes, so the
    circuit is complete and decomposable by construction.
    """
    classes_C = check_int("classes_C", classes_C, 1)
    sums_S = check_int("sums_S", sums_S, 1)
    leaves_I = check_int("leaves_I", leaves_I, 1)
    if leaf_family not in (GAUSSIAN, BERNOULLI):
        raise InvalidInput(f"unknown leaf family {leaf_family!r}")
    report = validate_region_graph(graph)
    if not report.ok:
        raise StructureError(f"invalid region graph: {report.violations}")

    blocks: list[Block] = []
    on_region: dict[int, Block] = {}  # region index -> its sum or leaf block

    def new_block(kind, node, width, inputs=()):
        block = Block(len(blocks), kind, node, width, inputs)
        blocks.append(block)
        return block

    root = graph.root
    split = {id(part.parent) for part in graph.partitions}
    for region in graph.regions:
        if id(region) in split:
            block = new_block(SUM, region, classes_C if region is root else sums_S)
        elif region is root:
            # single-variable corner: C sums mixing I leaves directly
            leaf = new_block(LEAF, region, leaves_I)
            block = new_block(SUM, region, classes_C, [leaf])
        else:
            block = new_block(LEAF, region, leaves_I)
        on_region[region.index] = block

    for part in graph.partitions:  # in index order, so a sum's inputs are too
        left = on_region[part.children[0].index]
        right = on_region[part.children[1].index]
        product = new_block(PRODUCT, part, left.width * right.width, [left, right])
        on_region[part.parent.index].inputs += (product,)

    return Circuit(
        graph=graph,
        classes_C=classes_C,
        sums_S=sums_S,
        leaves_I=leaves_I,
        leaf_family=leaf_family,
        blocks=blocks,
        plan=compile_plan(blocks),
    )


def count_parameters(circuit: Circuit, train_variance: bool = False) -> dict[str, int]:
    """Exact parameter counts for the circuit's blocks."""
    layout = parameter_layout(circuit, train_variance)
    num_sum_logits = sum(tensor.size for tensor in layout if tensor.name == "sum_logits")
    total = sum(tensor.size for tensor in layout)
    return {
        "num_sum_logits": num_sum_logits,
        "num_leaf_params": total - num_sum_logits,
        "total": total,
    }


def init_parameters(
    circuit: Circuit,
    seed: int | None = None,
    feature_stats: tuple[np.ndarray, np.ndarray] | None = None,
    train_variance: bool = False,
) -> ParameterSet:
    """Draw an initial ParameterSet.

    Sum logits start near zero (spread 1e-2) so every mixture begins close
    to uniform. Gaussian means are standard normal draws, rescaled per
    feature to ``mean + std * z`` when ``feature_stats = (means, stds)`` of
    the training data are supplied, each a ``(num_vars,)`` vector.
    Trainable log-variances start at 0. Draws are taken member by member,
    in region order, a single-variable root's leaves before its sums.
    Raises InvalidInput ("model too large") when numpy cannot allocate the
    parameter vector.
    """
    if seed is not None:
        seed = check_int("seed", seed, 0)
    mu = sd = None
    if feature_stats is not None:
        stats = check_floats("feature_stats", feature_stats)
        if stats.shape != (2, circuit.num_vars):
            raise InvalidInput(f"feature_stats must be two ({circuit.num_vars},) vectors")
        mu, sd = stats
    rng = np.random.default_rng(seed)
    layout = parameter_layout(circuit, train_variance)
    with too_large("model"):
        params = ParameterSet(layout)
        flat = np.zeros_like(params.flat)

    members = sorted(  # (region, a sum, plan group, member): leaves first on a shared region
        (region, group.kind == SUM, group.index, m)
        for group in circuit.plan for m, region in enumerate(group.regions)
    )
    for _, _, index, m in members:
        group = circuit.plan[index]
        if group.kind == SUM:
            logits = params.stacked("sum_logits", group, flat)[m]
            logits[...] = rng.normal(0.0, 1e-2, size=logits.shape)
        elif circuit.leaf_family == BERNOULLI:
            logits = params.stacked("leaf_logits", group, flat)[m]
            logits[...] = rng.standard_normal(logits.shape)
        else:
            means = params.stacked("leaf_means", group, flat)[m]
            z = rng.standard_normal(means.shape)
            if mu is not None:
                scope = group.scope[m]
                z = mu[scope] + sd[scope] * z
            means[...] = z
    return ParameterSet(params.layout, flat)
