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

Construction also compiles the leaf and sum blocks into a layer plan of
groups of same-shape blocks that read the same groups, so the engine
evaluates a whole group with one stacked numpy call. Product blocks get no
group: the engine folds them into the sums that read them, and a sum group
reads its products' factor tables directly, through the take indices the
plan resolves once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, StructureError, check_int
from .leaves import bernoulli_terms, clamped_variances, gaussian_terms
from .region_graph import Region, RegionGraph, validate_region_graph
from .tiles import TILE, tile_matmul

LEAF, SUM, PRODUCT = "leaf", "sum", "product"
GAUSSIAN, BERNOULLI = "gaussian", "bernoulli"


class Block:
    """A block of identically-wired nodes attached to one region or partition."""

    __slots__ = ("index", "kind", "node", "width", "inputs", "group", "position")

    def __init__(self, index, kind, node, width, inputs=()):
        self.index = index
        self.kind = kind
        self.node = node  # Region for leaf/sum blocks, Partition for products
        self.width = width
        self.inputs: tuple[Block, ...] = tuple(inputs)
        self.group = -1  # plan group index of a leaf or sum block, set by compile_plan
        self.position = -1  # index within that group

    @property
    def scope(self) -> tuple[int, ...]:
        node = self.node
        return node.scope if isinstance(node, Region) else node.parent.scope

    def __repr__(self):
        return f"Block#{self.index}({self.kind}, width={self.width}, scope={list(self.scope)})"


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

    The group's table is a (G, N, width) tensor, row ``position`` of which
    is the (N, width) table of member block ``blocks[position]``.
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
    runs; a leaf group reads nothing. ``release`` lists the groups this
    group is the last reader of.
    """

    __slots__ = (
        "index", "kind", "blocks", "width", "columns", "scope", "reads", "runs", "release",
    )

    def __init__(self, index: int, blocks: list[Block]):
        first = blocks[0]
        self.index = index
        self.kind = first.kind
        self.blocks = tuple(blocks)
        self.width = first.width
        self.columns = (
            len(first.scope) if first.kind == LEAF else sum(b.width for b in first.inputs)
        )
        self.scope = np.array([b.scope for b in blocks]) if first.kind == LEAF else None
        self.reads, self.runs = _fold(blocks) if first.kind == SUM else ((), ())
        self.release: tuple[int, ...] = ()


def _factors(block: Block) -> list[Block]:
    """The blocks whose tables a sum block reads: its products' factors, or its leaves."""
    if block.inputs[0].kind != PRODUCT:
        return list(block.inputs)  # a single-variable root mixes its leaves
    return [p.inputs[side] for side in (0, 1) for p in block.inputs]


def _fold(blocks: list[Block]):
    """The ``reads`` and ``runs`` of a sum group (see ``Group``)."""
    first = blocks[0]
    rows = [_factors(block) for block in blocks]
    slot_groups = [child.group for child in rows[0]]
    reads, where = [], {}  # where[slot] = (read, slot's index within that take)
    for src in dict.fromkeys(slot_groups):
        taken = [s for s, g in enumerate(slot_groups) if g == src]
        where.update((s, (len(reads), k)) for k, s in enumerate(taken))
        at = np.array([[row[s].position for s in taken] for row in rows])
        reads.append((src, at, len(set(at.flat)) == at.size))
    if first.inputs[0].kind != PRODUCT:
        return tuple(reads), ()

    def factors(j):
        left, right = first.inputs[j].inputs
        return left.group, right.group, left.width, right.width

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
    order of their first block; members keep block-index order. Sets each
    grouped block's ``group`` and ``position``.
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
    for depth in sorted(layers):
        members: dict[tuple, list[Block]] = {}
        for block in layers[depth]:
            if block.kind == LEAF:
                key = (LEAF, block.width, len(block.scope))
            else:
                key = (SUM, block.width, tuple((b.width, b.group) for b in _factors(block)))
            members.setdefault(key, []).append(block)
        for group_blocks in members.values():
            for position, block in enumerate(group_blocks):
                block.group, block.position = len(plan), position
            plan.append(Group(len(plan), group_blocks))
    last_reader = {src: group.index for group in plan for src, _, _ in group.reads}
    for group in plan:
        group.release = tuple(s for s, reader in last_reader.items() if reader == group.index)
    return plan


@dataclass
class Circuit:
    graph: RegionGraph
    classes_C: int
    sums_S: int
    leaves_I: int
    leaf_family: str
    blocks: list[Block]
    region_block: dict[int, Block]  # region index -> sum or leaf block
    plan: list[Group]  # compiled layer plan, in evaluation order

    @property
    def num_vars(self) -> int:
        return self.graph.num_vars

    @property
    def root_block(self) -> Block:
        return self.region_block[self.graph.root.index]

    def stack_depth(self) -> int:
        """Longest chain of sum/product blocks from the root down to a leaf block."""
        depth: dict[int, int] = {}
        for block in _bottom_up(self.blocks):
            depth[block.index] = (
                0 if block.kind == LEAF else 1 + max(depth[b.index] for b in block.inputs)
            )
        return depth[self.root_block.index]


PARAM_NAMES = ("sum_logits", "leaf_means", "leaf_log_vars", "leaf_logits")


class ParamTensor(NamedTuple):
    """Where one plan group's matrices of one parameter name live in ``flat``."""

    name: str  # one of PARAM_NAMES
    group: int  # plan group index
    offset: int
    shape: tuple[int, int, int]  # (members, rows, cols)

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
    member ``block.position`` holding its block's. Tensors come in
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
                shape = (len(group.blocks), group.width, group.columns)
                layout.append(ParamTensor(name, group.index, offset, shape))
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
    ``w``, and ``q``, (G, 1, S): each weight row's sum, by the tile GEMM
    that mixes the inputs (``tiles.tile_matmul``), on a tile of ones.
    """

    w: np.ndarray
    q: np.ndarray


def sum_terms(logits: np.ndarray) -> SumTerms:
    """The ``SumTerms`` of sum logits."""
    w = softmax(logits)
    ones = np.ones(w.shape[:-2] + (TILE, w.shape[-1]))
    return SumTerms(w, tile_matmul(ones, w.swapaxes(-1, -2))[..., :1, :])


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ParameterSet:
    """Trainable parameters: a value holding one read-only float64 vector.

    ``flat`` is a private copy of the vector it was built from, holding
    every parameter in ``layout`` order: a plan group's matrices are
    ``stacked(name, group)`` and a block's matrix is
    ``stacked(name, plan[block.group])[block.position]``. A sum block's
    logit matrix has one row per sum node and one column per input column;
    normalized weights are softmax rows. A leaf block holds a (width, scope
    size) matrix of Gaussian means, plus the matching log-variances when
    ``train_variance``, or Bernoulli success log-odds. Every view is
    read-only; new values make a new set, e.g.
    ``ParameterSet(params.layout, params.flat + noise)``.

    ``terms(group)`` derives what the kernels read from a plan group's
    parameters on first use and keeps it, so a set pays for it once however
    many batches it evaluates.
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

    def terms(self, plan_group: Group):
        """What the kernels read from a plan group's parameters, computed once.

        A sum group gives its ``sum_terms``. A leaf group gives
        ``leaves.gaussian_terms`` (clamped variances with variance training,
        else ones)
        or ``leaves.bernoulli_terms``, group-major (G, I, d) as ``stacked``
        holds its parameters. Every array is read-only.
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
                terms = gaussian_terms(means, variances)
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
    region_block: dict[int, Block] = {}

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
        region_block[region.index] = block

    for part in graph.partitions:  # in index order, so a sum's inputs are too
        left = region_block[part.children[0].index]
        right = region_block[part.children[1].index]
        product = new_block(PRODUCT, part, left.width * right.width, [left, right])
        region_block[part.parent.index].inputs += (product,)

    return Circuit(
        graph=graph,
        classes_C=classes_C,
        sums_S=sums_S,
        leaves_I=leaves_I,
        leaf_family=leaf_family,
        blocks=blocks,
        region_block=region_block,
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
    Trainable log-variances start at 0. Draws are taken block by block, in
    block index order.
    """
    if seed is not None:
        seed = check_int("seed", seed, 0)
    mu = sd = None
    if feature_stats is not None:
        stats = [np.asarray(stat, dtype=float) for stat in feature_stats]
        if [stat.shape for stat in stats] != [(circuit.num_vars,)] * 2:
            raise InvalidInput(f"feature_stats must be two ({circuit.num_vars},) vectors")
        mu, sd = stats
    rng = np.random.default_rng(seed)
    params = ParameterSet(parameter_layout(circuit, train_variance))
    flat = np.zeros_like(params.flat)

    for block in circuit.blocks:
        if block.kind == PRODUCT:
            continue
        group = circuit.plan[block.group]
        if block.kind == SUM:
            logits = params.stacked("sum_logits", group, flat)[block.position]
            logits[...] = rng.normal(0.0, 1e-2, size=logits.shape)
        elif circuit.leaf_family == BERNOULLI:
            logits = params.stacked("leaf_logits", group, flat)[block.position]
            logits[...] = rng.standard_normal(logits.shape)
        else:
            means = params.stacked("leaf_means", group, flat)[block.position]
            z = rng.standard_normal(means.shape)
            if mu is not None:
                scope = list(block.scope)
                z = mu[scope] + sd[scope] * z
            means[...] = z
    return ParameterSet(params.layout, flat)
