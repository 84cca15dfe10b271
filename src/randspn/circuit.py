"""Populate a region graph with tensorized node blocks.

Every region carries one block of nodes: leaf regions get ``leaves_I``
input distributions, the root gets ``classes_C`` sum nodes (one per class),
all other regions get ``sums_S`` sum nodes. Every partition carries a
product block pairing each node of its first child region with each node of
its second (column order: left index * right width + right index). The
products of all child partitions of a region, concatenated in partition-index
order, are the inputs of every sum node in that region.

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

from .errors import InvalidInput, StructureError
from .leaves import bernoulli_terms, clamped_variances, gaussian_terms
from .region_graph import (
    Region,
    RegionGraph,
    ValidationReport,
    validate_region_graph,
)

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
        "index", "kind", "blocks", "width", "input_widths", "scope", "reads", "runs", "release",
    )

    def __init__(self, index: int, blocks: list[Block]):
        first = blocks[0]
        self.index = index
        self.kind = first.kind
        self.blocks = tuple(blocks)
        self.width = first.width
        self.input_widths = tuple(b.width for b in first.inputs)
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

    def level(block: Block) -> int:
        if block.index not in levels:
            levels[block.index] = (
                0 if block.kind == LEAF else 1 + max(level(b) for b in _factors(block))
            )
        return levels[block.index]

    layers: dict[int, list[Block]] = {}
    for block in blocks:
        if block.kind != PRODUCT:
            layers.setdefault(level(block), []).append(block)
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
        memo: dict[int, int] = {}

        def depth(block: Block) -> int:
            if block.kind == LEAF:
                return 0
            if block.index not in memo:
                memo[block.index] = 1 + max(depth(b) for b in block.inputs)
            return memo[block.index]

        return depth(self.root_block)


GROUPS = ("sum_logits", "leaf_means", "leaf_log_vars", "leaf_logits")


class ParamSlot(NamedTuple):
    """Where one block's parameter matrix lives in ``ParameterSet.flat``."""

    group: str  # one of GROUPS
    block: int  # owning block index
    region: int  # owning region index, the key used in model files
    offset: int
    shape: tuple[int, int]

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    def view(self, flat: np.ndarray) -> np.ndarray:
        return flat[self.offset : self.offset + self.size].reshape(self.shape)


def parameter_layout(circuit: Circuit, train_variance: bool = False) -> tuple[ParamSlot, ...]:
    """Every parameter matrix of the circuit, in ``ParameterSet.flat`` order.

    This is the one place per-block parameter shapes are decided. A sum block
    has one logit row per node and one column per input column; a leaf block
    has one row per node and one column per scope variable, holding Gaussian
    means (plus log-variances when ``train_variance``) or Bernoulli logits.
    Slots come in ``GROUPS`` order; within each, plan group by plan group,
    so every plan group's matrices are adjacent and form one
    (G, rows, cols) block of ``flat`` (see ``ParameterSet.stacked``).
    """
    if circuit.leaf_family == BERNOULLI:
        leaf_groups = ("leaf_logits",)
    elif train_variance:
        leaf_groups = ("leaf_means", "leaf_log_vars")
    else:
        leaf_groups = ("leaf_means",)
    columns: dict[str, list] = {group: [] for group in GROUPS}
    for plan_group in circuit.plan:
        for block in plan_group.blocks:
            if block.kind == SUM:
                columns["sum_logits"].append((block, sum(plan_group.input_widths)))
            elif block.kind == LEAF:
                for group in leaf_groups:
                    columns[group].append((block, len(block.scope)))

    slots = []
    offset = 0
    for group in GROUPS:
        for block, k in columns[group]:
            slots.append(ParamSlot(group, block.index, block.node.index, offset, (block.width, k)))
            offset += block.width * k
    return tuple(slots)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis: the weights of sum nodes."""
    w = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ParameterSet:
    """Trainable parameters: a value holding one read-only float64 vector.

    ``flat`` is a private copy of the vector it was built from, holding
    every parameter in ``layout`` order: a block's matrix is
    ``slot.view(params.flat)`` and a plan group's matrices are
    ``stacked(name, group)``. A sum block's logit matrix has one row per
    sum node and one column per input column; normalized weights are
    softmax rows. A leaf block holds a (width, scope size) matrix of
    Gaussian means, plus the matching log-variances when
    ``train_variance``, or Bernoulli success log-odds. Every view is
    read-only; new values make a new set, e.g.
    ``ParameterSet(params.layout, params.flat + noise)``.

    ``terms(group)`` derives what the kernels read from a plan group's
    parameters on first use and keeps it, so a set pays for it once however
    many batches it evaluates.
    """

    def __init__(self, layout: tuple[ParamSlot, ...], flat: np.ndarray | None = None):
        self.layout = layout
        size = sum(slot.size for slot in layout)
        self.flat = _read_only(np.zeros(size) if flat is None else np.array(flat, dtype=float))
        self._slots = {(slot.group, slot.block): slot for slot in layout}
        self.train_variance = any(slot.group == "leaf_log_vars" for slot in layout)
        self._terms: dict[int, object] = {}

    def stacked(self, group: str, plan_group: Group, flat: np.ndarray | None = None) -> np.ndarray:
        """The (G, rows, cols) view of a plan group's ``group`` matrices.

        Zero-copy: ``parameter_layout`` puts the members' slots side by side.
        A vector in this set's layout given as ``flat`` is viewed in place of
        ``self.flat``, so a caller can fill a writable one group by group.
        """
        first = self._slots[group, plan_group.blocks[0].index]
        end = first.offset + len(plan_group.blocks) * first.size
        flat = self.flat if flat is None else flat
        return flat[first.offset : end].reshape(len(plan_group.blocks), *first.shape)

    def terms(self, plan_group: Group):
        """What the kernels read from a plan group's parameters, computed once.

        A sum group gives its (G, S, K) softmax weights. A leaf group gives
        ``leaves.gaussian_terms`` (clamped variances with variance training)
        or ``leaves.bernoulli_terms``, node-major. Every array is read-only.
        """
        terms = self._terms.get(plan_group.index)
        if terms is None:
            if plan_group.kind == SUM:
                terms = softmax(self.stacked("sum_logits", plan_group))
            elif ("leaf_logits", plan_group.blocks[0].index) in self._slots:
                terms = bernoulli_terms(self.stacked("leaf_logits", plan_group))
            else:
                variances = None
                if self.train_variance:
                    variances = clamped_variances(self.stacked("leaf_log_vars", plan_group))
                terms = gaussian_terms(self.stacked("leaf_means", plan_group), variances)
            for array in terms if isinstance(terms, tuple) else (terms,):
                if array is not None:
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
    """Build the layered block circuit for a validated region graph."""
    if classes_C < 1 or sums_S < 1 or leaves_I < 1:
        raise InvalidInput("classes_C, sums_S and leaves_I must all be >= 1")
    if leaf_family not in (GAUSSIAN, BERNOULLI):
        raise InvalidInput(f"unknown leaf family {leaf_family!r}")
    report = validate_region_graph(graph)
    if not report.ok:
        raise StructureError(f"invalid region graph: {report.violations}")

    blocks: list[Block] = []
    region_block: dict[int, Block] = {}
    partition_block: dict[int, Block] = {}

    def new_block(kind, node, width, inputs=()):
        block = Block(len(blocks), kind, node, width, inputs)
        blocks.append(block)
        return block

    root = graph.root
    for region in graph.regions:
        if region is root:
            if region.is_leaf:
                # single-variable corner: C sums mixing I leaves directly
                leaf = new_block(LEAF, region, leaves_I)
                region_block[region.index] = new_block(SUM, region, classes_C, [leaf])
            else:
                region_block[region.index] = new_block(SUM, region, classes_C)
        elif region.is_leaf:
            region_block[region.index] = new_block(LEAF, region, leaves_I)
        else:
            region_block[region.index] = new_block(SUM, region, sums_S)

    for part in graph.partitions:
        left = region_block[part.children[0].index]
        right = region_block[part.children[1].index]
        partition_block[part.index] = new_block(
            PRODUCT, part, left.width * right.width, [left, right]
        )

    for region in graph.regions:
        if region.child_partitions:
            block = region_block[region.index]
            block.inputs = tuple(
                partition_block[p.index]
                for p in sorted(region.child_partitions, key=lambda p: p.index)
            )

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


def block_scope(block: Block) -> set[int]:
    """Scope implied by the wiring (bottom-up union), not the declared one."""
    if block.kind == LEAF:
        return set(block.node.scope)
    if block.kind == PRODUCT:
        return block_scope(block.inputs[0]) | block_scope(block.inputs[1])
    scopes = [block_scope(b) for b in block.inputs]
    return set().union(*scopes) if scopes else set()


def validate_circuit(circuit: Circuit) -> ValidationReport:
    """Check completeness, decomposability, scopes and wiring widths."""
    report = ValidationReport()

    for block in circuit.blocks:
        if block.kind == LEAF:
            if block.width != circuit.leaves_I:
                report.add(f"{block}: leaf width {block.width} != {circuit.leaves_I}")
        elif block.kind == PRODUCT:
            left, right = block.inputs
            if block.width != left.width * right.width:
                report.add(
                    f"{block}: product width {block.width} != "
                    f"{left.width} * {right.width}"
                )
            left_scope, right_scope = block_scope(left), block_scope(right)
            overlap = left_scope & right_scope
            if overlap:
                report.add(
                    f"decomposability violated at products of {block}: "
                    f"children share variables {sorted(overlap)}"
                )
            part = block.node
            if left_scope | right_scope != set(part.parent.scope):
                report.add(
                    f"{block}: child scopes union {sorted(left_scope | right_scope)} "
                    f"!= parent region scope {list(part.parent.scope)}"
                )
        else:
            region = block.node
            expected = (
                circuit.classes_C
                if circuit.graph.region_kind(region) == "root"
                else circuit.sums_S
            )
            if block.width != expected:
                report.add(f"{block}: sum width {block.width} != configured {expected}")
            if not block.inputs:
                report.add(f"{block}: sum block has no inputs")
                continue
            scopes = {frozenset(block_scope(b)) for b in block.inputs}
            if len(scopes) > 1:
                report.add(
                    f"completeness violated at sums of {block}: input scopes differ "
                    f"({[sorted(s) for s in scopes]})"
                )
            if scopes and next(iter(scopes)) != frozenset(region.scope):
                report.add(
                    f"{block}: input scope {sorted(next(iter(scopes)))} != "
                    f"region scope {list(region.scope)}"
                )
            total = sum(b.width for b in block.inputs)
            got_partitions = [
                b.node.index for b in block.inputs if b.kind == PRODUCT
            ]
            expected_partitions = sorted(p.index for p in region.child_partitions)
            if got_partitions and got_partitions != expected_partitions:
                report.add(
                    f"{block}: wired partitions {got_partitions} != region's "
                    f"child partitions {expected_partitions}"
                )
            if total < 1:
                report.add(f"{block}: zero input columns")
    return report


def count_parameters(circuit: Circuit, train_variance: bool = False) -> dict[str, int]:
    """Exact parameter counts for the circuit's blocks."""
    layout = parameter_layout(circuit, train_variance)
    num_sum_logits = sum(slot.size for slot in layout if slot.group == "sum_logits")
    total = sum(slot.size for slot in layout)
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
    the training data are supplied. Trainable log-variances start at 0.
    Draws are taken block by block, in block index order.
    """
    rng = np.random.default_rng(seed)
    layout = parameter_layout(circuit, train_variance)
    slots = {(slot.group, slot.block): slot for slot in layout}
    flat = np.zeros(sum(slot.size for slot in layout))
    mu, sd = (None, None) if feature_stats is None else feature_stats

    for block in circuit.blocks:
        if block.kind == SUM:
            logits = slots["sum_logits", block.index].view(flat)
            logits[...] = rng.normal(0.0, 1e-2, size=logits.shape)
        elif block.kind == LEAF:
            if circuit.leaf_family == BERNOULLI:
                logits = slots["leaf_logits", block.index].view(flat)
                logits[...] = rng.standard_normal(logits.shape)
                continue
            means = slots["leaf_means", block.index].view(flat)
            z = rng.standard_normal(means.shape)
            if mu is not None:
                scope = list(block.scope)
                z = np.asarray(mu)[scope] + np.asarray(sd)[scope] * z
            means[...] = z
    return ParameterSet(layout, flat)
