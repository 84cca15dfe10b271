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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, StructureError
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

    __slots__ = ("index", "kind", "node", "width", "inputs", "level")

    def __init__(self, index, kind, node, width, inputs=()):
        self.index = index
        self.kind = kind
        self.node = node  # Region for leaf/sum blocks, Partition for products
        self.width = width
        self.inputs: tuple[Block, ...] = tuple(inputs)
        self.level = 0

    @property
    def scope(self) -> tuple[int, ...]:
        node = self.node
        return node.scope if isinstance(node, Region) else node.parent.scope

    def __repr__(self):
        return f"Block#{self.index}({self.kind}, width={self.width}, scope={list(self.scope)})"


@dataclass
class Circuit:
    graph: RegionGraph
    classes_C: int
    sums_S: int
    leaves_I: int
    leaf_family: str
    blocks: list[Block]
    region_block: dict[int, Block]       # region index -> sum or leaf block
    partition_block: dict[int, Block]    # partition index -> product block
    leaf_input_block: dict[int, Block]   # region index -> leaf block feeding a 1-var root
    layer_order: list[list[Block]]

    @property
    def num_vars(self) -> int:
        return self.graph.num_vars

    @property
    def root_block(self) -> Block:
        return self.region_block[self.graph.root.index]

    def sum_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.kind == SUM]

    def leaf_blocks(self) -> list[Block]:
        return [b for b in self.blocks if b.kind == LEAF]

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
    Slots are grouped in ``GROUPS`` order and sorted by block index within a
    group.
    """
    if circuit.leaf_family == BERNOULLI:
        leaf_groups = ("leaf_logits",)
    elif train_variance:
        leaf_groups = ("leaf_means", "leaf_log_vars")
    else:
        leaf_groups = ("leaf_means",)
    columns: dict[str, list] = {group: [] for group in GROUPS}
    for block in circuit.blocks:
        if block.kind == SUM:
            columns["sum_logits"].append((block, sum(b.width for b in block.inputs)))
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


class ParameterSet:
    """Trainable parameters: one contiguous float64 vector with named views.

    ``flat`` holds every parameter in ``layout`` order. ``sum_logits[b]`` is
    the logit matrix of sum block ``b``, one row per sum node and one column
    per input column; normalized weights are softmax rows. ``leaf_means[b]``
    holds a (width, scope size) matrix of Gaussian means, ``leaf_log_vars``
    the matching log-variances when variance training is on (None
    otherwise). Bernoulli circuits use ``leaf_logits`` (success log-odds)
    instead of means. Every named matrix is a view into ``flat``.
    """

    def __init__(self, layout: tuple[ParamSlot, ...], flat: np.ndarray | None = None):
        self.layout = layout
        self.flat = np.zeros(sum(slot.size for slot in layout)) if flat is None else flat
        views: dict[str, dict[int, np.ndarray]] = {group: {} for group in GROUPS}
        for slot in layout:
            views[slot.group][slot.block] = slot.view(self.flat)
        self.sum_logits = views["sum_logits"]
        self.leaf_means = views["leaf_means"]
        self.leaf_log_vars = views["leaf_log_vars"] or None
        self.leaf_logits = views["leaf_logits"]

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.layout, self.flat.copy())

    def zeros_like(self) -> "ParameterSet":
        return ParameterSet(self.layout)


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
    leaf_input_block: dict[int, Block] = {}

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
                leaf_input_block[region.index] = leaf
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

    memo: dict[int, int] = {}

    def level_of(block: Block) -> int:
        if not block.inputs:
            return 0
        if block.index not in memo:
            memo[block.index] = 1 + max(level_of(b) for b in block.inputs)
        return memo[block.index]

    max_level = 0
    for block in blocks:
        block.level = level_of(block)
        max_level = max(max_level, block.level)
    layer_order = [[] for _ in range(max_level + 1)]
    for block in blocks:
        layer_order[block.level].append(block)

    return Circuit(
        graph=graph,
        classes_C=classes_C,
        sums_S=sums_S,
        leaves_I=leaves_I,
        leaf_family=leaf_family,
        blocks=blocks,
        region_block=region_block,
        partition_block=partition_block,
        leaf_input_block=leaf_input_block,
        layer_order=layer_order,
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
    params = ParameterSet(parameter_layout(circuit, train_variance))
    mu, sd = (None, None) if feature_stats is None else feature_stats

    for block in circuit.blocks:
        if block.kind == SUM:
            logits = params.sum_logits[block.index]
            logits[...] = rng.normal(0.0, 1e-2, size=logits.shape)
        elif block.kind == LEAF:
            if circuit.leaf_family == BERNOULLI:
                logits = params.leaf_logits[block.index]
                logits[...] = rng.standard_normal(logits.shape)
                continue
            means = params.leaf_means[block.index]
            z = rng.standard_normal(means.shape)
            if mu is not None:
                scope = list(block.scope)
                z = np.asarray(mu)[scope] + np.asarray(sd)[scope] * z
            means[...] = z
    return params
