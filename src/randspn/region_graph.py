"""Random region graphs: hierarchical balanced splits of a variable set.

A region is a non-empty subset of the variable indices {0, ..., num_vars-1},
kept as a sorted tuple. A partition splits a region into two non-empty,
non-overlapping child regions whose union is the parent. The region graph is
a bipartite DAG alternating between regions and partitions: the full variable
set is the unique root, and a leaf region is one that no partition splits.
``graph.partitions`` is the one record of which partitions split a region:
each names its parent, and a region keeps no list of its own.

Construction draws, for each of R repetitions, a recursive random balanced
split of the root down to depth D (or until regions become singletons).
Region nodes are shared between repetitions when the same scope shows up at
the same split level; partitions are shared when the same unordered scope
pair is drawn under the same parent. Keying nodes by (scope, level) rather
than scope alone keeps every root-to-leaf path at most D partitions long even
when one repetition happens to reproduce a scope at a different depth than
another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_int, too_large

# the most repetitions a graph draws, far above the R = 10 of the 784-variable
# config: 4 variables at depth 1 draw for about 0.7 s at the cap, and their
# draws merge into 3 partitions
MAX_REPETITIONS = 100_000


class Region:
    """One region node. Identity is the node, not the scope."""

    __slots__ = ("index", "scope", "level")

    def __init__(self, index: int, scope: tuple[int, ...], level: int):
        self.index = index
        self.scope = scope
        self.level = level

    def __repr__(self):
        return f"Region({list(self.scope)}@L{self.level})"


class Partition:
    """A 2-way split of a parent region. Children ordered larger scope first."""

    __slots__ = ("index", "parent", "children")

    def __init__(self, index: int, parent: Region, children: tuple[Region, Region]):
        self.index = index
        self.parent = parent
        self.children = children

    def __repr__(self):
        a, b = self.children
        return f"Partition({list(a.scope)} | {list(b.scope)})"


@dataclass
class RegionGraph:
    """The regions (root first) and the partitions that split them.

    A region's partitions are those in ``partitions`` whose ``parent`` it is,
    in list order; a region that none names is a leaf.
    """

    num_vars: int
    depth: int
    repetitions: int
    seed: int | None
    regions: list[Region] = field(default_factory=list)
    partitions: list[Partition] = field(default_factory=list)

    @property
    def root(self) -> Region:
        return self.regions[0]

    def region_kind(self, region: Region) -> str:
        if len(region.scope) == self.num_vars:
            return "root"
        return "internal" if any(p.parent is region for p in self.partitions) else "leaf"

    def structure_signature(self):
        """Hashable summary used to compare graphs for structural identity."""
        regions = tuple((r.level, r.scope) for r in self.regions)
        partitions = tuple(
            (p.parent.level, p.parent.scope, p.children[0].scope, p.children[1].scope)
            for p in self.partitions
        )
        return regions, partitions


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(\n  " + "\n  ".join(self.violations) + "\n)"


def _canonical_children(a: Region, b: Region) -> tuple[Region, Region]:
    # larger-or-equal scope first; equal sizes ordered lexicographically
    return (a, b) if (-len(a.scope), a.scope) <= (-len(b.scope), b.scope) else (b, a)


class _Builder:
    def __init__(self, num_vars, depth, repetitions, seed):
        self.graph = RegionGraph(num_vars, depth, repetitions, seed)
        self._regions_by_key: dict[tuple[int, tuple[int, ...]], Region] = {}
        self._partition_keys: dict[tuple, Partition] = {}

    def region(self, scope: tuple[int, ...], level: int) -> Region:
        key = (level, scope)
        node = self._regions_by_key.get(key)
        if node is None:
            node = Region(len(self.graph.regions), scope, level)
            self.graph.regions.append(node)
            self._regions_by_key[key] = node
        return node

    def partition(self, parent: Region, c1: Region, c2: Region) -> Partition:
        first, second = _canonical_children(c1, c2)
        key = (parent.index, first.scope, second.scope)
        node = self._partition_keys.get(key)
        if node is None:
            node = Partition(len(self.graph.partitions), parent, (first, second))
            self.graph.partitions.append(node)
            self._partition_keys[key] = node
        return node


def random_region_graph(
    num_vars: int, depth: int, repetitions: int, seed: int | None = None
) -> RegionGraph:
    """Draw a random region graph over ``num_vars`` variables.

    Each repetition recursively splits the root region into two balanced
    halves (a uniformly random permutation cut at ceil(n/2)) down to ``depth``
    levels, stopping early at singleton regions. Identical draws are merged,
    so the root ends up with at most ``repetitions`` child partitions.
    Deterministic for a fixed seed. ``repetitions`` lies in [1,
    ``MAX_REPETITIONS``].
    """
    num_vars = check_int("num_vars", num_vars, 1)
    depth = check_int("depth", depth, 1)
    repetitions = check_int("repetitions", repetitions, 1, MAX_REPETITIONS)
    if seed is not None:
        seed = check_int("seed", seed, 0)

    rng = np.random.default_rng(seed)
    builder = _Builder(num_vars, depth, repetitions, seed)

    def split(region: Region, budget: int):
        perm = rng.permutation(np.asarray(region.scope))
        cut = (len(perm) + 1) // 2
        left = builder.region(tuple(sorted(perm[:cut].tolist())), region.level + 1)
        right = builder.region(tuple(sorted(perm[cut:].tolist())), region.level + 1)
        builder.partition(region, left, right)
        if budget > 1:
            if len(left.scope) > 1:
                split(left, budget - 1)
            if len(right.scope) > 1:
                split(right, budget - 1)

    with too_large("region graph"):
        root = builder.region(tuple(range(num_vars)), 0)
        for _ in range(repetitions):
            if num_vars > 1:
                split(root, depth)
    return builder.graph


def validate_region_graph(graph: RegionGraph) -> ValidationReport:
    """Check that the graph is a valid RAT-SPN structure over its own node lists.

    The one full-scope region is ``graph.regions[0]``; every region and
    partition sits at the position its ``index`` names, and every reference
    between them points into ``graph.regions`` and ``graph.partitions``, so
    each partition is listed once. Each partition splits its parent into two
    non-empty, disjoint children whose union is the parent, so a child is a
    proper subset of its parent: scopes shrink along every edge and the graph
    has no cycle. A circuit built on a graph that passes is therefore complete
    and decomposable.

    Violations are collected into the report rather than raised, so a single
    call describes everything wrong with a hand-built or corrupted graph.
    """
    report = ValidationReport()
    regions, partitions = graph.regions, graph.partitions
    roots = [
        r for r in regions
        if len(r.scope) == graph.num_vars and tuple(r.scope) == tuple(range(graph.num_vars))
    ]
    if not roots:
        report.add("no root region: no region covers all variables")
    elif len(roots) > 1:
        report.add(f"multiple root regions covering all variables: {roots}")
    elif roots[0] is not regions[0]:
        report.add(f"root region {roots[0]} is not graph.regions[0]")
    root = roots[0] if roots else None

    region_ids = {id(r) for r in regions}
    has_parent = set()  # ids of the regions some partition splits off
    for position, part in enumerate(partitions):
        if part.index != position:
            report.add(f"partition #{part.index} is at position {position}")
        if id(part.parent) not in region_ids:
            report.add(f"partition #{part.index} has a parent outside graph.regions")
            continue
        children = part.children
        if len(children) != 2:
            report.add(f"partition #{part.index} has {len(children)} children (expected 2)")
            continue
        a, b = children
        if id(a) not in region_ids or id(b) not in region_ids:
            report.add(f"partition #{part.index} has a child outside graph.regions")
            continue
        has_parent.add(id(a))
        has_parent.add(id(b))
        sa, sb = set(a.scope), set(b.scope)
        if not sa or not sb:
            report.add(f"partition {part} has an empty child region")
        if sa & sb:
            report.add(f"partition {part} children overlap on {sorted(sa & sb)}")
        if sa | sb != set(part.parent.scope):
            report.add(
                f"partition {part} does not cover parent {list(part.parent.scope)}"
            )

    seen_keys = set()
    for position, region in enumerate(regions):
        if region.index != position:
            report.add(f"region #{region.index} is at position {position}")
        scope = tuple(region.scope)
        if len(scope) == 0:
            report.add(f"empty scope at region #{region.index}")
        if len(set(scope)) != len(scope):
            report.add(f"repeated variable indices in region {region}")
        if any(v < 0 or v >= graph.num_vars for v in scope):
            report.add(f"region {region} has variable indices outside 0..{graph.num_vars - 1}")
        key = (region.level, scope)
        if key in seen_keys:
            report.add(f"duplicate scope: {list(scope)} appears twice at level {region.level}")
        seen_keys.add(key)
        if region is root and id(region) in has_parent:
            report.add("root region has a parent partition")
        if region is not root and id(region) not in has_parent:
            report.add(f"region {region} is not the root but has no parent partition")
    return report
