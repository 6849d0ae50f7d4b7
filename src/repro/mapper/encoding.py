"""Genome encoding and generic tree construction for the mapper (Fig. 7b).

The paper encodes an ordering tree plus binding primitives as a table with
one column per operator (which operator to fuse into, at which memory
level, with which binding).  For the linear operator chains this
reproduction targets (attention stages, convolution chains), that table is
equivalent to:

* one *fusion bit* per edge between consecutive operators (fused edges
  merge the operators into one fusion group — the compute-ordering
  dimension), and
* one *binding* per edge (the group's binding is taken from its first
  fused edge — the resource-binding dimension).

Loop tiling (the third dimension) is the genome's :class:`FactorSpace`:
one tiling factor per shared dimension of each fusion group, assigned by
the MCTS stage.  :func:`build_genome_tree` turns a genome plus factors
into an analysis tree using generic (workload-agnostic) chain
construction with imperfect tiling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..arch import Architecture
from ..errors import MappingError
from ..ir import Operator, Workload
from ..tile.bindings import Binding
from ..tile.loops import Loop, LoopSplit, spatial, temporal
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from ..tile.validate import fused_producers
from .factors import FactorSpace

#: Bindings the GA may assign to a fused edge.
EDGE_BINDINGS: Tuple[Binding, ...] = (Binding.SEQ, Binding.SHAR,
                                      Binding.PIPE)


def _ceil(a: int, b: int) -> int:
    return -(-a // b)


def _ladder(size: int) -> List[int]:
    out, v = [], 1
    while v < size:
        out.append(v)
        v *= 2
    out.append(size)
    return out


@dataclass(frozen=True)
class Genome:
    """One point in the (ordering x binding) plane of the 3D space."""

    fuse_edges: Tuple[bool, ...]
    bindings: Tuple[Binding, ...]

    def __post_init__(self):
        if len(self.fuse_edges) != len(self.bindings):
            raise MappingError("genome edge/binding length mismatch")

    # ------------------------------------------------------------------
    def groups(self, workload: Workload) -> List[List[Operator]]:
        """Fusion groups: maximal runs of operators joined by fused edges."""
        ops = list(workload.operators)
        groups: List[List[Operator]] = [[ops[0]]]
        for edge, op in enumerate(ops[1:]):
            if self.fuse_edges[edge]:
                groups[-1].append(op)
            else:
                groups.append([op])
        return groups

    def group_binding(self, workload: Workload,
                      group_index: int) -> Binding:
        """Binding of a group: its first fused edge's binding."""
        groups = self.groups(workload)
        if len(groups[group_index]) == 1:
            return Binding.SEQ
        # The group's first edge index is the number of ops before it.
        return self.bindings[sum(len(g) for g in groups[:group_index])]

    @staticmethod
    def random(workload: Workload, rng: random.Random) -> "Genome":
        n = max(0, len(workload.operators) - 1)
        return Genome(
            fuse_edges=tuple(rng.random() < 0.5 for _ in range(n)),
            bindings=tuple(rng.choice(EDGE_BINDINGS) for _ in range(n)))

    @staticmethod
    def unfused(workload: Workload) -> "Genome":
        n = max(0, len(workload.operators) - 1)
        return Genome((False,) * n, (Binding.SEQ,) * n)

    @staticmethod
    def fully_fused(workload: Workload,
                    binding: Binding = Binding.SHAR) -> "Genome":
        n = max(0, len(workload.operators) - 1)
        return Genome((True,) * n, (binding,) * n)

    # ------------------------------------------------------------------
    def crossover(self, other: "Genome", rng: random.Random) -> "Genome":
        """Single-point crossover over the edge tables."""
        n = len(self.fuse_edges)
        if n == 0:
            return self
        cut = rng.randrange(n + 1)
        return Genome(self.fuse_edges[:cut] + other.fuse_edges[cut:],
                      self.bindings[:cut] + other.bindings[cut:])

    def mutate(self, rng: random.Random, rate: float = 0.25) -> "Genome":
        """Flip fusion bits / re-draw bindings with probability ``rate``."""
        edges = list(self.fuse_edges)
        bindings = list(self.bindings)
        for i in range(len(edges)):
            if rng.random() < rate:
                edges[i] = not edges[i]
            if rng.random() < rate:
                bindings[i] = rng.choice(EDGE_BINDINGS)
        return Genome(tuple(edges), tuple(bindings))

    # ------------------------------------------------------------------
    def encode(self) -> Dict[str, list]:
        """JSON-safe encoding — ledger manifests carry this so a
        recorded champion can be rebuilt into a tree later
        (``repro explain --run``)."""
        return {"fuse_edges": [bool(e) for e in self.fuse_edges],
                "bindings": [b.value for b in self.bindings]}

    @staticmethod
    def from_encoding(data: Mapping[str, Sequence]) -> "Genome":
        """Inverse of :meth:`encode`; raises :class:`MappingError` on a
        malformed payload."""
        try:
            return Genome(
                fuse_edges=tuple(bool(e) for e in data["fuse_edges"]),
                bindings=tuple(Binding(b) for b in data["bindings"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MappingError(f"bad genome encoding {data!r}: {exc}")

    def describe(self, workload: Workload) -> str:
        parts = []
        for group_idx, group in enumerate(self.groups(workload)):
            names = "+".join(op.name for op in group)
            if len(group) > 1:
                names = (f"{self.group_binding(workload, group_idx).value}"
                         f"({names})")
            parts.append(names)
        return " ; ".join(parts)


# ----------------------------------------------------------------------
# Generic tree construction
# ----------------------------------------------------------------------
def shared_tileable_dims(workload: Workload,
                         group: Sequence[Operator]) -> List[str]:
    """Dims a fusion group may legally tile at its fusion node.

    A dim qualifies when every operator in the group declares it and the
    §4.1 reduction rule allows it: it must not be a reduction dim of a
    non-associative producer whose output is consumed inside the group.
    """
    if not group:
        return []
    common = set(group[0].dims)
    for op in group[1:]:
        common &= set(op.dims)
    for op in fused_producers(workload, group):
        common -= op.reduction_dims
    sizes = group[-1].dims
    # Tie-break equal-sized dims by name: ``common`` is a set, so sorting
    # by size alone would leave ties in hash order, making tree
    # construction depend on PYTHONHASHSEED across processes.
    return sorted((d for d in common if sizes.get(d, 1) > 1),
                  key=lambda d: (-sizes[d], d))


def genome_factor_space(workload: Workload, genome: Genome,
                        max_dims_per_group: int = 3) -> FactorSpace:
    """The tiling-factor space the MCTS explores for one genome."""
    choices: Dict[str, List[int]] = {}
    for gi, group in enumerate(genome.groups(workload)):
        dims = shared_tileable_dims(workload, group)[:max_dims_per_group]
        sizes = group[-1].dims
        for d in dims:
            choices[f"g{gi}_{d}"] = _ladder(sizes[d])
    return FactorSpace(choices)


def _generic_leaf(op: Operator, budget: int) -> Tuple[Dict[str, int],
                                                      Dict[str, int]]:
    """Heuristic PE tile: spread the two largest output dims spatially."""
    out_dims = [d for d in op.dims if d not in op.reduction_dims]
    out_dims.sort(key=lambda d: -op.dims[d])
    sp: Dict[str, int] = {}
    remaining = budget
    for d in out_dims[:2]:
        ext = min(op.dims[d], max(1, int(math.sqrt(remaining))
                                  if not sp else remaining))
        if ext > 1:
            sp[d] = ext
            remaining = max(1, remaining // ext)
    tp = {d: op.dims[d] for d in op.reduction_dims if op.dims[d] > 1}
    return sp, tp


class GenomeLoops:
    """The loop skeleton of one genome's tree.

    Everything but the factor-dependent loop counts is derived once:
    ``groups`` holds, per fusion group, its tileable ``(dim, size,
    factor name)`` triples and, per operator chain, ``(op, mid, leaf)``
    — the ``(dim, size, extent)`` its mid loops divide and its leaf
    loops (factor-independent, shared by every point).  :meth:`splits`
    then yields the :class:`~repro.tile.loops.LoopSplit` of every node,
    in pre-order, for one point, and :meth:`loops` their loops.
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 genome: Genome):
        self.units = arch.level(1).fanout
        budget = max(4, arch.pe_count // self.units)
        vector_budget = max(2, arch.vector_pe_count // self.units)
        groups = genome.groups(workload)
        #: Whether a loop-free Seq root sits over the groups.
        self.root = not (len(groups) == 1 and len(groups[0]) > 1)
        self.groups = []
        for gi, group in enumerate(groups):
            sizes = group[-1].dims
            dims = [(d, sizes[d], f"g{gi}_{d}")
                    for d in shared_tileable_dims(workload, group)[:3]]
            pipe = (genome.group_binding(workload, gi) is Binding.PIPE
                    and len(group) > 1)
            mac_chains = sum(1 for op in group if op.kind == "mac") or 1
            vec_chains = sum(1 for op in group if op.kind != "mac") or 1
            chains = []
            for op in group:
                mac = op.kind == "mac"
                share = (mac_chains if mac else vec_chains) if pipe else 1
                sp, tp = _generic_leaf(op, max(4, budget // share) if mac
                                       else max(2, vector_budget // share))
                leaf = LoopSplit([temporal(d, n, 1) for d, n in tp.items()]
                                 + [spatial(d, n, 1) for d, n in sp.items()])
                mid = tuple((d, size, sp.get(d, 1) * tp.get(d, 1))
                            for d, size in op.dims.items())
                chains.append((op, mid, leaf))
            self.groups.append((dims, chains))
        #: ``(node position, dim, count, step, spatial)`` -> the one
        #: :class:`Loop` with those fields at that node, built (and
        #: validated) once per skeleton.  Keyed per node so that no
        #: Loop object sits at two nodes of one tree (the batched
        #: layer maps loops to factor slots by identity).
        self._interned: Dict[Tuple[int, str, int, int, bool], Loop] = {}
        self._root = LoopSplit(())

    def loops(self, factors: Mapping[str, int]) -> List[Tuple[Loop, ...]]:
        """The loops of every node for ``factors``, in pre-order."""
        return [split.loops for split in self.splits(factors)]

    def splits(self, factors: Mapping[str, int]) -> List[LoopSplit]:
        """The :class:`LoopSplit` of every node for ``factors``, in
        pre-order.

        Fusion groups tile their shared tileable dims at the outermost
        on-chip level (factor ``g{i}_{dim}``, spatially split over the
        level-1 fanout first).  All tiling is imperfect (ceil).

        Loops are interned: every point gets the same :class:`Loop`
        object for the same fields at the same node, so comparing a
        node's old and new loops compares identities until they differ.
        """
        make = self._loop
        out: List[LoopSplit] = [self._root] if self.root else []
        for dims, chains in self.groups:
            at = len(out)
            tile: Dict[str, int] = {}
            loops: List[Loop] = []
            spatial_budget = self.units
            for d, size, name in dims:
                step = min(size, int(factors.get(name, size)))
                tile[d] = step
                blocks = _ceil(size, step)
                if spatial_budget > 1 and blocks > 1:
                    split = min(spatial_budget, blocks)
                    per = _ceil(blocks, split)
                    loops.append(make(at, d, split, per * step, True))
                    blocks = per
                    spatial_budget = max(1, spatial_budget // split)
                if blocks > 1:
                    loops.append(make(at, d, blocks, step, False))
            out.append(LoopSplit(loops))
            for _, mid, leaf in chains:
                at = len(out)
                out.append(LoopSplit([
                    make(at, d, count, ext, False) for d, size, ext in mid
                    for count in (_ceil(min(size, tile.get(d, size)), ext),)
                    if count > 1]))
                out.append(leaf)
        return out

    def _loop(self, at: int, dim: str, count: int, step: int,
              is_spatial: bool) -> Loop:
        key = (at, dim, count, step, is_spatial)
        lp = self._interned.get(key)
        if lp is None:
            lp = self._interned[key] = Loop(dim, count, step, is_spatial)
        return lp


def genome_loops(workload: Workload, arch: Architecture, genome: Genome,
                 factors: Mapping[str, int]) -> List[Tuple[Loop, ...]]:
    """The loops of every node of the genome's tree, in pre-order.

    Only loops depend on ``factors``: the node set, operators, levels and
    bindings are fixed by the genome, so assigning these to the nodes of
    any tree built for ``genome`` (node by node, pre-order) yields the
    tree :func:`build_genome_tree` builds for ``factors``.  Callers
    pricing many points of one genome keep a :class:`GenomeLoops`.
    """
    return GenomeLoops(workload, arch, genome).loops(factors)


def build_genome_tree(workload: Workload, arch: Architecture,
                      genome: Genome, factors: Mapping[str, int],
                      skeleton: Optional[GenomeLoops] = None
                      ) -> AnalysisTree:
    """Construct the analysis tree for a genome plus tiling factors.

    Fusion groups become fusion nodes at the outermost on-chip level;
    singleton groups become plain operator chains.  Groups are children
    of a Seq root at the DRAM level.  Loops come from the genome's
    :class:`GenomeLoops` (``skeleton``, if the caller holds it), as
    :func:`genome_loops` gives them.
    """
    top_level = arch.num_levels - 2
    if skeleton is None:
        skeleton = GenomeLoops(workload, arch, genome)
    loops = iter(skeleton.loops(factors))
    root_loops = next(loops) if skeleton.root else None
    group_nodes: List[TileNode] = []
    for gi, group in enumerate(genome.groups(workload)):
        top_loops = next(loops)
        chains = []
        for op in group:
            mid = next(loops)
            chains.append(OpTile(op, mid, level=1,
                                 child=OpTile(op, next(loops), level=0)))
        if len(group) == 1:
            group_nodes.append(OpTile(group[0], top_loops, level=top_level,
                                      child=chains[0]))
        else:
            group_nodes.append(FusionNode(
                top_loops, level=top_level, children=chains,
                binding=genome.group_binding(workload, gi),
                name=f"group{gi}"))
    if root_loops is None:
        root: TileNode = group_nodes[0]
    else:
        root = FusionNode(root_loops, level=arch.dram_index,
                          children=group_nodes, binding=Binding.SEQ,
                          name="root")
    return AnalysisTree(workload, root,
                        name=f"genome[{genome.describe(workload)}]")
