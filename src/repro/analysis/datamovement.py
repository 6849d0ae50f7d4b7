"""Tree-based data-movement analysis (§5.1).

For every node of the analysis tree and every tensor whose data crosses
into that node's buffer, the engine computes the words moved over the whole
execution by the boundary recursion of §5.1.1, extended with the paper's
inter-tile rules (§5.1.2):

* **Reuse walk** — the temporal loops driving a node's refills are its own
  temporal loops plus those of its ancestors (inner to outer), because a
  slice persists in the node's buffer exactly as long as no walked loop
  displaces it.  Wrap-around of inner loops is part of each boundary's
  displacement, reproducing Fig. 5.
* **Seq eviction** — ascending through a ``Seq`` fusion node stops the walk
  for tensors the *following* sibling tile does not use: their slices are
  evicted, so every remaining outer iteration refills from scratch
  (multiplicative).
* **Fusion saving / LCA routing** — an intermediate tensor lives at its
  least-common-ancestor node; it never crosses above that node's memory
  level, and loops above the LCA (which re-produce the tensor) contribute
  multiplicatively, never as reuse.
* **Spatial loops** — a node's own spatial loops enlarge its slice (the
  level's instances co-reside); ancestors' spatial loops multiply traffic
  when they displace the slice and broadcast (x1) when they do not.

The result records per-level fill/read/update word counts (the paper's
Fig. 10d breakdown) and per-node load/store totals for the latency model.

When the context carries a shared artifact cache, the expensive
arithmetic is cached across evaluations as **projected-walk volumes**:
the boundary recursion over one (tensor, walk) pair is keyed by the
walk *projected onto the dims the access actually reads*
(:meth:`DataMovementAnalysis._projected_walk`): loops over dims an
access does not reference displace its slice only through inner
wrap-around, which is itself zero unless a referenced loop sits inside
— so maximal runs of irrelevant loops collapse to their trip product
(an exact transformation of the integer boundary recursion).  A mapper
move on tiling factors of dim ``m`` therefore leaves the cached volumes
of tensors indexed only by ``h``/``l``/``k`` valid — not just in
untouched sibling subtrees, but along the mutated path itself.  The
recursion results are integers, so serving them from cache and
re-applying the float spatial multiplier is byte-identical to a
from-scratch run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..arch import Architecture
from ..ir import TensorAccess
from ..tile.loops import Loop
from ..tile.tree import AnalysisTree, TileNode
from .context import AnalysisContext
from .metrics import LevelTraffic
from .slices import box_volume


@dataclass
class NodeFlows:
    """Traffic and residency of one tree node."""

    node: TileNode
    #: Words filled into this node's buffer per tensor, whole execution.
    fills: Dict[str, float] = field(default_factory=dict)
    #: Words written back from this node's buffer to its parent's.
    updates: Dict[str, float] = field(default_factory=dict)
    #: Words resident per tensor for one time step (capacity analysis).
    staged_words: Dict[str, float] = field(default_factory=dict)


@dataclass
class DataMovementResult:
    """Output of the data-movement analysis."""

    traffic: Dict[int, LevelTraffic]
    node_flows: Dict[int, NodeFlows]  # keyed by id(node)

    def flows(self, node: TileNode) -> NodeFlows:
        return self.node_flows[id(node)]


class _Walk:
    """The truncated ancestor loop walk for one (node, tensor) pair."""

    __slots__ = ("loops", "multiplier", "multiplied")

    def __init__(self, loops: List[Loop], multiplier: float,
                 multiplied: List[Loop]):
        self.loops = loops  # outer -> inner
        self.multiplier = multiplier
        #: Loops folded into the multiplier, in multiplication order.
        self.multiplied = multiplied


class DataMovementAnalysis:
    """Runs the §5.1 analysis over a validated tree.

    The two refinement rules can be ablated (``model_eviction`` switches
    off the §5.1.2 Seq eviction, ``model_rmw`` switches off partial-sum
    read-modify-write accounting); the ablation benches quantify what
    each rule contributes to the model's predictions.

    Slice geometry, tensor homes, and loop products come from a shared
    :class:`~repro.analysis.context.AnalysisContext`; pass one to reuse
    intermediates across pipeline passes, or omit it for a standalone
    run (a private context is created, and the ablation flags above
    apply).  When a context is given, *its* flags win.
    """

    def __init__(self, tree: AnalysisTree, arch: Architecture,
                 model_eviction: bool = True, model_rmw: bool = True,
                 context: Optional[AnalysisContext] = None):
        self.tree = tree
        self.arch = arch
        self.ctx = context if context is not None else AnalysisContext(
            tree, arch, model_eviction=model_eviction, model_rmw=model_rmw)
        self.model_eviction = self.ctx.model_eviction
        self.model_rmw = self.ctx.model_rmw
        #: Bound "walkvol" store of the shared artifact cache (or None);
        #: probed directly — this is the hottest lookup in the system.
        self._volumes = self.ctx.shared_store("walkvol")

    # ------------------------------------------------------------------
    def run(self) -> DataMovementResult:
        traffic: Dict[int, LevelTraffic] = {
            i: LevelTraffic() for i in range(self.arch.num_levels)}
        # Pre-order: float accumulation order is part of the
        # byte-identity contract.
        node_flows = {id(node): self._analyze_node(node, traffic)
                      for node in self.tree.root.walk()}
        self._add_compute_accesses(traffic)
        return DataMovementResult(traffic=traffic, node_flows=node_flows)

    def _analyze_node(self, node: TileNode,
                      traffic: Dict[int, LevelTraffic]) -> NodeFlows:
        """One node's flows; its traffic is added to ``traffic``."""
        flows = NodeFlows(node=node)
        source_level = (node.parent.level if node.parent is not None
                        else self.arch.dram_index)
        target, source = traffic[node.level], traffic[source_level]
        slices = self.ctx.node_slices(node)
        # Residency equals the slice geometry verbatim; the dict is
        # shared read-only (NodeSlices instances may be cache entries).
        flows.staged_words = slices.staged_words
        for tensor_name in slices.tensors:
            # Fills/updates exist only for tensors whose slices cross
            # into this node's buffer from a higher level (§5.1).
            if not self.ctx.tensor_crossing(node, tensor_name):
                continue
            reader_pairs = slices.readers.get(tensor_name, [])
            writer_pairs = slices.writers.get(tensor_name, [])
            # A slice is one buffer instance's residency: loops below the
            # node plus its unit-step (PE-lane) spatial loops.  Block-
            # distributing spatial loops multiply traffic in the walk.
            extents = slices.extents[tensor_name]
            home = self.ctx.home(tensor_name)

            if reader_pairs:
                leaf, access = reader_pairs[0]
                walk = self._build_walk(node, tensor_name, access, home)
                words = self._walk_volume(extents, access, walk)
                flows.fills[tensor_name] = (
                    flows.fills.get(tensor_name, 0.0) + words)
                target.add("fill", tensor_name, words)
                source.add("read", tensor_name, words)
            if writer_pairs:
                leaf, access = writer_pairs[0]
                walk = self._build_walk(node, tensor_name, access, home)
                words = self._walk_volume(extents, access, walk)
                flows.updates[tensor_name] = (
                    flows.updates.get(tensor_name, 0.0) + words)
                source.add("update", tensor_name, words)
                # Read-modify-write: any update traffic beyond the
                # reduction-free ideal is a partial sum written back early
                # (an outer reduction loop displaced the slice), and each
                # such writeback is refetched before accumulation resumes.
                red = leaf.op.reduction_dims
                ideal = self._ideal_update_volume(extents, access, walk, red)
                rmw = max(0.0, words - ideal) if self.model_rmw else 0.0
                if rmw > 0:
                    flows.fills[tensor_name] = (
                        flows.fills.get(tensor_name, 0.0) + rmw)
                    target.add("fill", tensor_name, rmw)
                    source.add("read", tensor_name, rmw)
        return flows

    def _ideal_update_volume(self, extents, access, walk: "_Walk",
                             reduction_dims) -> float:
        """Update volume if no reduction loop ever displaced the slice."""
        loops = [lp for lp in walk.loops if lp.dim not in reduction_dims]
        mult_red = 1.0
        for lp in walk.multiplied:
            if lp.dim in reduction_dims:
                mult_red *= lp.count
        ideal_walk = _Walk(loops, walk.multiplier / max(1.0, mult_red), [])
        return self._walk_volume(extents, access, ideal_walk)

    # ------------------------------------------------------------------
    def _build_walk(self, node: TileNode, tensor_name: str,
                    access: TensorAccess,
                    home: Optional[TileNode]) -> _Walk:
        """Ancestor loop walk with Seq-eviction and LCA truncation."""
        walk_inner_to_outer: List[Loop] = []
        multiplied: List[Loop] = []
        stopped = False
        # A Seq fusion node evicts a tensor between its own iterations when
        # the sibling following the tensor's last user does not need it, so
        # the node's own temporal loops refill rather than reuse.
        if self.ctx.self_evicts(node, tensor_name):
            multiplied.extend(node.temporal_loops)
        else:
            walk_inner_to_outer.extend(reversed(node.temporal_loops))
        # The node's own block-distributing spatial loops (step > 1)
        # spread slices over separate buffer instances.
        for lp in node.spatial_loops:
            if lp.step == 1:
                continue
            if self._loop_displaces(access, lp):
                multiplied.append(lp)
        current: TileNode = node
        while current.parent is not None:
            parent = current.parent
            for lp in parent.spatial_loops:
                if self._loop_displaces(access, lp):
                    multiplied.append(lp)
            if (not stopped and self.model_eviction
                    and self.ctx.evicted_at(parent, current, tensor_name)):
                stopped = True
            if stopped:
                multiplied.extend(parent.temporal_loops)
            else:
                walk_inner_to_outer.extend(reversed(parent.temporal_loops))
            if parent is home:
                stopped = True
            current = parent
        walk_inner_to_outer.reverse()
        multiplier = 1.0
        for lp in multiplied:
            multiplier *= lp.count
        return _Walk(walk_inner_to_outer, multiplier, multiplied)

    def _loop_displaces(self, access: TensorAccess, lp: Loop) -> bool:
        """Whether one step of ``lp`` moves the access's slice."""
        # Steps are positive, so the slice moves iff some coefficient does.
        return any(access.coefficients(lp.dim))

    def _walk_volume(self, extents: Sequence[int], access: TensorAccess,
                     walk: _Walk) -> float:
        """Moved words for one (tensor, walk): cached boundary recursion.

        The recursion itself is integer arithmetic, so caching its result
        (pre-multiplier) and re-applying the float ``walk.multiplier``
        reproduces the uncached float bit-for-bit.  The cache key projects
        the walk onto the access's referenced dims — see
        :meth:`_projected_walk` for why that projection is exact.
        """
        store = self._volumes
        if store is not None:
            key = (access.signature()[0], tuple(extents),
                   self._projected_walk(access, walk.loops))
            moved = store.data.get(key)
            if moved is None:
                store.miss()
                moved = self._recursion_volume(extents, access, walk.loops)
                store.put(key, moved)
            else:
                store.touch(key)
        else:
            moved = self._recursion_volume(extents, access, walk.loops)
        return moved * walk.multiplier

    @staticmethod
    def _recursion_volume(extents: Sequence[int], access: TensorAccess,
                          loops: Sequence[Loop]) -> int:
        """The §5.1.1 boundary recursion in one inner→outer pass.

        Equals ``movement_recursion(box_volume(extents), counts,
        [delta_volume(extents, loop_displacement(access, lp, inner))])``
        exactly: displacement is linear, so the inner loops' wrap-around
        is a running ``back`` sum instead of a re-summed suffix per loop.
        """
        volume = box_volume(extents)
        back = [0] * len(extents)
        s = 0
        for lp in reversed(loops):
            coeffs = access.coefficients(lp.dim)
            step, count = lp.step, lp.count
            overlap = 1
            for e, c, b in zip(extents, coeffs, back):
                overlap *= max(0, e - abs(c * step - b))
            s = (count - 1) * (volume - overlap + s) + s
            wrap = (count - 1) * step
            back = [b + c * wrap for b, c in zip(back, coeffs)]
        return volume + s

    def _projected_walk(self, access: TensorAccess,
                        loops: Sequence[Loop]) -> str:
        """Canonical form of a walk as one access sees it.

        Two walks with equal projections yield equal boundary-recursion
        results, exactly:

        * a loop over an unreferenced dim has zero forward displacement,
          contributes nothing to outer wrap-around, and its boundary
          delta equals that of any other unreferenced loop at the same
          position — the recursion step ``s' = c*s + (c-1)*d`` composes
          so that adjacent unreferenced loops merge into their trip
          product;
        * trip-count-1 loops neither move the slice nor wrap, and drop
          out;
        * an innermost run of unreferenced loops multiplies ``s = 0``
          and drops out entirely.

        All steps are integer-exact, so cached volumes replay
        byte-identically.
        """
        referenced = access.signature()[1]
        parts: List[str] = []
        pending = 1
        for lp in loops:  # outer -> inner
            if lp.dim in referenced:
                if pending != 1:
                    parts.append(f"*{pending}")
                    pending = 1
                if lp.count != 1:
                    parts.append(f"{lp.dim}:{lp.count}x{lp.step}")
            elif lp.count != 1:
                pending *= lp.count
        # The trailing (innermost) unreferenced run multiplies s == 0.
        return ",".join(parts)

    # ------------------------------------------------------------------
    def _add_compute_accesses(self, traffic: Dict[int, LevelTraffic]) -> None:
        """Operand/accumulator accesses at the innermost level.

        Each iteration point reads its input operands from and writes its
        accumulator to the leaf-level buffer (registers); these are the
        "Reg" accesses of the paper's energy breakdown (Fig. 13).
        """
        for leaf in self.tree.root.leaves():
            points = leaf.trip_count * self.ctx.executions(leaf)
            level = traffic[leaf.level]
            for access in leaf.op.inputs:
                level.add("read", access.tensor.name, float(points))
            level.add("update", leaf.op.output.tensor.name, float(points))
