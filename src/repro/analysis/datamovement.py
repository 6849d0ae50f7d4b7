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

Each (node, tensor, access) walk is a :class:`WalkRecipe` the
context compiles once: which nodes' temporal loops are walked and which
loops multiply are fixed by the tree's structure, so a run only gathers
the nodes' current loops, and the walk's volume is
:func:`recursion_volume` over the access's precomputed per-dim
:data:`Moves`.

When the context carries a shared artifact cache, that integer
recursion is cached across evaluations as a **projected-walk volume**,
keyed by the walk *projected onto the dims the access actually reads*
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
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

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


#: How one step of a loop moves an access's slice: the nonzero
#: ``(tensor dim, coefficient)`` pairs of the loop's dim, or None when
#: it does not move the slice.
Moves = Optional[Tuple[Tuple[int, int], ...]]


class _Walk:
    """The truncated ancestor loop walk for one (node, tensor) pair."""

    __slots__ = ("loops", "multiplier", "multiplied", "moves", "moved")

    def __init__(self, loops: List[Loop], multiplier: float,
                 multiplied: List[Loop],
                 moves: Optional[Mapping[str, Moves]]):
        self.loops = loops  # outer -> inner
        self.multiplier = multiplier
        #: Loops folded into the multiplier, in multiplication order.
        self.multiplied = multiplied
        #: The access's :data:`Moves` per dim.
        self.moves = moves
        #: The boundary recursion over ``loops`` once computed.
        self.moved: Optional[int] = None


def moves_of(access: TensorAccess, dim: str) -> Moves:
    """The :data:`Moves` of a loop over ``dim`` for ``access``."""
    return tuple((k, c) for k, c in enumerate(access.coefficients(dim))
                 if c) or None


#: :class:`WalkRecipe` segment kinds: all temporal loops of a node; its
#: displacing spatial loops; its displacing block (step > 1) spatial
#: loops.
_TEMPORAL, _SPATIAL, _BLOCKS = range(3)


class WalkRecipe:
    """The structure-only form of one (node, tensor, access) walk.

    The tree's bindings and the tensor's home decide which nodes'
    temporal loops are walked and which loops multiply; only the loops
    themselves change between the points of a per-genome tune.  A
    recipe records those decisions once, in walk order:

    * ``walked`` — the nodes whose temporal loops are walked, outer to
      inner: the node itself (unless a Seq node evicts the tensor
      between its own iterations) and its ancestors up to the first
      Seq eviction or the tensor's LCA home;
    * ``multiplied`` — ``(node, kind)`` segments in multiplication
      order: the node's evicted temporal loops, its displacing block
      spatial loops, then per ancestor its displacing spatial loops and,
      past the stop, its temporal loops;

    plus the access's :data:`Moves` per dim.  :meth:`walk` gathers the
    nodes' current loops into a :class:`_Walk` (property-tested on every
    registry tree against a walk built node by node).
    """

    __slots__ = ("walked", "multiplied", "moves")

    def __init__(self, ctx: AnalysisContext, node: TileNode,
                 tensor_name: str, access: TensorAccess,
                 home: Optional[TileNode]):
        walked: List[TileNode] = []  # inner -> outer
        multiplied: List[Tuple[TileNode, int]] = []
        if ctx.self_evicts(node, tensor_name):
            multiplied.append((node, _TEMPORAL))
        else:
            walked.append(node)
        multiplied.append((node, _BLOCKS))
        stopped = False
        current = node
        while current.parent is not None:
            parent = current.parent
            multiplied.append((parent, _SPATIAL))
            if (not stopped and ctx.model_eviction
                    and ctx.evicted_at(parent, current, tensor_name)):
                stopped = True
            if stopped:
                multiplied.append((parent, _TEMPORAL))
            else:
                walked.append(parent)
            if parent is home:
                stopped = True
            current = parent
        walked.reverse()
        self.walked: Tuple[TileNode, ...] = tuple(walked)
        self.multiplied: Tuple[Tuple[TileNode, int], ...] = tuple(multiplied)
        moves = ctx.access_moves.get(id(access))
        if moves is None:
            # Only the dims the access reads move its slice.
            moves = dict.fromkeys(
                d for op in ctx.tree.workload.operators for d in op.dims)
            for d in access.signature()[1]:
                moves[d] = moves_of(access, d)
            ctx.access_moves[id(access)] = moves
        self.moves: Dict[str, Moves] = moves

    def walk(self) -> _Walk:
        """The walk over the nodes' current loops."""
        loops: List[Loop] = []
        for node in self.walked:
            loops.extend(node.temporal_loops)
        multiplied: List[Loop] = []
        moves = self.moves
        for node, kind in self.multiplied:
            if kind == _TEMPORAL:
                multiplied.extend(node.temporal_loops)
                continue
            for lp in node.spatial_loops:
                if moves[lp.dim] is not None and (kind == _SPATIAL
                                                  or lp.step != 1):
                    multiplied.append(lp)
        multiplier = 1.0
        for lp in multiplied:
            multiplier *= lp.count
        return _Walk(loops, multiplier, multiplied, moves)


#: One side of a :data:`Crossing`: the access, its compiled
#: :class:`WalkRecipe` and the leaf operator's reduction dims.
Side = Tuple[TensorAccess, WalkRecipe, FrozenSet[str]]
#: A tensor crossing into a node's buffer: its name, then the
#: :data:`Side` of its first reader and of its first writer (None
#: without one).
Crossing = Tuple[str, Optional[Side], Optional[Side]]


def recursion_volume(extents: Sequence[int],
                     terms: Iterable[Tuple[int, int, Moves]]) -> int:
    """The §5.1.1 boundary recursion in one inner→outer pass.

    ``terms`` holds one ``(count, step, moves)`` triple per walk loop,
    inner to outer, where ``moves`` is the access's :data:`Moves` for
    the loop's dim.  Trip-count-1 loops may be left out: they neither
    move the slice nor wrap.

    Equals ``movement_recursion(box_volume(extents), counts,
    [delta_volume(extents, loop_displacement(access, lp, inner))])``
    exactly (property-tested): displacement is linear, so the inner
    loops' wrap-around is a running ``back`` vector instead of a
    re-summed suffix per loop.  ``free`` holds each dim's overlap of the
    slice with its wrapped-back self and ``still`` their product: a
    loop that does not move the slice overlaps by ``still``, and one
    that moves only dim ``k`` by ``still`` with ``free[k]`` swapped for
    dim ``k``'s shifted overlap.
    """
    volume = box_volume(extents)
    back = [0] * len(extents)
    free = [e if e > 0 else 0 for e in extents]
    still = volume
    s = 0
    for count, step, moves in terms:
        if moves is None:
            overlap = still
        elif len(moves) == 1 and free[moves[0][0]]:
            k, c = moves[0]
            x = extents[k] - abs(c * step - back[k])
            overlap = still // free[k] * x if x > 0 else 0
        else:
            shifted = list(back)
            for k, c in moves:
                shifted[k] -= c * step
            overlap = 1
            for e, b in zip(extents, shifted):
                x = e - abs(b)
                overlap *= x if x > 0 else 0
        if moves is not None and count != 1:
            wrap = (count - 1) * step
            for k, c in moves:
                back[k] += c * wrap
                x = extents[k] - abs(back[k])
                free[k] = x if x > 0 else 0
            still = 1
            for x in free:
                still *= x
        s = (count - 1) * (volume - overlap + s) + s
    return volume + s


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
                      for node in self.tree.nodes()}
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
        for tensor_name, reader, writer in self._crossings(node):
            # A slice is one buffer instance's residency: loops below the
            # node plus its unit-step (PE-lane) spatial loops.  Block-
            # distributing spatial loops multiply traffic in the walk.
            extents = slices.extents[tensor_name]
            if reader is not None:
                access = reader[0]
                walk = self._walk(node, tensor_name, reader)
                words = self._walk_volume(extents, access, walk)
                flows.fills[tensor_name] = (
                    flows.fills.get(tensor_name, 0.0) + words)
                target.add("fill", tensor_name, words)
                source.add("read", tensor_name, words)
            if writer is not None:
                access = writer[0]
                walk = self._walk(node, tensor_name, writer)
                words = self._walk_volume(extents, access, walk)
                flows.updates[tensor_name] = (
                    flows.updates.get(tensor_name, 0.0) + words)
                source.add("update", tensor_name, words)
                # Read-modify-write: any update traffic beyond the
                # reduction-free ideal is a partial sum written back early
                # (an outer reduction loop displaced the slice), and each
                # such writeback is refetched before accumulation resumes.
                ideal = self._ideal_update_volume(extents, access, walk,
                                                  writer[2])
                rmw = max(0.0, words - ideal) if self.model_rmw else 0.0
                if rmw > 0:
                    flows.fills[tensor_name] = (
                        flows.fills.get(tensor_name, 0.0) + rmw)
                    target.add("fill", tensor_name, rmw)
                    source.add("read", tensor_name, rmw)
        return flows

    def _crossings(self, node: TileNode) -> Sequence[Crossing]:
        """The tensors whose slices cross into ``node``'s buffer from a
        higher level (§5.1; only they get fills/updates), in tensor
        order, with their first reader and first writer, compiled once
        per node into the context's walk recipes."""
        ctx = self.ctx
        crossings = ctx.walk_recipes.get(id(node))
        if crossings is not None:
            return crossings
        tensors = ctx.node_tensors(node)
        crossings = []
        for name in ctx.plan_node(node).crossing:
            sides: List[Optional[Side]] = []
            for pairs in (tensors.readers.get(name),
                          tensors.writers.get(name)):
                if not pairs:
                    sides.append(None)
                    continue
                leaf, access = pairs[0]
                recipe = WalkRecipe(ctx, node, name, access, ctx.home(name))
                sides.append((access, recipe, leaf.op.reduction_dims))
            crossings.append((name, sides[0], sides[1]))
        ctx.walk_recipes[id(node)] = crossings
        return crossings

    def _ideal_update_volume(self, extents, access, walk: "_Walk",
                             reduction_dims) -> float:
        """Update volume if no reduction loop ever displaced the slice."""
        loops = [lp for lp in walk.loops if lp.dim not in reduction_dims]
        mult_red = 1.0
        for lp in walk.multiplied:
            if lp.dim in reduction_dims:
                mult_red *= lp.count
        ideal_walk = _Walk(loops, walk.multiplier / max(1.0, mult_red), [],
                           walk.moves)
        if len(loops) == len(walk.loops):
            ideal_walk.moved = walk.moved  # the same recursion
        return self._walk_volume(extents, access, ideal_walk)

    # ------------------------------------------------------------------
    def _walk(self, node: TileNode, tensor_name: str, side: Side) -> _Walk:
        """The walk of one (node, tensor, access), from its recipe."""
        return side[1].walk()

    def _walk_volume(self, extents: Sequence[int], access: TensorAccess,
                     walk: _Walk) -> float:
        """Moved words for one (tensor, walk).

        The boundary recursion is :func:`recursion_volume` over the
        walk's :data:`Moves`, without the trip-count-1 loops, computed
        once per walk (the RMW ideal walk reuses it when no loop was
        dropped).  It is integer arithmetic, so caching its result
        (pre-multiplier) in the shared store and re-applying the float
        ``walk.multiplier`` reproduces the uncached float bit-for-bit.
        The cache key projects the walk onto the access's referenced
        dims — see :meth:`_projected_walk` for why that projection is
        exact.
        """
        store = self._volumes
        if store is None:
            moved = walk.moved
            if moved is None:
                moved = self._moved(extents, walk)
            return moved * walk.multiplier
        key = (access.signature()[0], tuple(extents),
               self._projected_walk(access, walk.loops))
        moved = store.data.get(key)
        if moved is None:
            store.miss()
            moved = walk.moved
            if moved is None:
                moved = self._moved(extents, walk)
            store.put(key, moved)
        else:
            store.touch(key)
        return moved * walk.multiplier

    @staticmethod
    def _moved(extents: Sequence[int], walk: _Walk) -> int:
        """The walk's boundary recursion, kept on the walk."""
        moves = walk.moves
        moved = walk.moved = recursion_volume(extents, [
            (lp.count, lp.step, moves[lp.dim])
            for lp in reversed(walk.loops) if lp.count != 1])
        return moved

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
        for entry in self.ctx.plan_nodes:
            if not entry.leaf:
                continue
            leaf = entry.node
            points = leaf.trip_count * self.ctx.executions(leaf)
            level = traffic[leaf.level]
            for access in leaf.op.inputs:
                level.add("read", access.tensor.name, float(points))
            level.add("update", leaf.op.output.tensor.name, float(points))
