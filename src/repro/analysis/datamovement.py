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
context compiles once: which plan positions' temporal loops are walked
and which loops multiply are fixed by the tree's structure, and so is
how each dim's loops move the access's slice (its :data:`Moves`).  A
run is then one flat pass over the plan table: per crossing it reads
the walked positions' current reuse loops straight into the
``(count, step, moves)`` terms of :func:`recursion_volume`, and the
read-modify-write ideal walk of a writer filters those same terms.

When the context carries a shared artifact cache, that integer
recursion is cached across evaluations as a **projected-walk volume**,
keyed by the walk *projected onto the dims the access actually reads*
(:func:`projected_walk`): loops over dims an
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
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Tuple)

from ..arch import Architecture
from ..ir import TensorAccess
from ..tile.loops import Loop, LoopSplit
from ..tile.tree import AnalysisTree, TileNode
from .context import AnalysisContext
from .metrics import LevelTraffic


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


class DataMovementResult:
    """Output of the data-movement analysis: per-level traffic and, by
    plan position, every node's :class:`NodeFlows`."""

    __slots__ = ("traffic", "flows_at", "_by_id")

    def __init__(self, traffic: Dict[int, LevelTraffic],
                 flows_at: List[NodeFlows]):
        self.traffic = traffic
        self.flows_at = flows_at
        self._by_id: Optional[Dict[int, NodeFlows]] = None

    def flows(self, node: TileNode) -> NodeFlows:
        by_id = self._by_id
        if by_id is None:
            by_id = self._by_id = {id(f.node): f for f in self.flows_at}
        return by_id[id(node)]


#: How one step of a loop moves an access's slice: the nonzero
#: ``(tensor dim, coefficient)`` pairs of the loop's dim, or None when
#: it does not move the slice.
Moves = Optional[Tuple[Tuple[int, int], ...]]


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
    recipe records those decisions once, by plan position:

    * ``walked`` — the positions whose temporal loops are walked, outer
      to inner (``inner_first`` reversed): the node itself (unless a Seq
      node evicts the tensor between its own iterations) and its
      ancestors up to the first Seq eviction or the tensor's LCA home;
    * ``multiplied`` — ``(position, kind)`` segments in multiplication
      order: the node's evicted temporal loops, its displacing block
      spatial loops, then per ancestor its displacing spatial loops and,
      past the stop, its temporal loops;

    plus the access's :data:`Moves` per dim, the dims that move its
    slice (``moving``) and, for a writer, its leaf operator's reduction
    dims (``reduction``, which the read-modify-write ideal walk drops).
    :meth:`loops` gathers the walk at one point's loops
    (property-tested on every registry tree against a walk built node
    by node); the data-movement pass reads the same fields directly.
    """

    __slots__ = ("access", "walked", "inner_first", "multiplied", "moves",
                 "moving", "reduction")

    def __init__(self, ctx: AnalysisContext, node: TileNode,
                 tensor_name: str, access: TensorAccess,
                 home: Optional[TileNode],
                 reduction: FrozenSet[str] = frozenset()):
        at = ctx.position(node)
        walked: List[int] = []  # inner -> outer
        multiplied: List[Tuple[int, int]] = []
        if ctx.self_evicts(node, tensor_name):
            multiplied.append((at, _TEMPORAL))
        else:
            walked.append(at)
        multiplied.append((at, _BLOCKS))
        stopped = False
        current = node
        while current.parent is not None:
            parent = current.parent
            at = ctx.parents[at]
            multiplied.append((at, _SPATIAL))
            if (not stopped and ctx.model_eviction
                    and ctx.evicted_at(parent, current, tensor_name)):
                stopped = True
            if stopped:
                multiplied.append((at, _TEMPORAL))
            else:
                walked.append(at)
            if parent is home:
                stopped = True
            current = parent
        self.access = access
        self.inner_first: Tuple[int, ...] = tuple(walked)
        self.walked: Tuple[int, ...] = self.inner_first[::-1]
        self.multiplied: Tuple[Tuple[int, int], ...] = tuple(multiplied)
        moves = ctx.access_moves.get(id(access))
        if moves is None:
            # Only the dims the access reads move its slice.
            moves = dict.fromkeys(ctx.workload_dims)
            for d in access.signature()[1]:
                moves[d] = moves_of(access, d)
            moving = frozenset(d for d, m in moves.items() if m is not None)
            moves = ctx.access_moves[id(access)] = (moves, moving)
        self.moves: Dict[str, Moves] = moves[0]
        self.moving: FrozenSet[str] = moves[1]
        self.reduction = frozenset(reduction)

    def loops(self, splits: Sequence[LoopSplit]
              ) -> Tuple[List[Loop], List[Loop]]:
        """The walk at the point whose per-position ``splits`` are given:
        its walked temporal loops, outer to inner, and the loops folded
        into its multiplier, in multiplication order."""
        walked = [lp for pos in self.walked for lp in splits[pos].temporal]
        multiplied: List[Loop] = []
        moving = self.moving
        for pos, kind in self.multiplied:
            split = splits[pos]
            if kind == _TEMPORAL:
                multiplied.extend(split.temporal)
                continue
            for lp in split.spatial:
                if lp.dim in moving and (kind == _SPATIAL or lp.step != 1):
                    multiplied.append(lp)
        return walked, multiplied


#: A tensor crossing into a node's buffer: its name, then the
#: :class:`WalkRecipe` of its first reader and of its first writer (None
#: without one).
Crossing = Tuple[str, Optional[WalkRecipe], Optional[WalkRecipe]]


def compile_crossings(ctx: AnalysisContext) -> List[Tuple[Crossing, ...]]:
    """Per position, the tensors whose slices cross into the node's
    buffer from a higher level (§5.1; only they get fills/updates), in
    tensor order, with the walk recipes of their first reader and first
    writer — kept in ``ctx.crossings`` until a structural re-arm."""
    table = ctx.crossings
    if table is not None:
        return table
    table = []
    for node, entry in zip(ctx.tree.nodes(), ctx.plan_nodes):
        tensors = ctx.node_tensors(node)
        crossings = []
        for name in entry.crossing:
            home = ctx.home(name)
            reader = writer = None
            pairs = tensors.readers.get(name)
            if pairs:
                reader = WalkRecipe(ctx, node, name, pairs[0][1], home)
            pairs = tensors.writers.get(name)
            if pairs:
                leaf, access = pairs[0]
                writer = WalkRecipe(ctx, node, name, access, home,
                                    leaf.op.reduction_dims)
            crossings.append((name, reader, writer))
        table.append(tuple(crossings))
    ctx.crossings = table
    return table


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
    free = [e if e > 0 else 0 for e in extents]
    volume = 1
    for x in free:
        volume *= x  # box_volume(extents)
    back = [0] * len(extents)
    still = volume
    s = 0
    for count, step, moves in terms:
        if moves is None:
            overlap = still
        elif len(moves) == 1 and free[moves[0][0]]:
            k, c = moves[0]
            fk = free[k]
            x = extents[k] - abs(c * step - back[k])
            overlap = still // fk * x if x > 0 else 0
            if count != 1:
                # Only dim k's overlap changes: ``still`` swaps it.
                back[k] += c * (count - 1) * step
                x = extents[k] - abs(back[k])
                free[k] = x = x if x > 0 else 0
                still = still // fk * x
        else:
            shifted = list(back)
            for k, c in moves:
                shifted[k] -= c * step
            overlap = 1
            for e, b in zip(extents, shifted):
                x = e - abs(b)
                overlap *= x if x > 0 else 0
            if count != 1:
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


def projected_walk(referenced: FrozenSet[str],
                   loops: Sequence[Loop]) -> str:
    """Canonical form of a walk (``loops`` outer to inner) as an access
    reading the dims ``referenced`` sees it.

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


class DataMovementAnalysis:
    """Runs the §5.1 analysis over a validated tree.

    The two refinement rules can be ablated (``model_eviction`` switches
    off the §5.1.2 Seq eviction, ``model_rmw`` switches off partial-sum
    read-modify-write accounting); the ablation benches quantify what
    each rule contributes to the model's predictions.

    Slice geometry, tensor homes, walk recipes and this point's loops
    come from a shared
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

    # ------------------------------------------------------------------
    def run(self) -> DataMovementResult:
        """One pass over the plan table, in pre-order: float
        accumulation order is part of the byte-identity contract.

        Per crossing tensor, a reader's walk fills the node's buffer
        (read from its source level) and a writer's walk updates the
        source.  Read-modify-write: any update traffic beyond the
        reduction-free ideal is a partial sum written back early (an
        outer reduction loop displaced the slice), and each such
        writeback is refetched before accumulation resumes.
        """
        ctx = self.ctx
        traffic: Dict[int, LevelTraffic] = {
            i: LevelTraffic() for i in range(self.arch.num_levels)}
        slices = ctx.slices()
        splits = ctx.splits()
        volumes = self._volumes_at(splits)
        model_rmw = self.model_rmw
        flows_at: List[NodeFlows] = []
        for entry, here, crossings in zip(ctx.plan_nodes, slices,
                                          compile_crossings(ctx)):
            # Residency equals the slice geometry verbatim; the dict is
            # shared read-only (NodeSlices instances may be cache entries).
            flows = NodeFlows(entry.node, staged_words=here.staged_words)
            flows_at.append(flows)
            if not crossings:
                continue
            fills, updates = flows.fills, flows.updates
            filled = traffic[entry.level].fill
            source = traffic[entry.source_level]
            read, updated = source.read, source.update
            for name, reader, writer in crossings:
                # A slice is one buffer instance's residency: loops below
                # the node plus its unit-step (PE-lane) spatial loops.
                # Block-distributing spatial loops multiply traffic in
                # the walk.
                extents = here.extents[name]
                if reader is not None:
                    words = volumes(reader, extents, False)[0]
                    fills[name] = fills.get(name, 0.0) + words
                    filled[name] = filled.get(name, 0.0) + words
                    read[name] = read.get(name, 0.0) + words
                if writer is not None:
                    words, ideal = volumes(writer, extents, True)
                    updates[name] = updates.get(name, 0.0) + words
                    updated[name] = updated.get(name, 0.0) + words
                    rmw = max(0.0, words - ideal) if model_rmw else 0.0
                    if rmw > 0:
                        fills[name] = fills.get(name, 0.0) + rmw
                        filled[name] = filled.get(name, 0.0) + rmw
                        read[name] = read.get(name, 0.0) + rmw
        self._add_compute_accesses(traffic, splits)
        return DataMovementResult(traffic=traffic, flows_at=flows_at)

    def _volumes_at(self, splits: Sequence[LoopSplit]):
        """``volumes(recipe, extents, ideal)``: the walk's moved words
        at this point and, with ``ideal``, those of its
        read-modify-write ideal walk (else None).

        The boundary recursion is :func:`recursion_volume` over the
        walked positions' reuse loops, computed once per walk (the ideal
        walk, which drops the reduction loops and the reduction part of
        the multiplier, reuses it when no loop was dropped).  It is
        integer arithmetic, so caching its result (pre-multiplier) in
        the shared ``walkvol`` store and re-applying the float
        multiplier reproduces the uncached float bit-for-bit.  The cache
        key projects the walk onto the access's referenced dims — see
        :func:`projected_walk` for why that projection is exact.
        """
        store = self.ctx.shared_store("walkvol")

        def volumes(recipe: WalkRecipe, extents: Sequence[int],
                    ideal: bool) -> Tuple[float, Optional[float]]:
            moves = recipe.moves
            terms = [(count, step, moves[dim])
                     for pos in recipe.inner_first
                     for count, step, dim in splits[pos].reuse]
            # The float multiplier and its reduction loops' part, each a
            # product of loop counts in multiplication order.
            multiplier = reduced = 1.0
            moving, reduction = recipe.moving, recipe.reduction
            for pos, kind in recipe.multiplied:
                split = splits[pos]
                if kind == _TEMPORAL:
                    for lp in split.temporal:
                        multiplier *= lp.count
                        if lp.dim in reduction:
                            reduced *= lp.count
                    continue
                for lp in split.spatial:
                    if lp.dim in moving and (kind == _SPATIAL
                                             or lp.step != 1):
                        multiplier *= lp.count
                        if lp.dim in reduction:
                            reduced *= lp.count
            if store is None:
                moved = recursion_volume(extents, terms)
                if not ideal:
                    return moved * multiplier, None
                kept_moved = moved
                if reduction:
                    kept = [(count, step, moves[dim])
                            for pos in recipe.inner_first
                            for count, step, dim in splits[pos].reuse
                            if dim not in reduction]
                    if len(kept) != len(terms):
                        kept_moved = recursion_volume(extents, kept)
                return (moved * multiplier,
                        kept_moved * (multiplier / max(1.0, reduced)))
            access = recipe.access
            signature, referenced = access.signature()
            walked = recipe.loops(splits)[0]
            moved = _stored(store, (signature, tuple(extents),
                                    projected_walk(referenced, walked)),
                            lambda: recursion_volume(extents, terms))
            if not ideal:
                return moved * multiplier, None
            loops = [lp for lp in walked if lp.dim not in reduction]
            kept_moved = _stored(
                store, (signature, tuple(extents),
                        projected_walk(referenced, loops)),
                lambda: recursion_volume(extents, [
                    (lp.count, lp.step, moves[lp.dim])
                    for lp in reversed(loops) if lp.count != 1]))
            return (moved * multiplier,
                    kept_moved * (multiplier / max(1.0, reduced)))

        return volumes

    # ------------------------------------------------------------------
    def _add_compute_accesses(self, traffic: Dict[int, LevelTraffic],
                              splits: Sequence[LoopSplit]) -> None:
        """Operand/accumulator accesses at the innermost level.

        Each iteration point reads its input operands from and writes its
        accumulator to the leaf-level buffer (registers); these are the
        "Reg" accesses of the paper's energy breakdown (Fig. 13).
        """
        executions = self.ctx.loop_state().executions
        for i, entry in enumerate(self.ctx.plan_nodes):
            if not entry.leaf:
                continue
            op = entry.node.op
            split = splits[i]
            points = float(split.temporal_trip * split.spatial_trip
                           * executions[i])
            level = traffic[entry.level]
            read, updated = level.read, level.update
            for access in op.inputs:
                name = access.tensor.name
                read[name] = read.get(name, 0.0) + points
            name = op.output.tensor.name
            updated[name] = updated.get(name, 0.0) + points


def _stored(store, key, compute) -> int:
    """The boundary recursion under ``key`` in the shared store,
    computed (and stored) on a miss."""
    moved = store.data.get(key)
    if moved is None:
        store.miss()
        moved = compute()
        store.put(key, moved)
    else:
        store.touch(key)
    return moved
