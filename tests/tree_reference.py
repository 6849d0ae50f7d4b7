"""Tree-walking reference implementations of the §5 analysis passes.

``repro.analysis`` prices every tree from tables its
:class:`~repro.analysis.AnalysisContext` compiles once — slice rows,
walk recipes, fusion rules and plan nodes — into which only the loops
are substituted.  This module keeps the recursions those tables replaced,
each walking the tree node by node, as an independent reference for the
property tests.  Nothing under ``src/`` imports it.

* :class:`TreeContext` — an analysis context whose validation, slice
  geometry, ``NumPE`` demand and execution counts walk the tree
  (per-leaf upward coverage walks, recursive ``NumPE`` and ancestor
  products);
* :class:`TreeDataMovementAnalysis`, :class:`TreeResourceAnalysis` and
  :class:`TreeLatencyAnalysis` — the §5.1–§5.3 passes building each walk
  afresh and recursing over the tree;
* :class:`ReferenceModel` — a :class:`~repro.analysis.TileFlowModel`
  running those passes on a :class:`TreeContext`.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

from repro.analysis import (AnalysisContext, DataMovementAnalysis,
                            DataMovementResult, LatencyAnalysis,
                            LevelTraffic, NodeFlows, NodeSlices,
                            ResourceAnalysis, ResourceUsage, TileFlowModel,
                            box_volume, merged_extents, recursion_volume)
from repro.analysis.context import NodeTensors, _path_coverage
from repro.analysis.datamovement import moves_of
from repro.analysis.pipeline import (DataMovementPass, EnergyPass,
                                     LatencyPass, ResourcesPass, SlicesPass,
                                     ValidatePass)
from repro.ir import TensorAccess
from repro.tile.bindings import Binding
from repro.tile.loops import Loop
from repro.tile.tree import FusionNode, OpTile, TileNode
from repro.tile.validate import (_apply, _check_fusion_loops,
                                 _check_reduction_rule, _coverage_problems,
                                 raise_invalid, structure_verdict)

#: ``id(node) -> slice_coverage(node, leaf)`` along one leaf's path
#: (:meth:`TreeContext.path_coverage`).
PathCoverage = Dict[int, Dict[str, int]]
#: Node-local rules that read loops (coverage is whole-tree).
LOOP_RULES = (_check_fusion_loops, _check_reduction_rule)
#: One side of a crossing: the access, no recipe, and the leaf
#: operator's reduction dims.
Side = Tuple[TensorAccess, None, FrozenSet[str]]
#: A tensor crossing into a node's buffer: its name, then the side of
#: its first reader and of its first writer (None without one).
Crossing = Tuple[str, Optional[Side], Optional[Side]]


class Walk:
    """The truncated ancestor loop walk for one (node, tensor) pair."""

    __slots__ = ("loops", "multiplier", "multiplied")

    def __init__(self, loops: List[Loop], multiplier: float,
                 multiplied: List[Loop]):
        self.loops = loops  # outer -> inner
        self.multiplier = multiplier
        #: Loops folded into the multiplier, in multiplication order.
        self.multiplied = multiplied


def tree_node_slices(node: TileNode,
                     path_coverage: Callable[[OpTile], PathCoverage],
                     tensors: Optional[NodeTensors] = None) -> NodeSlices:
    """The node's slice geometry, merged pair by pair from each leaf's
    path coverage."""
    if tensors is None:
        tensors = NodeTensors(node.leaves())
    extents: Dict[str, Tuple[int, ...]] = {}
    staged_words: Dict[str, float] = {}
    key = id(node)
    for name in tensors.tensors:
        merged = merged_extents(
            access.extents_over(path_coverage(leaf)[key])
            for leaf, access in tensors.accesses[name])
        extents[name] = merged
        staged_words[name] = float(box_volume(merged))
    return NodeSlices(tensors.tensors, extents, staged_words)


def num_pe_demand(node: TileNode,
                  demand: Optional[Callable[[TileNode], Tuple[int, int]]]
                  = None) -> Tuple[int, int]:
    """(MAC PEs, vector PEs) used concurrently by the subtree (§5.2).

    The paper's ``NumPE`` recursion: concurrent siblings
    (``Para``/``Pipe``) add their demands, time-shared siblings
    (``Seq``/``Shar``) take the max, spatial loops multiply.  ``demand``
    prices the children (default: this recursion; a context passes its
    memo).
    """
    if node.is_leaf():
        assert isinstance(node, OpTile)
        used = node.spatial_trip_count
        return (used, 0) if node.op.kind == "mac" else (0, used)
    demand = demand or num_pe_demand
    sp = node.spatial_trip_count
    if isinstance(node, OpTile):
        mac, vec = demand(node.child)
        return sp * mac, sp * vec
    assert isinstance(node, FusionNode)
    demands = [demand(c) for c in node.children]
    if node.binding.shares_compute_in_time:
        mac = max(d[0] for d in demands)
        vec = max(d[1] for d in demands)
    else:
        mac = sum(d[0] for d in demands)
        vec = sum(d[1] for d in demands)
    return sp * mac, sp * vec


class TreeContext(AnalysisContext):
    """An analysis context whose per-point facts walk the tree."""

    def __init__(self, tree, arch, *, model_eviction: bool = True,
                 model_rmw: bool = True, check_memory: bool = True):
        super().__init__(tree, arch, model_eviction=model_eviction,
                         model_rmw=model_rmw, check_memory=check_memory)
        self._tree_slices: Dict[int, NodeSlices] = {}
        self._num_pe: Dict[int, Tuple[int, int]] = {}
        self._executions: Dict[int, int] = {}
        self._path_cov: Dict[int, PathCoverage] = {}

    def invalidate(self, subtree: Optional[TileNode] = None, *,
                   loops_only: bool = False) -> None:
        super().invalidate(subtree, loops_only=loops_only)
        self._tree_slices.clear()
        self._num_pe.clear()
        self._executions.clear()
        self._path_cov.clear()

    def validate(self) -> None:
        """The loop-free rules once per context, the loop rules and
        coverage every call, each walking the tree."""
        if structure_verdict(self):
            problems: List[str] = []
            _apply(LOOP_RULES, self.tree, problems)
            problems.extend(_coverage_problems(self.tree))
            if not problems:
                return
        raise_invalid(self.tree)

    def slices(self) -> List[NodeSlices]:
        return [self.node_slices(n) for n in self.tree.nodes()]

    def node_slices(self, node: TileNode) -> NodeSlices:
        key = self.fingerprint(node)
        cached = self._tree_slices.get(key)
        if cached is None:
            cached = self._tree_slices[key] = tree_node_slices(
                node, self.path_coverage, self.node_tensors(node))
        else:
            self.memo_hits += 1
        return cached

    def path_coverage(self, leaf: OpTile) -> PathCoverage:
        """:func:`slice_coverage` of ``leaf`` at every node on its path:
        one upward walk per leaf per context."""
        covs = self._path_cov.get(id(leaf))
        if covs is None:
            path = [leaf, *leaf.ancestors()]
            # zip drops the trailing root coverage.
            covs = self._path_cov[id(leaf)] = dict(zip(
                map(id, path), _path_coverage(tuple(leaf.op.dims),
                                              [n.split for n in path])))
        return covs

    def num_pe(self, node: TileNode) -> Tuple[int, int]:
        key = self.fingerprint(node)
        cached = self._num_pe.get(key)
        if cached is None:
            cached = self._num_pe[key] = num_pe_demand(node, self.num_pe)
        return cached

    def executions(self, node: TileNode) -> int:
        key = self.fingerprint(node)
        cached = self._executions.get(key)
        if cached is None:
            parent = node.parent
            cached = (1 if parent is None
                      else self.executions(parent) * parent.trip_count)
            self._executions[key] = cached
        return cached

    def subtree_uses(self, node: TileNode, tensor_name: str) -> bool:
        return tensor_name in self.node_slices(node).tensors


class TreeDataMovementAnalysis(DataMovementAnalysis):
    """§5.1 node by node, with every walk built afresh from the tree."""

    def run(self) -> DataMovementResult:
        traffic: Dict[int, LevelTraffic] = {
            i: LevelTraffic() for i in range(self.arch.num_levels)}
        flows_at = [self._analyze_node(node, traffic)
                    for node in self.tree.nodes()]
        self._add_compute_accesses(traffic)
        return DataMovementResult(traffic=traffic, flows_at=flows_at)

    def _analyze_node(self, node: TileNode,
                      traffic: Dict[int, LevelTraffic]) -> NodeFlows:
        """One node's flows; its traffic is added to ``traffic``."""
        source_level = (node.parent.level if node.parent is not None
                        else self.arch.dram_index)
        target, source = traffic[node.level], traffic[source_level]
        slices = self.ctx.node_slices(node)
        flows = NodeFlows(node, staged_words=slices.staged_words)
        for tensor_name, reader, writer in self._crossings(node):
            extents = slices.extents[tensor_name]
            if reader is not None:
                walk = self._walk(node, tensor_name, reader)
                words = self._walk_volume(extents, reader[0], walk)
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
                ideal = self._ideal_update_volume(extents, access, walk,
                                                  writer[2])
                rmw = max(0.0, words - ideal) if self.model_rmw else 0.0
                if rmw > 0:
                    flows.fills[tensor_name] = (
                        flows.fills.get(tensor_name, 0.0) + rmw)
                    target.add("fill", tensor_name, rmw)
                    source.add("read", tensor_name, rmw)
        return flows

    def _ideal_update_volume(self, extents, access, walk: Walk,
                             reduction_dims) -> float:
        """Update volume if no reduction loop ever displaced the slice."""
        loops = [lp for lp in walk.loops if lp.dim not in reduction_dims]
        mult_red = 1.0
        for lp in walk.multiplied:
            if lp.dim in reduction_dims:
                mult_red *= lp.count
        return self._walk_volume(extents, access, Walk(
            loops, walk.multiplier / max(1.0, mult_red), []))

    def _crossings(self, node: TileNode) -> Sequence[Crossing]:
        ctx = self.ctx
        tensors = ctx.node_tensors(node)
        crossings: List[Crossing] = []
        for name in ctx.node_slices(node).tensors:
            if not ctx.tensor_crossing(node, name):
                continue
            sides: List[Optional[Side]] = []
            for pairs in (tensors.readers.get(name),
                          tensors.writers.get(name)):
                if not pairs:
                    sides.append(None)
                    continue
                leaf, access = pairs[0]
                sides.append((access, None, leaf.op.reduction_dims))
            crossings.append((name, sides[0], sides[1]))
        return crossings

    def _walk(self, node: TileNode, tensor_name: str, side: Side) -> Walk:
        return self._build_walk(node, tensor_name, side[0],
                                self.ctx.home(tensor_name))

    def _build_walk(self, node: TileNode, tensor_name: str,
                    access: TensorAccess,
                    home: Optional[TileNode]) -> Walk:
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
        return Walk(walk_inner_to_outer, multiplier, multiplied)

    def _loop_displaces(self, access: TensorAccess, lp: Loop) -> bool:
        """Whether one step of ``lp`` moves the access's slice."""
        # Steps are positive, so the slice moves iff some coefficient does.
        return any(access.coefficients(lp.dim))

    def _walk_volume(self, extents: Sequence[int], access: TensorAccess,
                     walk: Walk) -> float:
        return (self._recursion_volume(extents, access, walk.loops)
                * walk.multiplier)

    @staticmethod
    def _recursion_volume(extents: Sequence[int], access: TensorAccess,
                          loops: Sequence[Loop]) -> int:
        """:func:`recursion_volume` over a walk's loops (outer -> inner)
        and the access's moves for them."""
        return recursion_volume(extents, [
            (lp.count, lp.step, moves_of(access, lp.dim))
            for lp in reversed(loops)])

    def _add_compute_accesses(self, traffic) -> None:
        for leaf in self.tree.root.leaves():
            points = leaf.trip_count * self.ctx.executions(leaf)
            level = traffic[leaf.level]
            for access in leaf.op.inputs:
                level.add("read", access.tensor.name, float(points))
            level.add("update", leaf.op.output.tensor.name, float(points))


class TreeResourceAnalysis(ResourceAnalysis):
    """§5.2 with the footprint and instance recursions over the tree."""

    def run(self):
        mac_pe, vec_pe = self.ctx.num_pe(self.tree.root)
        footprint = self._footprint(self.tree.root)
        instances = self._instances(self.tree.root)
        usage = ResourceUsage(
            num_pe=mac_pe, num_vector_pe=vec_pe,
            footprint_bytes=footprint, instances_used=instances)
        return usage, self._violations(usage)

    def _staged_bytes(self, node: TileNode) -> float:
        """Bytes resident in one instance of ``node``'s buffer per step."""
        flows = self.movement.flows(node)
        total = 0.0
        for tensor_name, words in flows.staged_words.items():
            wb = self.tree.workload.tensor(tensor_name).word_bytes
            crossing = (tensor_name in flows.fills
                        or tensor_name in flows.updates)
            factor = 2.0 if crossing else 1.0  # double buffering
            total += words * wb * factor
        return total

    def _footprint(self, node: TileNode) -> Dict[int, float]:
        """Peak bytes per instance at each memory level for this subtree."""
        if node.is_leaf():
            return {node.level: self._staged_bytes(node)}
        if isinstance(node, OpTile):
            usage = dict(self._footprint(node.child))
        else:
            assert isinstance(node, FusionNode)
            child_maps = [self._footprint(c) for c in node.children]
            usage = {}
            for cmap in child_maps:
                for level, used in cmap.items():
                    if node.binding is Binding.SEQ:
                        usage[level] = max(usage.get(level, 0.0), used)
                    else:
                        usage[level] = usage.get(level, 0.0) + used
        own = self._staged_bytes(node)
        usage[node.level] = usage.get(node.level, 0.0) + own
        return usage

    def _instances(self, node: TileNode) -> Dict[int, int]:
        """Spatial instances of each level this subtree occupies."""
        if node.is_leaf():
            return {node.level: 1}
        if isinstance(node, OpTile):
            usage = dict(self._instances(node.child))
        else:
            assert isinstance(node, FusionNode)
            usage = {}
            for child in node.children:
                for level, n in self._instances(child).items():
                    usage[level] = max(usage.get(level, 0), n)
        usage[node.level] = max(usage.get(node.level, 0), 1)
        sp = node.spatial_trip_count
        return {level: n * sp for level, n in usage.items()}


class TreeLatencyAnalysis(LatencyAnalysis):
    """§5.3 composed by recursion over the tree."""

    def run(self):
        cycles = self._node_latency(self.tree.root, concurrency=1.0)
        return cycles, self._slowdown(cycles)

    def _node_latency(self, node: TileNode, concurrency: float) -> float:
        """Latency in cycles of ONE execution of ``node``."""
        flows = self.movement.flows(node)
        executions = max(1.0, float(self.ctx.executions(node)))
        source_level = (node.parent.level if node.parent is not None
                        else self.arch.dram_index)
        io_cycles = 0.0
        if node.level < source_level:
            load_bytes = self._bytes(flows.fills) / executions
            store_bytes = self._bytes(flows.updates) / executions
            bw = self._shared_bandwidth(source_level, concurrency)
            # Loads and stores share the source port (half duplex); both
            # overlap with children execution under double buffering.
            io_cycles = (load_bytes + store_bytes) / bw

        if node.is_leaf():
            assert isinstance(node, OpTile)
            inner = self._perfect_tile_cycles(node)
        elif isinstance(node, OpTile):
            inner = node.temporal_trip_count * self._node_latency(
                node.child, concurrency * node.spatial_trip_count)
        else:
            assert isinstance(node, FusionNode)
            child_conc = concurrency * node.spatial_trip_count
            lats = [self._node_latency(c, child_conc) for c in node.children]
            if node.binding.shares_compute_in_time:
                inner = node.temporal_trip_count * sum(lats)
            else:
                # Concurrent siblings (Para/Pipe) overlap in time but share
                # the staging level's bandwidth, so the iteration takes the
                # slowest child or the aggregate sibling IO, whichever is
                # longer (demand-proportional sharing).
                io_sum = sum(self._child_io_cycles(c, child_conc)
                             for c in node.children)
                inner = node.temporal_trip_count * max(max(lats), io_sum)
        return max(io_cycles, inner)

    def _child_io_cycles(self, child: TileNode, concurrency: float) -> float:
        """Per-execution IO time of one child against its source level."""
        if child.parent is None or child.level >= child.parent.level:
            return 0.0
        flows = self.movement.flows(child)
        executions = max(1.0, float(self.ctx.executions(child)))
        total_bytes = (self._bytes(flows.fills)
                       + self._bytes(flows.updates)) / executions
        bw = self._shared_bandwidth(child.parent.level, concurrency)
        return total_bytes / bw

    def _perfect_tile_cycles(self, leaf: OpTile) -> float:
        """Cycles of one leaf execution (polyhedron perfect-tile latency)."""
        pool = self.arch.compute_units(leaf.op.kind)
        waves = max(1.0, leaf.spatial_trip_count / pool)
        return leaf.temporal_trip_count * waves * leaf.op.ops_per_point

    def _shared_bandwidth(self, level_idx: int, concurrency: float) -> float:
        """Bytes/cycle one consumer gets from ``level_idx``'s aggregate BW."""
        level = self.arch.level(level_idx)
        aggregate = level.bytes_per_cycle(self.arch.frequency_ghz)
        aggregate *= level.fanout
        return max(1e-9, aggregate / max(1.0, concurrency))


class TreeDataMovementPass(DataMovementPass):
    def run(self, ctx: AnalysisContext) -> None:
        ctx.put("movement", TreeDataMovementAnalysis(
            ctx.tree, ctx.arch, context=ctx).run())


class TreeResourcesPass(ResourcesPass):
    def run(self, ctx: AnalysisContext) -> None:
        usage, violations = TreeResourceAnalysis(
            ctx.tree, ctx.arch, ctx.get("movement"), context=ctx).run()
        ctx.put("resources", usage)
        ctx.put("violations", violations)


class TreeLatencyPass(LatencyPass):
    def run(self, ctx: AnalysisContext) -> None:
        ctx.put("latency", TreeLatencyAnalysis(
            ctx.tree, ctx.arch, ctx.get("movement"), context=ctx).run())


class ReferenceModel(TileFlowModel):
    """:class:`TileFlowModel` over :class:`TreeContext` and the
    tree-walking passes (same pass names)."""

    passes = (ValidatePass(), SlicesPass(), TreeDataMovementPass(),
              TreeResourcesPass(), TreeLatencyPass(), EnergyPass())

    def context(self, tree, artifact_cache=None) -> TreeContext:
        assert artifact_cache is None, "the reference keeps no shared store"
        return TreeContext(tree, self.arch,
                           model_eviction=self.model_eviction,
                           model_rmw=self.model_rmw)
