"""Resource-usage analysis (§5.2).

Computes, bottom-up over the analysis tree:

* **Compute usage** — the paper's ``NumPE`` recursion: concurrent siblings
  (``Para``/``Pipe``) add their PE demands, time-shared siblings
  (``Seq``/``Shar``) take the max.  MAC and vector pools are tracked
  separately (the validation accelerator has distinct arrays).
* **Memory footprint** — the ``FootPrint`` recursion: ``Seq`` time-shares
  the buffer (max), every other binding co-stages (sum).  Crossing tensors
  are double-buffered (the latency model of §5.3 assumes load/compute/store
  overlap); intermediates resident at their home node are single-buffered.
* **Instance occupancy** — how many spatial instances of each memory level
  the mapping occupies (the sub-core utilization metric of Fig. 11d).

Violations (PE pool, per-instance capacity, fanout) are returned as
human-readable strings; mappers use them to reject candidates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..arch import Architecture
from ..tile.bindings import Binding
from ..tile.tree import AnalysisTree, FusionNode, OpTile, TileNode
from .context import AnalysisContext, PlanNode
from .datamovement import DataMovementResult
from .metrics import ResourceUsage


class ResourceAnalysis:
    """Runs the §5.2 recursions over a tree with known data flows.

    The ``NumPE`` recursion lives in
    :func:`~repro.analysis.context.num_pe_demand`; passing a shared
    :class:`AnalysisContext` reuses its memoized value (the feasibility
    bounds pass computes the same demand).  On a
    :class:`~repro.analysis.context.PlanContext` the footprint and
    instance recursions run over its compiled plan nodes.
    """

    def __init__(self, tree: AnalysisTree, arch: Architecture,
                 movement: DataMovementResult,
                 context: Optional[AnalysisContext] = None):
        self.tree = tree
        self.arch = arch
        self.movement = movement
        self.ctx = context if context is not None else AnalysisContext(
            tree, arch)

    # ------------------------------------------------------------------
    def run(self) -> Tuple[ResourceUsage, List[str]]:
        mac_pe, vec_pe = self._num_pe(self.tree.root)
        table = self.ctx.plan_nodes
        if table is None:
            footprint = self._footprint(self.tree.root)
            instances = self._instances(self.tree.root)
        else:
            footprint, instances = self._plan_usage(table)
        usage = ResourceUsage(
            num_pe=mac_pe, num_vector_pe=vec_pe,
            footprint_bytes=footprint, instances_used=instances)
        return usage, self._violations(usage)

    # ------------------------------------------------------------------
    def _num_pe(self, node: TileNode) -> Tuple[int, int]:
        """(MAC PEs, vector PEs) used concurrently by the subtree."""
        return self.ctx.num_pe(node)

    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def _instances(self, node: TileNode) -> Dict[int, int]:
        """Spatial instances of each level this subtree occupies.

        Siblings under any binding share the same instance set — fusion
        co-locates their data so the shared buffer can hold the
        intermediate (concurrent siblings divide *compute*, which NumPE
        accounts for).  Only spatial loops multiply the instance demand.
        """
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

    def _plan_usage(self, table: Sequence[PlanNode]
                    ) -> Tuple[Dict[int, float], Dict[int, int]]:
        """:meth:`_footprint` and :meth:`_instances` of the root over a
        plan's nodes, children before parents: the same float
        operations, in the same order, into dicts of the same key
        order."""
        words_of = self.ctx.node_slices
        feet: List[Dict[int, float]] = [{}] * len(table)
        counts: List[Dict[int, int]] = [{}] * len(table)
        for i in range(len(table) - 1, -1, -1):
            entry = table[i]
            node, level = entry.node, entry.level
            words = words_of(node).staged_words
            own = 0.0
            for name, word_bytes, factor in entry.staged:
                own += words[name] * word_bytes * factor
            if entry.leaf:
                feet[i] = {level: own}
                counts[i] = {level: 1}
                continue
            if entry.fusion:
                usage: Dict[int, float] = {}
                used_by: Dict[int, int] = {}
                for c in entry.children:
                    for lvl, used in feet[c].items():
                        if entry.seq:
                            usage[lvl] = max(usage.get(lvl, 0.0), used)
                        else:
                            usage[lvl] = usage.get(lvl, 0.0) + used
                    for lvl, n in counts[c].items():
                        used_by[lvl] = max(used_by.get(lvl, 0), n)
            else:
                usage = dict(feet[entry.children[0]])
                used_by = dict(counts[entry.children[0]])
            usage[level] = usage.get(level, 0.0) + own
            used_by[level] = max(used_by.get(level, 0), 1)
            sp = node.spatial_trip_count
            feet[i] = usage
            counts[i] = {lvl: n * sp for lvl, n in used_by.items()}
        return feet[0], counts[0]

    # ------------------------------------------------------------------
    def _violations(self, usage: ResourceUsage) -> List[str]:
        problems: List[str] = []
        if usage.num_pe > self.arch.pe_count:
            problems.append(
                f"compute: {usage.num_pe} MAC PEs needed, "
                f"{self.arch.pe_count} available")
        if usage.num_vector_pe > self.arch.vector_pe_count:
            problems.append(
                f"compute: {usage.num_vector_pe} vector lanes needed, "
                f"{self.arch.vector_pe_count} available")
        for level_idx, used in sorted(usage.footprint_bytes.items()):
            level = self.arch.level(level_idx)
            if level.capacity_bytes is not None and used > level.capacity_bytes:
                problems.append(
                    f"memory: level {level.name} needs {used / 1024:.1f} KB "
                    f"per instance, capacity {level.capacity_bytes / 1024:.1f}"
                    f" KB")
        for level_idx, n in sorted(usage.instances_used.items()):
            level = self.arch.level(level_idx)
            if n > level.fanout:
                problems.append(
                    f"fanout: level {level.name} needs {n} instances, "
                    f"has {level.fanout}")
        return problems
