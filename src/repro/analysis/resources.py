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
from ..tile.tree import AnalysisTree
from .context import AnalysisContext, PlanNode
from .datamovement import DataMovementResult
from .metrics import ResourceUsage


class ResourceAnalysis:
    """Runs the §5.2 recursions over a tree with known data flows.

    The ``NumPE`` demand is the context's
    (:meth:`~repro.analysis.context.AnalysisContext.num_pe`, shared with
    the feasibility bounds pass); the footprint and instance recursions
    run over its plan nodes, slices table and loop state.
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
        mac_pe, vec_pe = self.ctx.num_pe(self.tree.root)
        footprint, instances = self._usage(self.ctx.plan_nodes)
        usage = ResourceUsage(
            num_pe=mac_pe, num_vector_pe=vec_pe,
            footprint_bytes=footprint, instances_used=instances)
        return usage, self._violations(usage)

    def _usage(self, table: Sequence[PlanNode]
               ) -> Tuple[Dict[int, float], Dict[int, int]]:
        """The root's footprint and instance occupancy, children before
        parents.

        * **Footprint** — peak bytes per instance at each memory level:
          a node's own staged bytes (crossing tensors double-buffered)
          on top of its children's, which ``Seq`` time-shares (max) and
          every other binding co-stages (sum).
        * **Instances** — spatial instances of each level the subtree
          occupies.  Siblings under any binding share the same instance
          set — fusion co-locates their data so the shared buffer can
          hold the intermediate (concurrent siblings divide *compute*,
          which NumPE accounts for).  Only spatial loops multiply the
          instance demand.
        """
        staged = self.ctx.staged_bytes()
        splits = self.ctx.splits()
        feet: List[Dict[int, float]] = [{}] * len(table)
        counts: List[Dict[int, int]] = [{}] * len(table)
        for i in range(len(table) - 1, -1, -1):
            entry = table[i]
            level = entry.level
            own = staged[i]
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
            sp = splits[i].spatial_trip
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
