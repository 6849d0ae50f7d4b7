"""Latency estimation (§5.3).

Latency composes bottom-up with the paper's rules:

* A leaf (perfect tile) takes one cycle per temporal iteration, its spatial
  iterations running in parallel on the PE array
  (``Perfect_Tile_Latency``).
* An inner tile overlaps data loading, children execution, and data
  storing under double buffering, so its per-execution latency is
  ``max(load / BW, children, store / BW)``; ``Seq``/``Shar`` children
  serialize (sum) while ``Para``/``Pipe`` children overlap (max).

Bandwidth sharing: a node's loads come from its source level, whose
aggregate bandwidth is divided among all concurrently active consumers —
spatial copies and concurrent (Para/Pipe) siblings.  The analysis threads
that concurrency factor down the tree.

The §7.5 slow-down metric (access latency over compute latency, floored at
1) is computed per level from the aggregate traffic.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..arch import Architecture
from ..tile.tree import AnalysisTree
from .context import AnalysisContext, PlanNode
from .datamovement import DataMovementResult


class LatencyAnalysis:
    """Computes total cycles and per-level slow-down for a mapping.

    The composition runs over the shared :class:`AnalysisContext`'s plan
    nodes, with per-position trip and execution counts (ancestor loop
    products) from its loop state, so they are computed once per
    evaluation rather than per analysis.
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
    def run(self) -> Tuple[float, Dict[int, float]]:
        """Return (total latency cycles, per-level slow-down)."""
        cycles = self._latency(self.ctx.plan_nodes)
        return cycles, self._slowdown(cycles)

    def _latency(self, table: Sequence[PlanNode]) -> float:
        """Latency in cycles of one execution of the root.

        The concurrency (spatial copies times concurrent siblings
        sharing a source level's bandwidth) is threaded down in
        pre-order, then the latencies compose children first.  A leaf
        takes its temporal trips times its waves of spatial iterations
        (when it asks for more lanes than the pool holds, throughput
        degrades proportionally; resource validation flags that
        separately).  A node's loads and stores share its source port
        (half duplex), and both overlap with its children's execution
        under double buffering.
        """
        splits = self.ctx.splits()
        executions_at = self.ctx.loop_state().executions
        flows_at = self.movement.flows_at
        n = len(table)
        concurrency = [1.0] * n
        for i, entry in enumerate(table):
            if entry.children:
                below = concurrency[i] * splits[i].spatial_trip
                for c in entry.children:
                    concurrency[c] = below
        latency = [0.0] * n
        # Per node, its per-execution IO time against its source level.
        io_total = [0.0] * n
        for i in range(n - 1, -1, -1):
            entry = table[i]
            split = splits[i]
            io_cycles = 0.0
            if entry.level < entry.source_level:
                flows = flows_at[i]
                executions = max(1.0, float(executions_at[i]))
                loaded = self._bytes(flows.fills)
                stored = self._bytes(flows.updates)
                bw = max(1e-9, entry.source_bandwidth
                         / max(1.0, concurrency[i]))
                io_cycles = (loaded / executions + stored / executions) / bw
                io_total[i] = (loaded + stored) / executions / bw
            if entry.leaf:
                waves = max(1.0, split.spatial_trip / entry.pool)
                inner = (split.temporal_trip * waves
                         * entry.ops_per_point)
            elif not entry.fusion:
                inner = split.temporal_trip * latency[entry.children[0]]
            else:
                lats = [latency[c] for c in entry.children]
                if entry.shares_time:
                    inner = split.temporal_trip * sum(lats)
                else:
                    # Concurrent siblings (Para/Pipe) overlap in time but
                    # share the staging level's bandwidth, so the
                    # iteration takes the slowest child or the aggregate
                    # sibling IO, whichever is longer.
                    io_sum = sum(io_total[c] for c in entry.children)
                    inner = split.temporal_trip * max(max(lats), io_sum)
            latency[i] = max(io_cycles, inner)
        return latency[0]

    # ------------------------------------------------------------------
    def _bytes(self, words_by_tensor: Dict[str, float]) -> float:
        word_bytes = self.ctx.word_bytes
        total = 0.0
        for tensor_name, words in words_by_tensor.items():
            total += words * word_bytes[tensor_name]
        return total

    def _shared_bandwidth(self, level_idx: int, concurrency: float) -> float:
        """Bytes/cycle one consumer gets from ``level_idx``'s aggregate BW."""
        level = self.arch.level(level_idx)
        aggregate = level.bytes_per_cycle(self.arch.frequency_ghz)
        aggregate *= level.fanout
        return max(1e-9, aggregate / max(1.0, concurrency))

    # ------------------------------------------------------------------
    def _slowdown(self, compute_cycles: float) -> Dict[int, float]:
        """§7.5: per-level access latency over total latency, floored at 1."""
        result: Dict[int, float] = {}
        word_bytes: Optional[float] = None
        for level_idx in range(self.arch.num_levels):
            traffic = self.movement.traffic.get(level_idx)
            if traffic is None:
                result[level_idx] = 1.0
                continue
            if word_bytes is None:
                word_bytes = self._mean_word_bytes()
            level = self.arch.level(level_idx)
            bw = level.bytes_per_cycle(self.arch.frequency_ghz) * level.fanout
            access_cycles = traffic.total_words * word_bytes / bw
            result[level_idx] = max(1.0, access_cycles
                                    / max(1e-9, compute_cycles))
        return result

    def _mean_word_bytes(self) -> float:
        tensors = self.tree.workload.tensors()
        return sum(t.word_bytes for t in tensors) / len(tensors)

