"""Graph-based fusion estimation (the §2.3 strawman, Fig. 8c yellow dots).

Graph-based approaches evaluate each operator separately with a
single-operator model and then strip the inter-operator data-movement
latency implied by the compute-graph topology — without modeling the
memory hierarchy's actual behaviour under fusion.  The paper measures
~48.8% average error for this scheme against real hardware; we reproduce
the scheme so the validation experiment can reproduce the *gap*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import (DataMovementPass, EnergyPass, LatencyPass,
                        SlicesPass, TileFlowModel, ValidatePass)
from ..arch import Architecture
from ..dataflows.attention_dataflows import layerwise as attention_layerwise
from ..dataflows.conv_dataflows import conv_layerwise
from ..errors import MappingError
from ..ir import Workload


class _PerOpModel(TileFlowModel):
    """The scheme only reads latency + energy, and single-op layerwise
    mappings need no feasibility verdict — so its passes drop the
    resource pass entirely instead of computing and discarding it."""

    passes = (ValidatePass(), SlicesPass(), DataMovementPass(),
              LatencyPass(), EnergyPass())


@dataclass
class GraphBasedResult:
    """Latency/energy estimate of the graph-based scheme."""

    cycles: float
    energy_pj: float
    per_op_cycles: Dict[str, float]
    stripped_cycles: float


class GraphBasedModel:
    """Per-op evaluation + topological transfer stripping."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self.model = _PerOpModel(arch)

    def evaluate(self, workload: Workload) -> GraphBasedResult:
        """Estimate a fused execution from unfused per-op evaluations.

        1. Evaluate the workload layerwise (each op alone, intermediates
           through DRAM) — the only thing single-op models can do.
        2. Strip the DRAM transfer latency of every intermediate tensor
           (it would stay on-chip under fusion) from the total.

        The scheme has no notion of on-chip capacity, pipelining, or
        intra-fusion reuse, which is where its error comes from.
        """
        tree = self._layerwise_tree(workload)
        baseline = self.model.evaluate(tree)
        dram = self.arch.dram
        bw = dram.bytes_per_cycle(self.arch.frequency_ghz)

        stripped = 0.0
        for tensor in workload.intermediate_tensors():
            consumers = len(workload.consumers(tensor.name))
            # One write by the producer plus one read per consumer.
            words = tensor.volume * (1 + consumers)
            stripped += words * tensor.word_bytes / bw

        cycles = max(baseline.latency_cycles - stripped,
                     baseline.latency_cycles * 0.05)
        # Energy: remove the DRAM access energy of the stripped transfers.
        stripped_pj = sum(
            t.volume * (1 + len(workload.consumers(t.name)))
            * (dram.read_energy_pj + dram.write_energy_pj) / 2.0
            for t in workload.intermediate_tensors())
        energy = max(baseline.energy_pj - stripped_pj,
                     baseline.energy_pj * 0.05)
        per_op = {op.name: 0.0 for op in workload.operators}
        return GraphBasedResult(cycles=cycles, energy_pj=energy,
                                per_op_cycles=per_op,
                                stripped_cycles=stripped)

    # ------------------------------------------------------------------
    def _layerwise_tree(self, workload: Workload):
        names = {op.name for op in workload.operators}
        if "qk" in names and "av" in names:
            return attention_layerwise(workload, self.arch)
        if "conv1" in names and "conv2" in names:
            return conv_layerwise(workload, self.arch)
        raise MappingError(
            f"graph-based model has no layerwise builder for "
            f"{workload.name!r}")
