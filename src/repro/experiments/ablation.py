"""Ablation studies of the model's design choices (DESIGN.md inventory).

Quantifies what each analysis refinement contributes by re-evaluating the
dataflow comparison with the refinement disabled:

* **Seq eviction** (§5.1.2) — without it, sequentially bound siblings
  keep each other's data resident, under-predicting the DRAM traffic of
  eviction-prone dataflows.
* **Read-modify-write accounting** — without it, partial-sum writebacks
  are free, under-predicting mappings with outer reduction loops.
* **Pipelining** (Pipe vs Shar binding) — re-binding the TileFlow
  dataflow's fusion node to ``Shar`` isolates how much of its speedup
  comes from stage overlap rather than tiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import obs
from ..analysis import TileFlowModel
from ..arch import Architecture, edge, validation_accelerator
from ..dataflows import ATTENTION_DATAFLOWS
from ..tile.bindings import Binding
from ..tile.tree import FusionNode
from ..workloads import ATTENTION_SHAPES, attention_from_shape
from .report import format_table


@dataclass
class AblationRow:
    """One dataflow under full vs ablated models."""

    dataflow: str
    full_cycles: float
    full_dram: float
    ablated_cycles: float
    ablated_dram: float

    @property
    def dram_ratio(self) -> float:
        return (self.ablated_dram / self.full_dram
                if self.full_dram else 1.0)

    @property
    def cycle_ratio(self) -> float:
        return (self.ablated_cycles / self.full_cycles
                if self.full_cycles else 1.0)

    def to_dict(self) -> Dict[str, float]:
        return {"full_cycles": self.full_cycles, "full_dram": self.full_dram,
                "ablated_cycles": self.ablated_cycles,
                "ablated_dram": self.ablated_dram,
                "dram_ratio": self.dram_ratio,
                "cycle_ratio": self.cycle_ratio}


@obs.traced()
def movement_rule_ablation(rule: str, shape_name: str = "Bert-S",
                           arch: Optional[Architecture] = None
                           ) -> List[AblationRow]:
    """Compare the full model vs the model without one movement rule.

    ``rule`` is "eviction" or "rmw".
    """
    if rule not in ("eviction", "rmw"):
        raise ValueError(f"unknown ablation rule {rule!r}")
    arch = arch or edge()
    workload = attention_from_shape(ATTENTION_SHAPES[shape_name])
    full = TileFlowModel(arch)
    ablated = TileFlowModel(arch,
                            model_eviction=(rule != "eviction"),
                            model_rmw=(rule != "rmw"))
    rows: List[AblationRow] = []
    for name, template in ATTENTION_DATAFLOWS.items():
        tree_a = template(workload, arch)
        tree_b = template(workload, arch)
        fr = full.evaluate(tree_a)
        ar = ablated.evaluate(tree_b)
        rows.append(AblationRow(
            dataflow=name,
            full_cycles=fr.latency_cycles, full_dram=fr.dram_words(),
            ablated_cycles=ar.latency_cycles, ablated_dram=ar.dram_words()))
    return rows


@obs.traced()
def binding_ablation(shape_name: str = "Bert-S",
                     arch: Optional[Architecture] = None
                     ) -> Dict[str, float]:
    """Isolate the pipelining benefit: TileFlow dataflow, Pipe vs Shar.

    Returns cycles under each binding; the ratio is the pure stage-overlap
    speedup at identical tiling.
    """
    arch = arch or edge()
    workload = attention_from_shape(ATTENTION_SHAPES[shape_name])
    model = TileFlowModel(arch)
    out: Dict[str, float] = {}
    for binding in (Binding.PIPE, Binding.SHAR, Binding.SEQ):
        tree = ATTENTION_DATAFLOWS["tileflow"](workload, arch)
        for node in tree.nodes():
            if isinstance(node, FusionNode) and len(node.children) > 1:
                node.binding = binding
        out[binding.value] = model.evaluate(tree).latency_cycles
    return out


def format_rule_ablation(rule: str, rows: List[AblationRow]) -> str:
    body = [[r.dataflow, f"{r.full_dram:.4g}", f"{r.ablated_dram:.4g}",
             f"{r.dram_ratio:.3f}", f"{r.cycle_ratio:.3f}"]
            for r in rows]
    return format_table(
        f"Ablation: data-movement rule '{rule}' disabled",
        ["dataflow", "DRAM (full)", "DRAM (ablated)", "DRAM ratio",
         "cycle ratio"], body)


def format_binding_ablation(cycles: Dict[str, float]) -> str:
    base = cycles.get("Pipe", 1.0)
    body = [[name, f"{c:.4g}", f"{c / base:.2f}x"]
            for name, c in cycles.items()]
    return format_table("Ablation: TileFlow dataflow binding",
                        ["binding", "cycles", "vs Pipe"], body)
