"""Energy-breakdown experiment (Fig. 13).

Evaluates FLAT-RGran on the Edge accelerator with two L1 sizes (200 KB
and 1 MB) for the attention shapes and reports the MAC / Reg / L1 / DRAM
energy shares.  The paper's observation — larger SRAM raises per-access
cost so L1 dominates (80.1% at 1 MB vs 46.5% at 200 KB) — falls out of
the size-scaled SRAM energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..analysis import TileFlowModel
from ..arch import Architecture, edge, sram_access_energy_pj
from ..dataflows import ATTENTION_DATAFLOWS
from ..workloads import ATTENTION_SHAPES, attention_from_shape
from .report import format_table

KB = 1024

#: The two L1 capacities Fig. 13 compares.
L1_SIZES = (200 * KB, 1024 * KB)


@dataclass
class BreakdownResult:
    """Energy shares per (L1 size, shape)."""

    shares: Dict[int, Dict[str, Dict[str, float]]] = \
        field(default_factory=dict)

    def average(self, l1_size: int) -> Dict[str, float]:
        rows = list(self.shares.get(l1_size, {}).values())
        if not rows:
            return {}
        keys = rows[0].keys()
        return {k: sum(r.get(k, 0.0) for r in rows) / len(rows)
                for k in keys}

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        """Per L1 size ("200KB", "1024KB"): shares per shape and their
        average."""
        return {f"{l1 // KB}KB": {"shapes": per_shape,
                                  "average": self.average(l1)}
                for l1, per_shape in self.shares.items()}


@obs.traced()
def energy_breakdown(shapes: Optional[Sequence[str]] = None,
                     dataflow: str = "flat_rgran",
                     l1_sizes: Sequence[int] = L1_SIZES,
                     base_arch: Optional[Architecture] = None
                     ) -> BreakdownResult:
    """Fig. 13: FLAT-RGran energy shares for two L1 sizes."""
    base_arch = base_arch or edge()
    shapes = shapes or tuple(n for n in ATTENTION_SHAPES
                             if not n.startswith(("T5", "XLM")))
    result = BreakdownResult()
    for l1 in l1_sizes:
        arch = base_arch.with_level(
            "L1", capacity_bytes=l1,
            read_energy_pj=sram_access_energy_pj(l1),
            write_energy_pj=sram_access_energy_pj(l1))
        model = TileFlowModel(arch)
        per_shape: Dict[str, Dict[str, float]] = {}
        for shape_name in shapes:
            workload = attention_from_shape(ATTENTION_SHAPES[shape_name])
            tree = ATTENTION_DATAFLOWS[dataflow](workload, arch)
            res = model.evaluate(tree)
            total = res.energy_pj or 1.0
            per_shape[shape_name] = {
                comp: pj / total
                for comp, pj in res.energy_breakdown_pj.items()}
        result.shares[l1] = per_shape
    return result


def format_breakdown(result: BreakdownResult) -> str:
    components = ("MAC", "Reg", "L1", "DRAM")
    rows = []
    for l1, per_shape in result.shares.items():
        for shape, shares in per_shape.items():
            rows.append([f"L1={l1 // KB}KB", shape]
                        + [f"{shares.get(c, 0.0):.1%}" for c in components])
        avg = result.average(l1)
        rows.append([f"L1={l1 // KB}KB", "average"]
                    + [f"{avg.get(c, 0.0):.1%}" for c in components])
    return format_table("Figure 13: FLAT-RGran energy breakdown on Edge",
                        ["config", "shape"] + list(components), rows)
