"""Sensitivity studies (§7.5): Fig. 14, Table 6, Table 7.

* :func:`bandwidth_sensitivity` — Fig. 14: sweep the Edge L1 bandwidth
  and report each conv dataflow's slow-down (L1 access latency over
  compute latency, floored at 1); the *suitable bandwidth* is the
  smallest value whose slow-down is ~1.
* :func:`pe_size_sweep` — Table 6: cycles of FLAT-RGran (baseline) and
  the TileFlow dataflow for PE arrays from 8x8 to 256x256.
* :func:`granularity_study` — Table 7: FLAT granularities plus TileFlow
  for T5 (batch 128) on Cloud under three scenarios (fixed factors /
  explored without memory limit / explored with memory limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..analysis import TileFlowModel
from ..arch import Architecture, cloud, edge
from ..dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS,
                         attention_factor_space, conv_factor_space, flat)
from ..engine import EvaluationEngine
from ..mapper import tune_template
from ..workloads import (ATTENTION_SHAPES, CONV_CHAIN_SHAPES,
                         attention_from_shape, conv_chain_from_shape,
                         self_attention)
from .report import format_table

MB = 1024 * 1024


# ----------------------------------------------------------------------
# Fig. 14
# ----------------------------------------------------------------------
@dataclass
class BandwidthSweep:
    """Slow-down traces per dataflow over the L1 bandwidth sweep."""

    shape: str
    bandwidths_gbs: List[float]
    slowdown: Dict[str, List[float]] = field(default_factory=dict)

    def suitable_bandwidth(self, dataflow: str,
                           tolerance: float = 1.05) -> Optional[float]:
        """Smallest swept bandwidth whose slow-down is ~1 (§7.5)."""
        for bw, s in zip(self.bandwidths_gbs, self.slowdown[dataflow]):
            if s <= tolerance:
                return bw
        return None

    def to_dict(self) -> Dict[str, object]:
        return {"bandwidths_gbs": list(self.bandwidths_gbs),
                "slowdown": {name: list(trace)
                             for name, trace in self.slowdown.items()},
                "suitable_gbs": {name: self.suitable_bandwidth(name)
                                 for name in self.slowdown}}


@obs.traced()
def bandwidth_sensitivity(shape_name: str = "CC1",
                          bandwidths_gbs: Optional[Sequence[float]] = None,
                          dataflows: Sequence[str] = ("fused_layer", "isos",
                                                      "tileflow"),
                          base_arch: Optional[Architecture] = None
                          ) -> BandwidthSweep:
    """Fig. 14: L1 bandwidth sweep for one convolution chain on Edge."""
    base_arch = base_arch or edge()
    if bandwidths_gbs is None:
        bandwidths_gbs = [1, 30, 60, 120, 240, 360, 480, 600, 720, 840,
                          960, 1080, 1200]
    workload = conv_chain_from_shape(CONV_CHAIN_SHAPES[shape_name])
    sweep = BandwidthSweep(shape=shape_name,
                           bandwidths_gbs=list(bandwidths_gbs))
    l1_index = base_arch.level_index("L1")
    for name in dataflows:
        trace: List[float] = []
        for bw in bandwidths_gbs:
            arch = base_arch.with_level(
                "L1", bandwidth_gbs=bw / base_arch.level(l1_index).fanout)
            model = TileFlowModel(arch)
            tree = CONV_DATAFLOWS[name](workload, arch)
            res = model.evaluate(tree)
            trace.append(res.slowdown.get(l1_index, 1.0))
        sweep.slowdown[name] = trace
    return sweep


def format_bandwidth_sweep(sweep: BandwidthSweep) -> str:
    rows = []
    for name, trace in sweep.slowdown.items():
        rows.append([name] + [f"{s:.2f}" for s in trace]
                    + [str(sweep.suitable_bandwidth(name))])
    header = (["dataflow"] + [f"{bw:g}" for bw in sweep.bandwidths_gbs]
              + ["suitable GB/s"])
    return format_table(
        f"Figure 14: L1 slow-down vs bandwidth (GB/s), layer "
        f"{sweep.shape}", header, rows)


# ----------------------------------------------------------------------
# Table 6
# ----------------------------------------------------------------------
@obs.traced()
def pe_size_sweep(sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
                  shape_name: str = "Bert-B",
                  base_arch: Optional[Architecture] = None
                  ) -> Dict[int, Dict[str, float]]:
    """Table 6: cycles (1e6) of baseline FLAT-RGran vs TileFlow vs PEs."""
    base_arch = base_arch or edge()
    workload = attention_from_shape(ATTENTION_SHAPES[shape_name])
    out: Dict[int, Dict[str, float]] = {}
    for side in sizes:
        arch = base_arch.with_(pe_count=side * side,
                               vector_pe_count=max(16, side * side // 5))
        model = TileFlowModel(arch)
        row: Dict[str, float] = {}
        for label, name in (("baseline", "flat_rgran"),
                            ("tileflow", "tileflow")):
            tree = ATTENTION_DATAFLOWS[name](workload, arch)
            row[label] = model.evaluate(tree).latency_cycles / 1e6
        out[side] = row
    return out


def format_pe_sweep(data: Dict[int, Dict[str, float]]) -> str:
    sizes = sorted(data)
    rows = [
        ["baseline"] + [f"{data[s]['baseline']:.2f}" for s in sizes],
        ["TileFlow"] + [f"{data[s]['tileflow']:.2f}" for s in sizes],
    ]
    return format_table("Table 6: cycles (1e6) vs PE array size",
                        ["dataflow"] + [f"{s}^2" for s in sizes], rows)


# ----------------------------------------------------------------------
# Table 7
# ----------------------------------------------------------------------
GRANULARITIES = ("m", "b", "h", "r")
GRAN_LABELS = {"m": "MGran", "b": "BGran", "h": "HGran", "r": "RGran"}


@dataclass
class GranularityRow:
    """One dataflow under one Table 7 scenario."""

    dataflow: str
    cycles_1e6: Optional[float]
    l1_used_mb: Optional[float]
    l2_used_mb: Optional[float]
    oom: bool = False

    def to_dict(self) -> Dict[str, object]:
        """The row's cells; an OOM row's are ``None``."""
        return {"cycles_1e6": self.cycles_1e6, "l1_used_mb": self.l1_used_mb,
                "l2_used_mb": self.l2_used_mb, "oom": self.oom}


@obs.traced()
def granularity_study(scenario: str, batch: int = 128,
                      tune_samples: int = 30,
                      arch: Optional[Architecture] = None
                      ) -> List[GranularityRow]:
    """Table 7 for one scenario: "fixed", "explored", "limited".

    * ``fixed`` — default tiling factors, memory limits ignored.
    * ``explored`` — mapper-tuned factors, memory limits ignored.
    * ``limited`` — mapper-tuned factors, memory limits enforced (MGran
      and BGran go OOM, as in the paper).
    """
    if scenario not in ("fixed", "explored", "limited"):
        raise ValueError(f"unknown scenario {scenario!r}")
    arch = arch or cloud()
    shape = ATTENTION_SHAPES["T5"]
    workload = self_attention(shape.num_heads, shape.seq_len, shape.hidden,
                              batch=batch, expand_softmax=False,
                              name="T5-b128")
    model = TileFlowModel(arch)
    engine = EvaluationEngine(workload, arch,
                              respect_memory=(scenario == "limited"))
    l1 = arch.level_index("L1")
    l2 = arch.level_index("L2")
    rows: List[GranularityRow] = []

    def flat_template(gran):
        def template(wl, a, factors=()):
            return flat(wl, a, factors, granularity=gran)
        return template

    entries = [(GRAN_LABELS[g], flat_template(g),
                {"b_tile": [1, 2, 4, 8, 16, 32],
                 "m_tile": [64, 128, 256, 512, 1024]} if g == "r" else
                {"b_tile": [1, 2, 4, 8, 16, 32]} if g in "bh" else {})
               for g in GRANULARITIES]
    entries.append(("TileFlow", ATTENTION_DATAFLOWS["tileflow"],
                    {"b_tile": [1, 2, 4, 8],
                     "m_tile": [64, 128, 256],
                     "l_tile": [64, 128, 256, 1024]}))

    for label, template, space in entries:
        if scenario == "fixed" or not space:
            tree = template(workload, arch)
            result = model.evaluate(tree)
        else:
            tuned = tune_template(
                template, space, workload, arch, samples=tune_samples,
                respect_memory=(scenario == "limited"), engine=engine)
            result = tuned.best_result
        fp = result.resources.footprint_bytes
        l1_mb = fp.get(l1, 0.0) / MB
        l2_mb = fp.get(l2, 0.0) / MB
        oom = scenario == "limited" and bool(result.violations)
        rows.append(GranularityRow(
            dataflow=label,
            cycles_1e6=None if oom else result.latency_cycles / 1e6,
            l1_used_mb=None if oom else l1_mb,
            l2_used_mb=None if oom else l2_mb,
            oom=oom))
    return rows


def format_granularity(scenario: str,
                       rows: List[GranularityRow]) -> str:
    titles = {
        "fixed": "Table 7a: fixed tiling factors, no memory limit",
        "explored": "Table 7b: explored tiling, no memory limit",
        "limited": "Table 7c: explored tiling, with memory limit",
    }
    body = []
    for row in rows:
        if row.oom:
            body.append([row.dataflow, "OOM", "-", "-"])
        else:
            body.append([row.dataflow, f"{row.cycles_1e6:.2f}",
                         f"{row.l1_used_mb:.2f}", f"{row.l2_used_mb:.2f}"])
    return format_table(titles[scenario],
                        ["dataflow", "cycles (1e6)", "L1 used (MB)",
                         "L2 used (MB)"], body)
