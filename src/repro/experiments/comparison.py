"""Fusion-dataflow comparison experiments (Fig. 10, Fig. 11, Fig. 12).

For each workload shape the harness builds every named dataflow, optionally
tunes its tiling factors with the mapper (the paper's fair-comparison
protocol, §7.3), evaluates it with the TileFlow model, and reports the
normalized series the figures plot: cycles, DRAM data movement, on-chip
data movement, the L1 read/fill/update breakdown, and sub-core
utilization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .. import obs
from ..analysis import EvaluationResult, TileFlowModel
from ..arch import Architecture, cloud, edge
from ..dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS,
                         attention_factor_space, conv_factor_space)
from ..ir import Workload
from ..mapper import tune_template
from ..workloads import (ATTENTION_SHAPES, CLOUD_ATTENTION_NAMES,
                         CONV_CHAIN_SHAPES, EDGE_ATTENTION_NAMES,
                         attention_from_shape, conv_chain_from_shape)
from .report import format_table, geomean, normalize

#: Dataflow order used in the figures.
ATTENTION_ORDER = ("layerwise", "unipipe", "flat_hgran", "flat_rgran",
                   "chimera", "tileflow")
CONV_ORDER = ("layerwise", "fused_layer", "isos", "tileflow")


@dataclass
class DataflowRow:
    """One (shape, dataflow) evaluation."""

    shape: str
    dataflow: str
    result: EvaluationResult
    factors: Dict[str, int] = field(default_factory=dict)


@dataclass
class ComparisonResult:
    """All rows of one comparison figure."""

    arch_name: str
    rows: List[DataflowRow] = field(default_factory=list)

    def by_shape(self) -> Dict[str, Dict[str, DataflowRow]]:
        table: Dict[str, Dict[str, DataflowRow]] = {}
        for row in self.rows:
            table.setdefault(row.shape, {})[row.dataflow] = row
        return table

    def speedups(self, baseline: str = "layerwise"
                 ) -> Dict[str, Dict[str, float]]:
        """Per-shape speedup of each dataflow over the baseline."""
        out: Dict[str, Dict[str, float]] = {}
        for shape, per_df in self.by_shape().items():
            base = per_df[baseline].result.latency_cycles
            out[shape] = {name: base / row.result.latency_cycles
                          for name, row in per_df.items()}
        return out

    def geomean_speedups(self, baseline: str = "layerwise"
                         ) -> Dict[str, float]:
        per_shape = self.speedups(baseline)
        names = {name for d in per_shape.values() for name in d}
        return {name: geomean([d[name] for d in per_shape.values()
                               if name in d])
                for name in sorted(names)}

    def to_dict(self) -> Dict[str, object]:
        """The numbers behind every sub-figure: per shape and dataflow,
        cycles, speedup, DRAM words (and their ratio to Layerwise),
        on-chip words per level index, the L1 read/fill/update shares
        and the L1 instances used; geomean speedups and mean DRAM
        ratios over the shapes."""
        speedups = self.speedups()
        shapes: Dict[str, Dict[str, object]] = {}
        for shape, per_df in self.by_shape().items():
            base_dram = per_df["layerwise"].result.dram_words()
            shares = l1_breakdown(self, shape)
            shapes[shape] = {name: {
                "cycles": row.result.latency_cycles,
                "speedup": speedups[shape][name],
                "dram_words": row.result.dram_words(),
                "dram_ratio": row.result.dram_words() / base_dram,
                "onchip_words": {
                    str(lvl): row.result.onchip_words(lvl)
                    for lvl in sorted(row.result.traffic)[:-1]},
                "l1_shares": shares.get(name),
                "l1_instances":
                    row.result.resources.instances_used.get(1, 0),
            } for name, row in per_df.items()}
        geomeans = self.geomean_speedups()
        return {"arch": self.arch_name, "geomean_speedups": geomeans,
                "mean_dram_ratios": {
                    name: sum(d[name]["dram_ratio"] for d in shapes.values())
                    / len(shapes) for name in geomeans},
                "shapes": shapes}


def _evaluate_all(workload_of: Callable[[str], Workload],
                  shapes: Sequence[str],
                  dataflows: Mapping[str, Callable],
                  space_of: Callable[[str, Workload], Dict],
                  arch: Architecture, order: Sequence[str],
                  tune_samples: int) -> ComparisonResult:
    model = TileFlowModel(arch)
    result = ComparisonResult(arch_name=arch.name)
    for shape in shapes:
        workload = workload_of(shape)
        for name in order:
            template = dataflows[name]
            if tune_samples > 0:
                tuned = tune_template(template, space_of(name, workload),
                                      workload, arch, samples=tune_samples,
                                      respect_memory=False)
                row = DataflowRow(shape, name, tuned.best_result,
                                  tuned.best_factors)
            else:
                tree = template(workload, arch)
                row = DataflowRow(shape, name, model.evaluate(tree))
            result.rows.append(row)
    return result


# ----------------------------------------------------------------------
@obs.traced()
def attention_comparison(arch: Optional[Architecture] = None,
                         shapes: Optional[Sequence[str]] = None,
                         tune_samples: int = 0,
                         expand_softmax: bool = True) -> ComparisonResult:
    """Fig. 10 (Edge) / Fig. 11 (Cloud) self-attention comparison."""
    arch = arch or edge()
    if shapes is None:
        shapes = (EDGE_ATTENTION_NAMES if arch.name == "Edge"
                  else CLOUD_ATTENTION_NAMES)

    def workload_of(shape_name: str) -> Workload:
        return attention_from_shape(ATTENTION_SHAPES[shape_name],
                                    expand_softmax=expand_softmax)

    return _evaluate_all(workload_of, shapes, ATTENTION_DATAFLOWS,
                         attention_factor_space, arch, ATTENTION_ORDER,
                         tune_samples)


@obs.traced()
def conv_comparison(arch: Optional[Architecture] = None,
                    shapes: Optional[Sequence[str]] = None,
                    tune_samples: int = 20) -> ComparisonResult:
    """Fig. 12 convolution-chain comparison (Cloud by default)."""
    arch = arch or cloud()
    shapes = shapes or tuple(CONV_CHAIN_SHAPES)

    def workload_of(shape_name: str) -> Workload:
        return conv_chain_from_shape(CONV_CHAIN_SHAPES[shape_name])

    return _evaluate_all(workload_of, shapes, CONV_DATAFLOWS,
                         conv_factor_space, arch, CONV_ORDER, tune_samples)


# ----------------------------------------------------------------------
# Formatting: the figure series
# ----------------------------------------------------------------------
def _normalized_rows(result: ComparisonResult, names: Sequence[str],
                     value: Callable[[EvaluationResult], float]
                     ) -> List[List[str]]:
    """Per shape, each dataflow's ``value`` over Layerwise's."""
    rows = []
    for shape, per_df in result.by_shape().items():
        norm = normalize({n: value(per_df[n].result) for n in names
                          if n in per_df}, "layerwise")
        rows.append([shape] + [f"{norm.get(n, float('nan')):.3f}"
                               for n in names])
    return rows


def format_normalized_cycles(result: ComparisonResult,
                             title: str) -> str:
    """Fig. 10a / 11a / 12a: normalized cycle per shape per dataflow."""
    names = sorted({r.dataflow for r in result.rows},
                   key=lambda n: (ATTENTION_ORDER + CONV_ORDER).index(n)
                   if n in ATTENTION_ORDER + CONV_ORDER else 99)
    rows = _normalized_rows(result, names, lambda r: r.latency_cycles)
    gm = result.geomean_speedups()
    rows.append(["geomean speedup"] + [f"{gm.get(n, 0):.2f}x"
                                       for n in names])
    return format_table(title, ["shape"] + list(names), rows)


def format_dram_movement(result: ComparisonResult, title: str) -> str:
    """Fig. 10b / 12b: normalized DRAM data movement."""
    names = sorted({r.dataflow for r in result.rows})
    return format_table(title, ["shape"] + names, _normalized_rows(
        result, names, EvaluationResult.dram_words))


def format_onchip_movement(result: ComparisonResult, level: int,
                           title: str) -> str:
    """Fig. 10c / 11b / 11c: normalized on-chip data movement."""
    names = sorted({r.dataflow for r in result.rows})
    return format_table(title, ["shape"] + names, _normalized_rows(
        result, names, lambda r: r.onchip_words(level)))


def l1_breakdown(result: ComparisonResult, shape: str,
                 level: int = 1) -> Dict[str, Dict[str, float]]:
    """Fig. 10d: read/fill/update shares of L1 movement for one shape."""
    out: Dict[str, Dict[str, float]] = {}
    for row in result.rows:
        if row.shape != shape:
            continue
        traffic = row.result.traffic.get(level)
        if traffic is None:
            continue
        total = traffic.total_words or 1.0
        out[row.dataflow] = {k: v / total
                             for k, v in traffic.breakdown().items()}
    return out


def format_l1_breakdown(result: ComparisonResult, shape: str,
                        title: str) -> str:
    rows = []
    for name, shares in l1_breakdown(result, shape).items():
        rows.append([name, f"{shares['read']:.1%}", f"{shares['fill']:.1%}",
                     f"{shares['update']:.1%}"])
    return format_table(title, ["dataflow", "read", "fill", "update"], rows)


def format_utilization(result: ComparisonResult, title: str,
                       level: int = 1) -> str:
    """Fig. 11d: sub-core (level-1 instance) occupancy per dataflow."""
    names = sorted({r.dataflow for r in result.rows})
    rows = []
    for shape, per_df in result.by_shape().items():
        rows.append([shape] + [
            str(per_df[n].result.resources.instances_used.get(level, 0))
            if n in per_df else "-" for n in names])
    return format_table(title, ["shape"] + names, rows)
