"""Model validation experiments (Fig. 8).

* :func:`validate_against_polyhedron` — Fig. 8a/8b: enumerate matmul
  mappings, evaluate each with the tree-based model and the independent
  polyhedron (Timeloop-like) baseline, and report cycle/energy
  correlation (the paper reports R^2 = 0.999 and ~0.1% energy error).
* :func:`validate_against_accelerator` — Fig. 8c/8d: enumerate fused
  self-attention mappings on the TPU-derived accelerator, compare the
  analytical model's cycles/energy against the cycle-approximate
  simulated accelerator (the RTL substitute), and against the graph-based
  scheme (the paper reports 5.4% model error vs 48.8% graph-based).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..analysis import TileFlowModel
from ..arch import Architecture, validation_accelerator
from ..baselines import (GraphBasedModel, MappingLoop, PolyhedronMapping,
                         PolyhedronModel)
from ..dataflows import ATTENTION_DATAFLOWS, attention_factor_space
from ..ir import Workload
from ..sim import SimulatedAccelerator
from ..tile.loops import auto_steps
from ..tile.tree import AnalysisTree, OpTile
from ..workloads import matmul, self_attention
from .report import format_table, mean_abs_error, r_squared


@dataclass
class CorrelationResult:
    """Paired model predictions over a mapping sweep."""

    labels: List[str] = field(default_factory=list)
    reference_cycles: List[float] = field(default_factory=list)
    model_cycles: List[float] = field(default_factory=list)
    reference_energy: List[float] = field(default_factory=list)
    model_energy: List[float] = field(default_factory=list)
    extra_cycles: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.labels)

    def cycle_r2(self) -> float:
        return r_squared(self.reference_cycles, self.model_cycles)

    def energy_r2(self) -> float:
        return r_squared(self.reference_energy, self.model_energy)

    def cycle_error(self) -> float:
        return mean_abs_error(self.reference_cycles, self.model_cycles)

    def energy_error(self) -> float:
        return mean_abs_error(self.reference_energy, self.model_energy)

    def to_dict(self) -> Dict[str, object]:
        """Mapping count, cycle and energy R^2 and mean error, and each
        extra model's cycle error."""
        return {"mappings": self.count,
                "cycle_r2": self.cycle_r2(),
                "cycle_error": self.cycle_error(),
                "energy_r2": self.energy_r2(),
                "energy_error": self.energy_error(),
                "extra_cycle_errors": {
                    name: mean_abs_error(self.reference_cycles, cycles)
                    for name, cycles in self.extra_cycles.items()}}


# ----------------------------------------------------------------------
# Fig. 8a / 8b
# ----------------------------------------------------------------------
def enumerate_matmul_mappings(m: int = 256, n: int = 256, k: int = 256,
                              limit: int = 1152
                              ) -> List[Tuple[str, PolyhedronMapping,
                                              List[List]]]:
    """Enumerate perfect matmul mappings on the validation accelerator.

    Varies the L1-level tiling factors of i/j/k, the L1 loop order, and
    the PE-array tile shape — the same axes the paper's 1152-mapping
    enumeration varies.  Returns (label, polyhedron mapping, tree loop
    spec) triples; the tree spec feeds :func:`matmul_tree`.
    """
    leaf_shapes = [(16, 16), (8, 32), (32, 8)]
    cores = 4
    out = []
    for (ls_i, ls_j), order in itertools.product(
            leaf_shapes, itertools.permutations("ijk")):
        i_pairs = _split_pairs(m // (cores * ls_i))
        j_pairs = _split_pairs(n // ls_j)
        k_pairs = _split_pairs(k // 16)
        for (i1, i2), (j1, j2), (k1, k2) in itertools.product(
                i_pairs, j_pairs, k_pairs):
            outer = {"i": i1, "j": j1, "k": k1}
            inner = {"i": i2, "j": j2, "k": k2}
            level0 = ([MappingLoop("i", cores, spatial=True)]
                      + [MappingLoop(d, outer[d]) for d in order])
            level1 = ([MappingLoop(d, inner[d]) for d in order]
                      + [MappingLoop("k", 16),
                         MappingLoop("i", ls_i, spatial=True),
                         MappingLoop("j", ls_j, spatial=True)])
            label = (f"{''.join(order)}/leaf{ls_i}x{ls_j}/"
                     f"{i1}.{j1}.{k1}-{i2}.{j2}.{k2}")
            spec0 = ([("i", cores, True)]
                     + [(d, outer[d], False) for d in order])
            spec1 = ([(d, inner[d], False) for d in order]
                     + [("k", 16, False), ("i", ls_i, True),
                        ("j", ls_j, True)])
            out.append((label, PolyhedronMapping([level0, level1]),
                        [spec0, spec1]))
            if len(out) >= limit:
                return out
    return out


def _split_pairs(n: int) -> List[Tuple[int, int]]:
    pairs = []
    d = 1
    while d <= n:
        if n % d == 0:
            pairs.append((d, n // d))
        d += 1
    return pairs


def matmul_tree(workload: Workload, arch: Architecture,
                spec: List[List]) -> AnalysisTree:
    """Build the tree equivalent of an enumerated polyhedron mapping."""
    op = workload.operators[0]
    leveled = auto_steps(spec)
    l0 = OpTile(op, leveled[1], level=0)
    l1 = OpTile(op, leveled[0], level=1, child=l0)
    return AnalysisTree(workload, l1, name="mm-mapping")


@obs.traced()
def validate_against_polyhedron(size: int = 256, limit: int = 1152,
                                arch: Optional[Architecture] = None
                                ) -> CorrelationResult:
    """Fig. 8a/8b: tree-based model vs the polyhedron baseline."""
    arch = arch or validation_accelerator()
    workload = matmul(size, size, size)
    poly = PolyhedronModel(arch)
    tree_model = TileFlowModel(arch)
    result = CorrelationResult()
    for label, mapping, spec in enumerate_matmul_mappings(
            size, size, size, limit=limit):
        ref = poly.evaluate(workload, mapping)
        tree = matmul_tree(workload, arch, spec)
        mod = tree_model.evaluate(tree)
        result.labels.append(label)
        result.reference_cycles.append(ref.cycles)
        result.model_cycles.append(mod.latency_cycles)
        result.reference_energy.append(ref.energy_pj)
        result.model_energy.append(mod.energy_pj)
    return result


# ----------------------------------------------------------------------
# Fig. 8c / 8d
# ----------------------------------------------------------------------
@obs.traced()
def validate_against_accelerator(limit: int = 131
                                 ) -> CorrelationResult:
    """Fig. 8c/8d: analytical model vs the simulated accelerator.

    Enumerates fused self-attention mappings (different shapes, dataflow
    templates, and tiling factors, as in the paper's 131 hand-written
    kernels) and compares relative cycles/energy.  The graph-based
    scheme's prediction is recorded per mapping in ``extra_cycles``.
    """
    arch = validation_accelerator()
    model = TileFlowModel(arch)
    sim = SimulatedAccelerator(arch)
    graph = GraphBasedModel(arch)
    shapes = [(4, 128, 256), (8, 128, 512), (4, 256, 256), (8, 256, 512),
              (2, 192, 384)]
    templates = ["flat_rgran", "chimera", "tileflow"]
    result = CorrelationResult()
    result.extra_cycles["graph_based"] = []
    for heads, seq, hidden in shapes:
        workload = self_attention(heads, seq, hidden, expand_softmax=True,
                                  name=f"attn{heads}x{seq}x{hidden}")
        gb_cycles = graph.evaluate(workload).cycles
        for template_name in templates:
            space = attention_factor_space(template_name, workload)
            m_choices = space.get("m_tile", [seq]) or [seq]
            l_choices = space.get("l_tile", [seq])[::2] or [seq]
            for m_t, l_t in itertools.product(m_choices, l_choices):
                if result.count >= limit:
                    return result
                factors = {"m_tile": m_t, "l_tile": l_t}
                tree = ATTENTION_DATAFLOWS[template_name](
                    workload, arch, factors)
                mod = model.evaluate(tree)
                ref = sim.run(tree)
                result.labels.append(
                    f"{workload.name}/{template_name}/m{m_t}l{l_t}")
                result.reference_cycles.append(ref.cycles)
                result.model_cycles.append(mod.latency_cycles)
                result.reference_energy.append(ref.energy_pj)
                result.model_energy.append(mod.energy_pj)
                result.extra_cycles["graph_based"].append(gb_cycles)
    return result


def format_validation(poly: CorrelationResult,
                      accel: CorrelationResult) -> str:
    """The Fig. 8 summary block."""
    gb_error = mean_abs_error(accel.reference_cycles,
                              accel.extra_cycles["graph_based"])
    rows = [
        ["8a", "cycle vs polyhedron model", poly.count,
         f"R2={poly.cycle_r2():.4f}", f"err={poly.cycle_error():.2%}"],
        ["8b", "energy vs polyhedron model", poly.count,
         f"R2={poly.energy_r2():.4f}", f"err={poly.energy_error():.2%}"],
        ["8c", "cycle vs simulated accelerator", accel.count,
         f"err={accel.cycle_error():.2%}", f"graph-based={gb_error:.2%}"],
        ["8d", "energy vs simulated accelerator", accel.count,
         f"err={accel.energy_error():.2%}", ""],
    ]
    return format_table("Figure 8: model validation",
                        ["fig", "comparison", "mappings", "metric",
                         "baseline"], rows)
