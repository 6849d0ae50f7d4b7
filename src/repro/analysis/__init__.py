"""Tree-based analysis: data movement, resources, latency, energy (§5).

The analyses run as one fixed pass sequence
(:mod:`repro.analysis.pipeline`) over a shared per-evaluation
:class:`~repro.analysis.context.AnalysisContext`; see
``docs/ARCHITECTURE.md``.
"""

from .context import AnalysisContext, NodeSlices
from .datamovement import (DataMovementAnalysis, DataMovementResult,
                           NodeFlows, WalkRecipe, recursion_volume)
from .fingerprint import (cache_namespace, node_fingerprints,
                          subtree_fingerprint, workload_digest)
from .energy import compute_energy
from .latency import LatencyAnalysis
from .metrics import EvaluationResult, LevelTraffic, ResourceUsage
from .model import TileFlowModel
from .pipeline import (DEFAULT_PASSES, PRESCREEN_PASSES, AnalysisPass,
                       DataMovementPass, EnergyPass, LatencyPass,
                       ResourceBoundsPass, ResourcesPass, SlicesPass,
                       ValidatePass, run_passes)
from .resources import ResourceAnalysis
from .slices import (box_volume, delta_volume, loop_displacement,
                     merged_extents, movement_recursion, overlap_volume,
                     slice_coverage, slice_extents)

__all__ = [
    "TileFlowModel",
    "AnalysisContext", "NodeSlices",
    "AnalysisPass", "DEFAULT_PASSES", "PRESCREEN_PASSES", "run_passes",
    "ValidatePass", "SlicesPass", "DataMovementPass", "ResourcesPass",
    "ResourceBoundsPass", "LatencyPass", "EnergyPass",
    "DataMovementAnalysis", "DataMovementResult", "NodeFlows",
    "WalkRecipe", "recursion_volume",
    "node_fingerprints", "subtree_fingerprint", "workload_digest",
    "cache_namespace",
    "ResourceAnalysis", "LatencyAnalysis", "compute_energy",
    "EvaluationResult", "LevelTraffic", "ResourceUsage",
    "box_volume", "delta_volume", "overlap_volume", "movement_recursion",
    "loop_displacement", "merged_extents", "slice_coverage", "slice_extents",
]
