"""Cheap feasibility pre-screen: the analysis passes' cheap prefix.

Before the engine pays for a full evaluation it runs
:data:`~repro.analysis.pipeline.PRESCREEN_PASSES` — validate ->
slices -> resource bounds — over the candidate's
:class:`~repro.analysis.context.AnalysisContext`.  The bounds pass
(:class:`~repro.analysis.pipeline.ResourceBoundsPass`) proves compute
demand exactly (the structural ``NumPE`` recursion,
:meth:`AnalysisContext.num_pe`) and lower-bounds per-node staged bytes
with crossing tensors double-buffered exactly as the full resource
analysis does; both are conservative, so the screen never rejects a
mapping the full model would find feasible (property-tested in
``tests/property/test_prop_engine.py``) and search trajectories are
identical with and without it.

Because the prefix runs on the same context a subsequent full
evaluation resumes, its validation and slice geometry are not repeated
work — :func:`~repro.analysis.pipeline.run_passes` skips completed
passes.  This module adds what the engine needs around the prefix: the
entry point, the placeholder result of a rejected mapping, and its
recognition.
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.context import AnalysisContext
from ..analysis.metrics import EvaluationResult, ResourceUsage
from ..analysis.pipeline import PRESCREEN_PASSES, PRESCREEN_TAG, run_passes
from ..arch import Architecture
from ..tile.tree import AnalysisTree

__all__ = ["PRESCREEN_TAG", "prescreen", "rejected_result",
           "is_prescreened"]


def prescreen(tree: AnalysisTree, arch: Architecture,
              check_memory: bool = True,
              context: Optional[AnalysisContext] = None) -> List[str]:
    """Violations provable without the full analysis (empty = may pass).

    Returns at most one compute and one memory violation — the screen
    stops at the first proof of infeasibility per resource class, since
    one is enough to reject.  Pass ``context`` to share work with a
    subsequent full evaluation of the same tree (it resumes where the
    screen stopped).
    """
    ctx = context if context is not None else AnalysisContext(tree, arch)
    ctx.check_memory = check_memory
    run_passes(ctx, PRESCREEN_PASSES)
    return list(ctx.get("bound_violations") or ())


def rejected_result(tree: AnalysisTree, arch: Architecture,
                    violations: List[str]) -> EvaluationResult:
    """A placeholder result for a pre-screen-rejected mapping.

    Carries the violations (so cost functions classify it exactly like a
    fully analysed infeasible mapping) but no traffic/latency detail.
    """
    return EvaluationResult(
        tree_name=tree.name, arch_name=arch.name,
        latency_cycles=0.0, energy_pj=0.0,
        total_ops=tree.workload.total_ops,
        traffic={}, resources=ResourceUsage(), violations=list(violations))


def is_prescreened(result: EvaluationResult) -> bool:
    """True for results produced by :func:`rejected_result`."""
    return any(PRESCREEN_TAG in v for v in result.violations)
