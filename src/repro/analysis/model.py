"""The TileFlow performance model: the §5 passes over one analysis tree.

:class:`TileFlowModel` runs the §5 analyses — structural validation
(§4), slice geometry, data movement (§5.1), resource usage (§5.2), and
latency/energy estimation (§5.3) — as one fixed pass sequence
(:data:`~repro.analysis.pipeline.DEFAULT_PASSES`) over one
:class:`~repro.analysis.context.AnalysisContext` per tree, and
assembles an :class:`~repro.analysis.metrics.EvaluationResult` from the
context's artifacts.  The context compiles the tree's structure into
tables on first use and substitutes the tree's loops into them; an
optional shared subtree cache sits on top as a cross-evaluation memo.

Resource violations are *recorded* in the result (mappers reject or
penalize infeasible candidates); every evaluation runs every pass.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .. import obs
from ..arch import Architecture
from ..tile.tree import AnalysisTree
from .context import AnalysisContext
from .metrics import EvaluationResult, ResourceUsage
from .pipeline import DEFAULT_PASSES, AnalysisPass, run_passes


class TileFlowModel:
    """Evaluates analysis trees against an architecture specification.

    ``model_eviction`` / ``model_rmw`` ablate the corresponding
    data-movement refinements (see
    :class:`~repro.analysis.datamovement.DataMovementAnalysis`).
    """

    #: The pass sequence every evaluation runs; a subclass may replace
    #: it (the graph-based baseline drops the resource pass).
    passes: Tuple[AnalysisPass, ...] = DEFAULT_PASSES

    def __init__(self, arch: Architecture, model_eviction: bool = True,
                 model_rmw: bool = True):
        self.arch = arch
        self.model_eviction = model_eviction
        self.model_rmw = model_rmw

    def context(self, tree: AnalysisTree,
                artifact_cache=None) -> AnalysisContext:
        """A fresh evaluation context for ``tree`` on this model's arch.

        Callers that run the pre-screen before a full evaluation of the
        same tree create the context once and thread it through, so
        completed passes, the compiled tables and memoized intermediates
        carry over.  ``artifact_cache`` puts a persistent
        cross-evaluation subtree store
        (:class:`~repro.engine.cache.SubtreeArtifactCache`), the
        incremental-evaluation layer, on top of the compiled tables.
        """
        return AnalysisContext(tree, self.arch,
                               model_eviction=self.model_eviction,
                               model_rmw=self.model_rmw,
                               artifact_cache=artifact_cache)

    def evaluate(self, tree: AnalysisTree, *,
                 context: Optional[AnalysisContext] = None
                 ) -> EvaluationResult:
        """Run the tree-based analysis on one mapping.

        ``context`` resumes an existing context of ``tree`` (its
        completed passes are skipped) instead of starting fresh.
        """
        ctx = context if context is not None else self.context(tree)
        with obs.span("model.evaluate", "analysis", tree=tree.name):
            run_passes(ctx, self.passes)
        violations = list(ctx.get("violations") or ())
        if violations:
            obs.count("model.infeasible")
        cycles, slowdown = ctx.get("latency")
        energy_pj, breakdown = ctx.get("energy")
        return EvaluationResult(
            tree_name=tree.name,
            arch_name=self.arch.name,
            latency_cycles=cycles,
            energy_pj=energy_pj,
            total_ops=tree.workload.total_ops,
            traffic=ctx.get("movement").traffic,
            resources=ctx.get("resources") or ResourceUsage(),
            violations=violations,
            energy_breakdown_pj=breakdown,
            latency_seconds=cycles / (self.arch.frequency_ghz * 1e9),
            slowdown=slowdown,
        )
