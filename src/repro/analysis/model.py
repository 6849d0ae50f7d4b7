"""The TileFlow performance model: a pass pipeline over analysis trees.

:class:`TileFlowModel` runs the §5 analyses — structural validation
(§4), slice geometry, data movement (§5.1), resource usage (§5.2), and
latency/energy estimation (§5.3) — as an explicit pass pipeline
(:mod:`repro.analysis.pipeline`) over a shared per-evaluation
:class:`~repro.analysis.context.AnalysisContext`, and assembles an
:class:`~repro.analysis.metrics.EvaluationResult` from the context's
artifacts.

Partial evaluation: ``evaluate(until="resources")`` stops after a named
pass, ``stop_on_violation=True`` stops at the first pass that records
resource violations, and ``strict=True`` raises
:class:`~repro.errors.ResourceExceededError` as soon as violations are
known — before latency or energy are computed.  Results from shortened
runs have ``result.partial == True`` and hold defaults (zeros / empty
dicts) for the skipped stages.

By default resource violations are *recorded* in the result (mappers
reject or penalize infeasible candidates).
"""

from __future__ import annotations

from typing import Optional

from .. import obs
from ..arch import Architecture
from ..errors import ResourceExceededError
from ..tile.tree import AnalysisTree
from .context import AnalysisContext
from .datamovement import DataMovementResult
from .metrics import EvaluationResult, ResourceUsage
from .pipeline import DEFAULT_PIPELINE, Pipeline


class TileFlowModel:
    """Evaluates analysis trees against an architecture specification.

    ``model_eviction`` / ``model_rmw`` ablate the corresponding
    data-movement refinements (see
    :class:`~repro.analysis.datamovement.DataMovementAnalysis`).
    ``pipeline`` substitutes a custom pass sequence (the graph-based
    baseline, for example, skips the resource pass); the default is the
    full §5 pipeline.
    """

    def __init__(self, arch: Architecture, model_eviction: bool = True,
                 model_rmw: bool = True,
                 pipeline: Optional[Pipeline] = None):
        self.arch = arch
        self.model_eviction = model_eviction
        self.model_rmw = model_rmw
        self.pipeline = pipeline if pipeline is not None else DEFAULT_PIPELINE

    def context(self, tree: AnalysisTree,
                artifact_cache=None) -> AnalysisContext:
        """A fresh evaluation context for ``tree`` on this model's arch.

        Callers that run several pipeline (prefixes) over the same tree
        — the engine's pre-screen-then-evaluate path — create the
        context once and thread it through, so completed passes and
        memoized intermediates carry over.  ``artifact_cache`` plugs in
        a persistent cross-evaluation subtree store
        (:class:`~repro.engine.cache.SubtreeArtifactCache`), the
        incremental-evaluation layer.
        """
        return AnalysisContext(tree, self.arch,
                               model_eviction=self.model_eviction,
                               model_rmw=self.model_rmw,
                               artifact_cache=artifact_cache)

    def evaluate(self, tree: AnalysisTree, validate: bool = True,
                 strict: bool = False, *, until: Optional[str] = None,
                 stop_on_violation: bool = False,
                 context: Optional[AnalysisContext] = None
                 ) -> EvaluationResult:
        """Run the tree-based analysis pipeline on one mapping.

        Parameters
        ----------
        tree:
            The fusion dataflow to evaluate.
        validate:
            Run structural validation first (recommended; disable only for
            deliberately partial trees in tests).
        strict:
            Raise on resource violations instead of recording them; the
            exception fires before latency/energy run (implies
            ``stop_on_violation``).
        until:
            Stop (inclusively) after the named pass; the result is then
            partial.
        stop_on_violation:
            Stop at the first pass recording violations.
        context:
            Resume an existing context (its completed passes are
            skipped) instead of starting fresh.
        """
        ctx = context if context is not None else self.context(tree)
        if not validate:
            ctx.mark_completed("validate")
        with obs.span("model.evaluate", "analysis", tree=tree.name):
            self.pipeline.run(ctx, until=until,
                              stop_on_violation=stop_on_violation or strict)
        violations = list(ctx.get("violations") or ())
        if violations:
            obs.count("model.infeasible")
        if strict and violations:
            raise ResourceExceededError(
                f"mapping {tree.name!r} infeasible on {self.arch.name!r}: "
                + "; ".join(violations))
        return self._assemble(tree, ctx, violations)

    def _assemble(self, tree: AnalysisTree, ctx: AnalysisContext,
                  violations) -> EvaluationResult:
        movement = ctx.get("movement")
        cycles, slowdown = ctx.get("latency", (0.0, {}))
        energy_pj, breakdown = ctx.get("energy", (0.0, {}))
        partial = ctx.early_exit or any(
            p.name not in ctx.completed for p in self.pipeline.passes)
        return EvaluationResult(
            tree_name=tree.name,
            arch_name=self.arch.name,
            latency_cycles=cycles,
            energy_pj=energy_pj,
            total_ops=tree.workload.total_ops,
            traffic=movement.traffic if movement is not None else {},
            resources=ctx.get("resources") or ResourceUsage(),
            violations=violations,
            energy_breakdown_pj=breakdown,
            latency_seconds=cycles / (self.arch.frequency_ghz * 1e9),
            slowdown=slowdown,
            partial=partial,
            completed_passes=tuple(ctx.completed),
        )

    def movement(self, tree: AnalysisTree,
                 validate: bool = True) -> DataMovementResult:
        """Run only the pipeline prefix up to data movement (sub-studies)."""
        ctx = self.context(tree)
        if not validate:
            ctx.mark_completed("validate")
        with obs.span("model.movement", "analysis", tree=tree.name):
            self.pipeline.run(ctx, until="datamovement")
        return ctx.get("movement")
