"""The §5 analysis passes and the fixed sequences they run in.

The TileFlow model (§5) is one fixed sequence of tree analyses —
validation, slice geometry, data movement (§5.1), resources (§5.2),
latency and energy (§5.3).  Each is an :class:`AnalysisPass`; the
passes communicate through one
:class:`~repro.analysis.context.AnalysisContext`'s artifacts.
:data:`DEFAULT_PASSES` is the full model and :data:`PRESCREEN_PASSES`
the engine's cheap feasibility prefix; :func:`run_passes` runs either
over a context, skipping passes the context has already completed, so
a prefix's work is reused by a later full evaluation of the same tree.

Each pass runs under an ``obs`` span named ``model.pass.<name>`` so the
profile report breaks evaluation time down per pass.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .. import obs
from .context import AnalysisContext
from .energy import compute_energy

#: Suffix marking violations produced by the resource-bounds pass (the
#: engine uses it to recognise short-circuited results and re-evaluate
#: champions).  Historically the engine-side pre-screen's tag; kept
#: verbatim so cached traces and tests keep matching.
PRESCREEN_TAG = "(prescreen lower bound)"


class AnalysisPass:
    """One stage of the analysis: a ``name`` and a :meth:`run` that
    reads and writes the context's artifacts."""

    name: str = ""

    def run(self, ctx: AnalysisContext) -> None:
        raise NotImplementedError


class ValidatePass(AnalysisPass):
    """Structural validation (§4); raises on malformed trees.

    :meth:`AnalysisContext.validate` runs the loop-free rules once per
    context and the loop rules and coverage, from its compiled tables,
    every call; invalid trees raise
    :func:`~repro.tile.validate.validate_tree`'s error.
    """

    name = "validate"

    def run(self, ctx: AnalysisContext) -> None:
        ctx.validate()


class SlicesPass(AnalysisPass):
    """Fill the context's per-position slice geometry (extents, staged
    words) from the leaf coverage validation computed."""

    name = "slices"

    def run(self, ctx: AnalysisContext) -> None:
        ctx.slices()


class DataMovementPass(AnalysisPass):
    """The §5.1 boundary recursion over the whole tree."""

    name = "datamovement"

    def run(self, ctx: AnalysisContext) -> None:
        from .datamovement import DataMovementAnalysis
        ctx.put("movement", DataMovementAnalysis(
            ctx.tree, ctx.arch, context=ctx).run())


class ResourceBoundsPass(AnalysisPass):
    """Cheap feasibility bounds from tree structure alone (pre-screen).

    * **Compute** — the §5.2 ``NumPE`` recursion is purely structural,
      so the bound is exact.
    * **Memory** — each node's staged slice bytes, with crossing
      tensors double-buffered exactly as the full resource analysis
      does (``AnalysisContext.tensor_crossing``), lower-bound its
      level's final per-instance footprint: the footprint recursion
      only *adds* child contributions on top.  So the bound is sound
      for the feasibility screen while catching mappings that only
      violate capacity through double-buffered crossing tensors.

    Both are conservative: a mapping rejected here would also be
    rejected by the full resource analysis (property-tested in
    ``tests/property/test_prop_engine.py``).  At most one compute and
    one memory violation are reported — one proof is enough to reject.
    """

    name = "resource_bounds"

    def run(self, ctx: AnalysisContext) -> None:
        problems: List[str] = []
        #: Machine-readable reason codes, index-parallel to ``problems``
        #: (``prescreen.reject`` events and ``repro explain`` report
        #: them; the human strings stay byte-compatible with PR-3).
        codes: List[str] = []
        mac, vec = ctx.num_pe(ctx.tree.root)
        if mac > ctx.arch.pe_count:
            problems.append(f"compute: {mac} MAC PEs needed, "
                            f"{ctx.arch.pe_count} available {PRESCREEN_TAG}")
            codes.append(f"compute.mac:{mac}>{ctx.arch.pe_count}")
        elif vec > ctx.arch.vector_pe_count:
            problems.append(
                f"compute: {vec} vector lanes needed, "
                f"{ctx.arch.vector_pe_count} available {PRESCREEN_TAG}")
            codes.append(f"compute.vector:{vec}>{ctx.arch.vector_pe_count}")
        if ctx.check_memory:
            for entry, used in zip(ctx.plan_nodes, ctx.staged_bytes()):
                level = entry.memory
                if (level.capacity_bytes is not None
                        and used > level.capacity_bytes):
                    problems.append(
                        f"memory: level {level.name} needs at least "
                        f"{used / 1024:.1f} KB per instance "
                        f"(double-buffered), capacity "
                        f"{level.capacity_bytes / 1024:.1f} KB "
                        f"{PRESCREEN_TAG}")
                    codes.append(f"memory.capacity:{level.name}")
                    break
        ctx.put("bound_violations", problems)
        ctx.put("bound_violation_codes", codes)


class ResourcesPass(AnalysisPass):
    """The §5.2 NumPE/FootPrint recursions and violation checks."""

    name = "resources"

    def run(self, ctx: AnalysisContext) -> None:
        from .resources import ResourceAnalysis
        usage, violations = ResourceAnalysis(
            ctx.tree, ctx.arch, ctx.get("movement"), context=ctx).run()
        ctx.put("resources", usage)
        ctx.put("violations", violations)


class LatencyPass(AnalysisPass):
    """The §5.3 bottom-up latency composition + §7.5 slow-down."""

    name = "latency"

    def run(self, ctx: AnalysisContext) -> None:
        from .latency import LatencyAnalysis
        ctx.put("latency", LatencyAnalysis(
            ctx.tree, ctx.arch, ctx.get("movement"), context=ctx).run())


class EnergyPass(AnalysisPass):
    """Per-component energy from the aggregate traffic (§5.3)."""

    name = "energy"

    def run(self, ctx: AnalysisContext) -> None:
        movement = ctx.get("movement")
        ctx.put("energy", compute_energy(
            ctx.tree.workload, ctx.arch, movement.traffic))


#: The full §5 analysis, in canonical order.
DEFAULT_PASSES: Tuple[AnalysisPass, ...] = (
    ValidatePass(), SlicesPass(), DataMovementPass(), ResourcesPass(),
    LatencyPass(), EnergyPass())

#: The cheap feasibility prefix (validate -> slices -> resource bounds).
PRESCREEN_PASSES: Tuple[AnalysisPass, ...] = (
    ValidatePass(), SlicesPass(), ResourceBoundsPass())


def run_passes(ctx: AnalysisContext, passes: Sequence[AnalysisPass]) -> None:
    """Run ``passes`` over ``ctx`` in order, skipping those already in
    ``ctx.completed`` (a context that ran a prefix resumes after it)."""
    for p in passes:
        if p.name in ctx.completed:
            continue
        with obs.span(f"model.pass.{p.name}", "analysis",
                      tree=ctx.tree.name):
            p.run(ctx)
        ctx.completed.append(p.name)
