"""The pass-based analysis pipeline.

The TileFlow model (§5) is a sequence of tree analyses — validation,
slice geometry, data movement, resources, latency, energy — and this
module makes that sequence explicit: each :class:`AnalysisPass` declares
the context artifacts it ``reads`` and ``writes``, and a
:class:`Pipeline` runs passes in order over one
:class:`~repro.analysis.context.AnalysisContext`, statically checking at
construction that every read is produced by an earlier pass.

Partial evaluation falls out of the structure:

* ``run(ctx, until="resources")`` stops after a named pass (mapper cost
  functions that only need latency skip the energy stage),
* ``run(ctx, stop_on_violation=True)`` stops as soon as a pass records
  resource violations (infeasible candidates never pay for latency or
  energy),
* re-running a pipeline on the same context skips completed passes, so
  the engine's cheap feasibility prefix (:data:`PRESCREEN_PIPELINE`) is
  free work for a later full evaluation of the same tree.

Each pass runs under an ``obs`` span named ``model.pass.<name>`` so the
profile report breaks evaluation time down per pass.

Run ``python -m repro.analysis.pipeline`` to re-check the wiring of the
built-in pipelines (CI calls this so mis-ordered passes fail fast).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..tile.validate import validate_tree_local
from .context import AnalysisContext
from .energy import compute_energy

#: Suffix marking violations produced by the resource-bounds pass (the
#: engine uses it to recognise short-circuited results and re-evaluate
#: champions).  Historically the engine-side pre-screen's tag; kept
#: verbatim so cached traces and tests keep matching.
PRESCREEN_TAG = "(prescreen lower bound)"


class PipelineError(Exception):
    """A pipeline's pass wiring is inconsistent."""


class AnalysisPass:
    """One stage of the analysis pipeline.

    Subclasses set ``name``, the artifact names they ``reads`` from and
    ``writes`` to the context, and implement :meth:`run`.  Passes must
    communicate only through declared artifacts (plus the context's
    shared memo accessors); the pipeline's static check relies on the
    declarations being honest.
    """

    name: str = ""
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()

    def run(self, ctx: AnalysisContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"reads={self.reads!r}, writes={self.writes!r})")


class ValidatePass(AnalysisPass):
    """Structural validation (§4); raises on malformed trees.

    :func:`~repro.tile.validate.validate_tree_local` runs the loop-free
    rules once per context and the loop rules and coverage every call;
    invalid trees raise :func:`~repro.tile.validate.validate_tree`'s
    error.
    """

    name = "validate"
    writes = ("validated",)

    def run(self, ctx: AnalysisContext) -> None:
        validate_tree_local(ctx)
        ctx.put("validated", True)


class SlicesPass(AnalysisPass):
    """Populate per-node slice geometry (extents, staged words)."""

    name = "slices"
    writes = ("slices",)

    def run(self, ctx: AnalysisContext) -> None:
        for node in ctx.tree.nodes():
            ctx.node_slices(node)
        ctx.put("slices", True)


class DataMovementPass(AnalysisPass):
    """The §5.1 boundary recursion over the whole tree."""

    name = "datamovement"
    reads = ("slices",)
    writes = ("movement",)

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
      only *adds* child contributions on top.

    Both are conservative: a mapping rejected here would also be
    rejected by the full resource analysis (property-tested in
    ``tests/property/test_prop_engine.py``).  At most one compute and
    one memory violation are reported — one proof is enough to reject.
    """

    name = "resource_bounds"
    reads = ("slices",)
    writes = ("bound_violations", "bound_violation_codes")

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
            for node in ctx.tree.nodes():
                level = ctx.arch.level(node.level)
                if level.capacity_bytes is None:
                    continue
                used = ctx.staged_bytes_lower_bound(node)
                if used > level.capacity_bytes:
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
    reads = ("slices", "movement")
    writes = ("resources", "violations")

    def run(self, ctx: AnalysisContext) -> None:
        from .resources import ResourceAnalysis
        usage, violations = ResourceAnalysis(
            ctx.tree, ctx.arch, ctx.get("movement"), context=ctx).run()
        ctx.put("resources", usage)
        ctx.put("violations", violations)


class LatencyPass(AnalysisPass):
    """The §5.3 bottom-up latency composition + §7.5 slow-down."""

    name = "latency"
    reads = ("movement",)
    writes = ("latency",)

    def run(self, ctx: AnalysisContext) -> None:
        from .latency import LatencyAnalysis
        ctx.put("latency", LatencyAnalysis(
            ctx.tree, ctx.arch, ctx.get("movement"), context=ctx).run())


class EnergyPass(AnalysisPass):
    """Per-component energy from the aggregate traffic (§5.3)."""

    name = "energy"
    reads = ("movement",)
    writes = ("energy",)

    def run(self, ctx: AnalysisContext) -> None:
        movement = ctx.get("movement")
        ctx.put("energy", compute_energy(
            ctx.tree.workload, ctx.arch, movement.traffic))


class Pipeline:
    """An ordered sequence of passes with statically checked wiring."""

    def __init__(self, passes: Sequence[AnalysisPass]):
        self.passes: Tuple[AnalysisPass, ...] = tuple(passes)
        self.check()

    def check(self) -> None:
        """Raise :class:`PipelineError` unless every read is satisfied.

        Each pass may only read artifacts some *earlier* pass writes,
        and pass names must be unique (they key resume bookkeeping).
        """
        produced: set = set()
        seen: set = set()
        for p in self.passes:
            if not p.name:
                raise PipelineError(f"pass {p!r} has no name")
            if p.name in seen:
                raise PipelineError(f"duplicate pass name {p.name!r}")
            seen.add(p.name)
            missing = [r for r in p.reads if r not in produced]
            if missing:
                raise PipelineError(
                    f"pass {p.name!r} reads {missing} before any earlier "
                    f"pass writes them (order: "
                    f"{[q.name for q in self.passes]})")
            produced.update(p.writes)

    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    # ------------------------------------------------------------------
    def run(self, ctx: AnalysisContext, until: Optional[str] = None,
            stop_on_violation: bool = False) -> AnalysisContext:
        """Run the passes over ``ctx`` in order.

        Passes already recorded in ``ctx.completed`` are skipped, so a
        context that ran a prefix pipeline resumes where it stopped.

        Parameters
        ----------
        until:
            Stop (inclusively) after the named pass.  Must name a pass
            of this pipeline.
        stop_on_violation:
            Stop as soon as the ``violations`` artifact is non-empty
            (sets ``ctx.early_exit`` and bumps ``model.early_exit``).
        """
        if until is not None and until not in self.names():
            raise ValueError(f"until={until!r} names no pass in "
                             f"{self.names()}")
        for p in self.passes:
            if p.name in ctx.completed:
                if p.name == until:
                    break
                continue
            with obs.span(f"model.pass.{p.name}", "analysis",
                          tree=ctx.tree.name):
                p.run(ctx)
            ctx.completed.append(p.name)
            if stop_on_violation and ctx.get("violations"):
                ctx.early_exit = True
                obs.count("model.early_exit")
                break
            if p.name == until:
                break
        return ctx


def default_passes() -> Tuple[AnalysisPass, ...]:
    """Fresh instances of the full §5 pipeline, in canonical order."""
    return (ValidatePass(), SlicesPass(), DataMovementPass(),
            ResourcesPass(), LatencyPass(), EnergyPass())


def prescreen_passes() -> Tuple[AnalysisPass, ...]:
    """The cheap feasibility prefix the engine runs before full work."""
    return (ValidatePass(), SlicesPass(), ResourceBoundsPass())


#: The full §5 analysis, in canonical order.
DEFAULT_PIPELINE = Pipeline(default_passes())

#: The cheap feasibility prefix (validate -> slices -> resource bounds).
PRESCREEN_PIPELINE = Pipeline(prescreen_passes())


def check_builtin_pipelines() -> str:
    """Re-check the wiring of the built-in pipelines (CI entry point)."""
    lines = []
    for label, pipe in (("default", DEFAULT_PIPELINE),
                        ("prescreen", PRESCREEN_PIPELINE)):
        pipe.check()
        lines.append(f"{label}: {' -> '.join(pipe.names())} OK")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    print(check_builtin_pipelines())
