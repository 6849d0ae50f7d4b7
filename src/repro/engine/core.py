"""The evaluation engine: pre-screened, incremental, parallel evaluation.

:class:`EvaluationEngine` sits between the mapper's search loops and
:class:`~repro.analysis.model.TileFlowModel`.  Every complete mapping
takes one pipeline — the cheap feasibility pre-screen
(:mod:`repro.engine.prescreen`) unless a full result is required, then
the whole analysis — over one
:class:`~repro.analysis.AnalysisContext`, which compiles its tree's
slice rows, walk recipes, fusion rules and plan nodes on first use and
substitutes the tree's loops into them.  Contexts differ only in how
long they live and whether a shared memo sits on top:

* :meth:`EvaluationEngine.tune_genome` prices every MCTS point on one
  :class:`GenomePlan`: one tree and one context, re-armed loops-only
  per point, so the compiled tables serve the whole tune.  It touches
  no shared store.
* Every other evaluation (template tunes, pre-built trees, the
  champion's ``full=True`` evaluation) builds a tree and a fresh
  context, with the engine's persistent
  :class:`~repro.engine.cache.SubtreeArtifactCache` attached: slice
  geometry and walk volumes are looked up there, under structural
  subtree fingerprints and projected walks, before they are computed.

Results are byte-identical either way (property-tested).  Repeated
points need no engine-level memo: the MCTS tuner already dedups the
points of each tune.  Every tune prices its points on its plan,
whatever its sample budget: the engine never loads
:mod:`repro.analysis.batched` or NumPy.

``workers > 1`` adds process-level parallelism for GA populations: each
genome's MCTS factor tune is an independent task (the per-genome seeds
are drawn up front by the caller from the generation RNG), tasks are
dispatched to a persistent :class:`~concurrent.futures.ProcessPoolExecutor`,
and results are collected in submission order — so results are
deterministic and byte-identical regardless of worker count.  Platforms
without usable multiprocessing (or ``workers=1``) fall back to the
serial path transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import obs
from ..analysis import AnalysisContext, EvaluationResult, TileFlowModel
from ..arch import Architecture
from ..ir import Workload
from ..mapper.cost import Cost, edp_cost, latency_cost
from ..mapper.encoding import (Genome, GenomeLoops, build_genome_tree,
                               genome_factor_space)
from ..mapper.mcts import MCTSTuner
from ..obs import events
from ..tile.tree import AnalysisTree
from .cache import DEFAULT_SUBTREE_CACHE_SIZE, SubtreeArtifactCache
from .prescreen import prescreen, rejected_result
from .signature import (Signature, arch_fingerprint, cache_namespace,
                        digest, mapping_signature, template_signature,
                        workload_fingerprint)

TemplateFn = Callable[..., AnalysisTree]

_OBJECTIVES: Dict[str, Callable[[EvaluationResult, bool], Cost]] = {
    "latency": latency_cost,
    "edp": edp_cost,
}


@dataclass
class EngineStats:
    """Aggregate engine effectiveness counters (serial + worker merged)."""

    #: Always 0: there is no whole-mapping memo any more, but
    #: perfbench still reads these keys (ROADMAP: dropped with the next
    #: benchmark change).
    cache_hits: int = 0
    cache_misses: int = 0
    evaluations: int = 0
    prescreen_rejects: int = 0
    parallel_tasks: int = 0
    #: Always 0: there is no partial evaluation any more, but perfbench
    #: still reads this key (ROADMAP: dropped with the next benchmark
    #: change).
    early_exits: int = 0
    #: Subtree artifact cache lookups served from / missing in the
    #: persistent cross-evaluation store (incremental analysis layer).
    subtree_hits: int = 0
    subtree_misses: int = 0
    #: Entries dropped from the subtree artifact cache to honour its
    #: bound (per-kind attribution lives on the cache itself).
    subtree_evictions: int = 0
    #: Always 0: there is no shared L2 tier any more, but perfbench
    #: still reads this key (ROADMAP: dropped with the next benchmark
    #: change).
    subtree_l2_hits: int = 0
    #: Always 0: there is no disk tier any more, but perfbench still
    #: reads this key (ROADMAP: dropped with the next benchmark change).
    subtree_l3_hits: int = 0
    #: Always 0 on every engine path, since no tune sweeps cohorts, but
    #: perfbench still reads these keys (ROADMAP: dropped with the next
    #: benchmark change).  A
    #: :class:`~repro.analysis.batched.sweep.CohortEvaluator` built
    #: directly on an engine still counts its sweeps here.
    batched_evaluations: int = 0
    batch_fill: int = 0
    batch_fallbacks: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, delta: Mapping[str, int]) -> None:
        for name, n in delta.items():
            setattr(self, name, getattr(self, name) + int(n))


class EvaluationEngine:
    """Evaluates mappings for one (workload, architecture) pair.

    Every evaluation runs the whole pipeline; only the pre-screen may
    stand in for it, with a placeholder result for a candidate it
    proves infeasible.  Champion lookups (``full=True``) bypass the
    pre-screen.  Costs are identical either way (property-tested).

    Parameters
    ----------
    workload, arch:
        The search context; both are folded into every cache signature.
    respect_memory:
        Passed to the cost objective; also disables the memory half of
        the pre-screen (capacity violations are not rejections then).
    workers:
        Process-pool width for :meth:`tune_population`.  ``1`` (default)
        keeps everything in-process.
    prescreen:
        Run the cheap feasibility screen before full evaluations.
    model_eviction, model_rmw:
        Forwarded to :class:`TileFlowModel` (ablation switches).
    objective:
        ``"latency"`` or ``"edp"`` — named so worker processes can
        reconstruct the engine from picklable configuration.
    subtree_cache_size:
        Entry bound of the persistent :class:`SubtreeArtifactCache`
        kept across evaluations of built trees (genome tunes never use
        it);
        ``0`` runs without one.  Results are byte-identical either way;
        purely a performance knob.
    subtree_cache:
        An existing :class:`SubtreeArtifactCache` to use instead of a
        private one — the evaluation service shares one store across
        every engine it owns so artifacts discovered by one job warm
        every later job.  Entries are namespaced by workload/arch/flag
        fingerprints, so sharing never mixes artifact families; this
        engine's hit/miss attribution is scoped to its own namespace.
    """

    def __init__(self, workload: Workload, arch: Architecture, *,
                 respect_memory: bool = True, workers: int = 1,
                 prescreen: bool = True,
                 model_eviction: bool = True,
                 model_rmw: bool = True, objective: str = "latency",
                 subtree_cache_size: int = DEFAULT_SUBTREE_CACHE_SIZE,
                 subtree_cache: Optional[SubtreeArtifactCache] = None):
        if objective not in _OBJECTIVES:
            raise ValueError(f"unknown objective {objective!r}; choose from "
                             f"{sorted(_OBJECTIVES)}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if subtree_cache_size < 0:
            raise ValueError(f"subtree_cache_size must be >= 0, got "
                             f"{subtree_cache_size}")
        self.workload = workload
        self.arch = arch
        self.respect_memory = respect_memory
        self.workers = int(workers)
        self.prescreen_enabled = prescreen
        self.objective = objective
        self.model = TileFlowModel(arch, model_eviction=model_eviction,
                                   model_rmw=model_rmw)
        self.stats = EngineStats()
        self._subtree_cache_size = subtree_cache_size
        #: Persistent cross-evaluation subtree artifact store (None with
        #: ``subtree_cache_size=0``).  May be shared across engines (the
        #: service passes one store to every engine it builds).
        if subtree_cache is not None:
            self.subtree_cache: Optional[SubtreeArtifactCache] = subtree_cache
        else:
            self.subtree_cache = (SubtreeArtifactCache(subtree_cache_size)
                                  if subtree_cache_size > 0 else None)
        self._base = (workload_fingerprint(workload), arch_fingerprint(arch),
                      model_eviction, model_rmw)
        #: Hex digests of the workload, arch and namespace (workload +
        #: arch + model flags) fingerprints, taken once: every ledger
        #: manifest of this engine's runs carries them.
        self.workload_digest = digest(self._base[0])
        self.arch_digest = digest(self._base[1])
        self.namespace_digest = digest(self._base)
        #: This engine's slice of a (possibly shared) subtree cache —
        #: the same namespace its analysis contexts bind stores under.
        self._subtree_ns = cache_namespace(workload, arch, model_eviction,
                                           model_rmw)
        self._cost_fn = _OBJECTIVES[objective]
        self._templates: Dict[int, Tuple[str, TemplateFn]] = {}
        self._pool = None
        self._pool_broken = False

    # -- configuration ---------------------------------------------------
    def config(self) -> Dict[str, object]:
        """Picklable kwargs reproducing this engine (minus workers)."""
        return {
            "respect_memory": self.respect_memory,
            "prescreen": self.prescreen_enabled,
            "model_eviction": self.model.model_eviction,
            "model_rmw": self.model.model_rmw,
            "objective": self.objective,
            "subtree_cache_size": self._subtree_cache_size,
        }

    def cost_of(self, result: EvaluationResult) -> Cost:
        """The search objective of an evaluated mapping."""
        return self._cost_fn(result, self.respect_memory)

    # -- bookkeeping -----------------------------------------------------
    def _bump(self, name: str, n: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + n)
        obs.count(f"engine.{name}", n)

    # -- evaluation --------------------------------------------------------
    def _evaluate(self, ctx: AnalysisContext,
                  signature: Callable[[], object],
                  full: bool = False) -> EvaluationResult:
        """The one evaluation pipeline: pre-screen, full analysis.

        One context serves the screen and the evaluation: the screen's
        validation and slice geometry are reused when the full run
        resumes after it.  ``signature`` produces the mapping's
        canonical signature; it is only called when the event bus is
        live, to digest a pre-screen rejection.
        """
        tree = ctx.tree
        subtree = ctx.artifact_cache
        ns = self._subtree_ns
        if subtree is not None:
            before = subtree.counts(ns)
            before_ev = subtree.eviction_count
        # Event payloads are only built when the bus is live — the
        # disabled path pays one module read per evaluation.
        emitting = events.is_enabled()
        before_kinds = (subtree.counts_by_kind(ns)
                        if emitting and subtree is not None else None)
        violations = (prescreen(tree, self.arch,
                                check_memory=self.respect_memory,
                                context=ctx)
                      if self.prescreen_enabled and not full else None)
        if violations:
            self._bump("prescreen_rejects")
            if emitting:
                events.emit(
                    "prescreen.reject", mapping=digest(signature()),
                    codes=list(ctx.get("bound_violation_codes") or ()))
            result = rejected_result(tree, self.arch, violations)
        else:
            self._bump("evaluations")
            result = self.model.evaluate(tree, context=ctx)
        if subtree is not None:
            hits, misses = subtree.counts(ns)
            if hits > before[0]:
                self._bump("subtree_hits", hits - before[0])
            if misses > before[1]:
                self._bump("subtree_misses", misses - before[1])
            if subtree.eviction_count > before_ev:
                self._bump("subtree_evictions",
                           subtree.eviction_count - before_ev)
            if before_kinds is not None:
                after_kinds = subtree.counts_by_kind(ns)
                for kind in sorted(after_kinds):
                    h, m, e = after_kinds[kind]
                    bh, bm, be = before_kinds.get(kind, (0, 0, 0))
                    if h > bh or m > bm or e > be:
                        events.emit("engine.subtree", kind=kind,
                                    hits=h - bh, misses=m - bm,
                                    evictions=e - be)
        return result

    def _tree_context(self, tree: AnalysisTree) -> AnalysisContext:
        """A fresh context for ``tree``, over the persistent subtree
        cache."""
        return self.model.context(tree, artifact_cache=self.subtree_cache)

    def evaluate_genome(self, genome: Genome,
                        factors: Mapping[str, int],
                        full: bool = False,
                        plan: Optional["GenomePlan"] = None
                        ) -> EvaluationResult:
        """Evaluation of one genome mapping.

        ``full=True`` guarantees a completely analysed result (champion
        reporting): the pre-screen is bypassed.  ``plan`` is the tune's
        :class:`GenomePlan` for ``genome``; without one the point's tree
        is built and priced on a fresh context.
        """
        if plan is None:
            ctx = self._tree_context(build_genome_tree(
                self.workload, self.arch, genome, factors))
        else:
            ctx = plan.rearm(factors)
        return self._evaluate(
            ctx, lambda: mapping_signature(self._base, genome, factors),
            full=full)

    def mapping_digest(self, genome: Genome,
                       factors: Mapping[str, int]) -> str:
        """Stable hex digest of one genome mapping's canonical signature
        — the run ledger's champion identity."""
        return digest(mapping_signature(self._base, genome, factors))

    def genome_cost(self, genome: Genome, factors: Mapping[str, int],
                    plan: Optional["GenomePlan"] = None) -> Cost:
        cost = self.cost_of(self.evaluate_genome(genome, factors,
                                                 plan=plan))
        obs.count("mapper.evaluations")
        if cost == float("inf"):
            obs.count("mapper.infeasible")
        return cost

    # -- templates -------------------------------------------------------
    def _template_token(self, template: TemplateFn) -> str:
        entry = self._templates.get(id(template))
        if entry is None:
            token = (f"{getattr(template, '__qualname__', 'template')}"
                     f"#{len(self._templates)}")
            # Hold a strong reference so id() stays unambiguous.
            self._templates[id(template)] = (token, template)
            return token
        return entry[0]

    def evaluate_template(self, template: TemplateFn,
                          factors: Mapping[str, int],
                          full: bool = False) -> EvaluationResult:
        """Evaluation of a named-dataflow template point."""
        token = self._template_token(template)
        tree = template(self.workload, self.arch, dict(factors))
        return self._evaluate(
            self._tree_context(tree),
            lambda: template_signature(self._base, token, factors),
            full=full)

    # -- pre-built trees -------------------------------------------------
    def evaluate_tree(self, tree: AnalysisTree,
                      full: bool = True) -> EvaluationResult:
        """One evaluation of a pre-built tree through the incremental
        layer.

        This is the evaluation service's ``evaluate``/``sweep`` job
        path, run once per (engine, dataflow): the service keeps the
        result next to the tree and later jobs reuse it without calling
        here.  Subtree artifacts flow through the shared
        :class:`SubtreeArtifactCache`, which serves a first evaluation
        whatever another evaluation left behind.
        """
        return self._evaluate(self._tree_context(tree),
                              lambda: self._tree_signature(tree),
                              full=full)

    def _tree_signature(self, tree: AnalysisTree) -> Signature:
        return (self._base, "tree", tree.name)

    def tree_digest(self, tree: AnalysisTree) -> str:
        """Stable hex digest of a pre-built tree's identity (the
        signature :meth:`evaluate_tree` memoizes under) — the run
        ledger's champion identity of an evaluate run."""
        return digest(self._tree_signature(tree))

    # -- per-genome MCTS tuning ------------------------------------------
    def tune_genome(self, genome: Genome, seed: int,
                    samples: int) -> Tuple[Cost, Dict[str, int]]:
        """One MCTS factor tune of one genome (the GA fitness), every
        point priced on one :class:`GenomePlan`."""
        space = genome_factor_space(self.workload, genome)
        plan = GenomePlan(self, genome)
        tuner = MCTSTuner(space,
                          lambda point: self.genome_cost(genome, point,
                                                         plan=plan),
                          seed=seed)
        point, cost = tuner.search(samples)
        return cost, (point or {})

    def tune_population(self, genomes: Sequence[Genome],
                        seeds: Sequence[int],
                        samples: int) -> List[Tuple[Cost, Dict[str, int]]]:
        """Fitness of a GA generation, parallel when ``workers > 1``.

        Results are returned in input order; per-genome outcomes depend
        only on (genome, seed, samples), so serial and parallel runs are
        byte-identical.
        """
        if len(genomes) != len(seeds):
            raise ValueError("genomes and seeds must have equal length")
        pool = self._ensure_pool() if self.workers > 1 else None
        if pool is None:
            return [self.tune_genome(g, s, samples)
                    for g, s in zip(genomes, seeds)]
        telemetry = ("profile" if events.is_profiling()
                     else "events" if events.is_enabled() else None)
        try:
            futures = [pool.submit(_worker_tune, genome, seed, samples,
                                   telemetry)
                       for genome, seed in zip(genomes, seeds)]
            # The whole batch returns before any of it is applied, so a
            # batch that falls back below is counted exactly once.
            returned = [future.result() for future in futures]
        except Exception:
            # Broken pool (killed worker, unpicklable payload, ...):
            # disable parallelism and redo the whole batch serially —
            # the outcome is identical, only slower.
            self._teardown_pool(broken=True)
            return [self.tune_genome(g, s, samples)
                    for g, s in zip(genomes, seeds)]
        out: List[Tuple[Cost, Dict[str, int]]] = []
        for cost, factors, delta, records in returned:
            # Replaying in submission order makes the parent's stream
            # deterministic for any worker count.
            events.replay(records)
            self.stats.merge(delta)
            self._bump("parallel_tasks")
            out.append((cost, factors))
        return out

    # -- process pool ----------------------------------------------------
    def _ensure_pool(self):
        if self._pool is not None or self._pool_broken:
            return self._pool
        try:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context,
                initializer=_worker_init,
                initargs=(self.workload, self.arch, self.config()))
            obs.gauge("engine.workers", self.workers)
        except Exception:  # pragma: no cover - platform-dependent
            self._pool_broken = True
            self._pool = None
        return self._pool

    def _teardown_pool(self, broken: bool = False) -> None:
        pool, self._pool = self._pool, None
        self._pool_broken = self._pool_broken or broken
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Release the worker pool.

        Idempotent; the engine stays usable (a later ``tune_population``
        simply stands the pool back up).
        """
        self._teardown_pool()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class GenomePlan:
    """One genome's tree and analysis context, re-armed per MCTS point.

    The tree is built once; a point takes every node's
    :class:`~repro.tile.loops.LoopSplit` from the genome's
    :class:`~repro.mapper.encoding.GenomeLoops` (the skeleton
    :func:`build_genome_tree` uses too), which interns their loops, and
    only the nodes whose loops changed are assigned.  The context is then
    re-armed loops-only with those splits, keeping every structure-only
    fact for the whole tune: its slice rows, walk recipes, fusion rules
    and plan nodes are compiled once per plan, so a point only
    substitutes the nodes' current loops into them, and recomputes the
    slices of the changed nodes and their ancestors only.  They die
    with the plan.
    """

    __slots__ = ("skeleton", "tree", "context")

    def __init__(self, engine: EvaluationEngine, genome: Genome):
        self.skeleton = GenomeLoops(engine.workload, engine.arch, genome)
        self.tree = build_genome_tree(engine.workload, engine.arch,
                                      genome, {}, self.skeleton)
        self.context = AnalysisContext(
            self.tree, engine.arch,
            model_eviction=engine.model.model_eviction,
            model_rmw=engine.model.model_rmw)

    def rearm(self, factors: Mapping[str, int]) -> AnalysisContext:
        """The context, re-armed for ``factors``' loops."""
        splits = self.skeleton.splits(factors)
        changed = []
        for i, (node, split) in enumerate(zip(self.tree.nodes(), splits)):
            if node.loops != split.loops:  # interned: equal loops are `is`
                node.split = split
                changed.append(i)
        self.context.rearm(splits, changed)
        return self.context


# ---------------------------------------------------------------------------
# Worker-process side.  Each worker holds one serial engine, built once by
# the pool initializer; its private cache stays warm across the tasks (and
# GA generations) the worker serves.  Every task ships back its counter
# deltas and one list of telemetry records for the parent to merge.

_WORKER_ENGINE: Optional[EvaluationEngine] = None


def _worker_init(workload: Workload, arch: Architecture,
                 config: Dict[str, object]) -> None:
    global _WORKER_ENGINE
    # A forked worker inherits the buses installed in the forking
    # thread; its records go only to the per-task bus below.
    events.disable()
    events.disable(local=True)
    _WORKER_ENGINE = EvaluationEngine(workload, arch, workers=1, **config)


def _worker_tune(genome: Genome, seed: int, samples: int,
                 telemetry: Optional[str] = None):
    """One pooled genome tune.

    ``telemetry`` is what the parent records: ``None`` (nothing),
    ``"events"``, or ``"profile"`` (events, spans and counts).  The
    task's records come back as one list, in the order they were made.
    """
    engine = _WORKER_ENGINE
    assert engine is not None, "worker pool initializer did not run"
    sink: Optional[events.RingSink] = None
    if telemetry is not None:
        sink = events.RingSink(capacity=None)
        events.enable(sinks=[sink], profiling=telemetry == "profile")
    before = engine.stats.to_dict()
    try:
        with obs.span("engine.task", "engine"):
            cost, factors = engine.tune_genome(genome, seed, samples)
    finally:
        if sink is not None:
            events.disable()
    after = engine.stats.to_dict()
    delta = {name: after[name] - before[name] for name in after}
    return cost, factors, delta, list(sink.records) if sink is not None else []
