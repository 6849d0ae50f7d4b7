"""The TileFlow mapper: GA over trees + MCTS over tiling factors (§6).

Two entry points:

* :class:`TileFlowMapper` — full 3D-space exploration: a genetic algorithm
  proposes ordering/binding genomes, MCTS tunes each genome's tiling
  factors, and the TileFlow model scores every complete mapping
  (Fig. 9b/9c).
* :func:`tune_template` — tiling-factor-only tuning of a *named* dataflow
  template (Fig. 9a and the fair-comparison protocol of §7.3, which tunes
  every baseline dataflow's factors with the same mapper).

Both run on the :class:`~repro.engine.EvaluationEngine` hot path: every
complete mapping is canonically signed and memoized, obviously infeasible
points are rejected by a cheap pre-screen before the full analysis, and
``workers > 1`` evaluates a GA generation's population concurrently with
deterministic, worker-count-independent results (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from .. import obs
from ..analysis import EvaluationResult
from ..arch import Architecture
from ..ir import Workload
from ..tile.tree import AnalysisTree
from .cost import INFEASIBLE, Cost
from .encoding import Genome, build_genome_tree
from .factors import FactorSpace
from .genetic import GeneticExplorer
from .mcts import MCTSTuner

TemplateFn = Callable[..., AnalysisTree]


@dataclass
class MapperResult:
    """Outcome of an exploration run."""

    best_tree: AnalysisTree
    best_result: EvaluationResult
    best_cost: Cost
    best_factors: Dict[str, int]
    #: Best-so-far cost per GA generation or per MCTS sample.
    trace: List[Cost] = field(default_factory=list)
    best_genome: Optional[Genome] = None
    #: Per-run metric deltas (``MetricsScope.delta()``) when metrics were
    #: enabled during the search; None otherwise.  Deliberately *not*
    #: part of :meth:`to_dict` — result payloads stay byte-identical
    #: across worker counts and observability settings.
    run_metrics: Optional[Dict[str, Dict[str, object]]] = None

    def cummin_trace(self) -> List[Cost]:
        """Best-so-far (monotone non-increasing) view of the raw trace."""
        out: List[Cost] = []
        best = INFEASIBLE
        for cost in self.trace:
            if cost < best:
                best = cost
            out.append(best)
        return out

    def normalized_trace(self) -> List[float]:
        """Best-so-far trace normalized so the final value is 1 (Fig. 9).

        A best-so-far cummin is applied first, so the final entry is
        the global best by construction (GA traces already are
        monotone; MCTS per-sample traces of ``tune_template`` are not).
        """
        trace = self.cummin_trace()
        finite = [c for c in trace if c != INFEASIBLE]
        if not finite:
            return [0.0 for _ in trace]
        best = finite[-1]
        return [best / c if c != INFEASIBLE and c > 0 else 0.0
                for c in trace]

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (mirrors
        :meth:`EvaluationResult.to_dict`); ``INFEASIBLE`` costs map to
        ``None`` so the output is strict JSON."""
        def cost_or_none(cost: Cost):
            return None if cost == INFEASIBLE else cost

        genome = None
        if self.best_genome is not None:
            genome = self.best_genome.describe(self.best_tree.workload)
        return {
            "tree": self.best_tree.name,
            "best_cost": cost_or_none(self.best_cost),
            "best_factors": dict(self.best_factors),
            "best_genome": genome,
            "trace": [cost_or_none(c) for c in self.trace],
            "best_so_far_trace": [cost_or_none(c)
                                  for c in self.cummin_trace()],
            "normalized_trace": self.normalized_trace(),
            "result": self.best_result.to_dict(),
        }


class TileFlowMapper:
    """Full 3D design-space exploration for one workload/architecture.

    ``workers``, ``cache_size``, and ``prescreen`` configure the
    evaluation engine backing the search; alternatively pass a
    pre-built ``engine`` (it is then shared and *not* shut down by
    :meth:`explore`, so its memo cache persists across searches).
    """

    def __init__(self, workload: Workload, arch: Architecture,
                 respect_memory: bool = True, seed: int = 0,
                 workers: int = 1, cache_size: Optional[int] = None,
                 prescreen: bool = True, incremental: bool = True,
                 batched: bool = True, engine=None):
        self.workload = workload
        self.arch = arch
        self.respect_memory = respect_memory
        self.seed = seed
        self.workers = workers
        self.cache_size = cache_size
        self.prescreen = prescreen
        #: Incremental subtree re-analysis across mapper moves (purely a
        #: performance knob; trajectories are unchanged).
        self.incremental = incremental
        #: Batched cohort pricing inside the engine's MCTS factor tuner
        #: (also purely a performance knob — results are bit-identical).
        self.batched = batched
        self._engine = engine

    # ------------------------------------------------------------------
    def _make_engine(self):
        from ..engine import DEFAULT_CACHE_SIZE, EvaluationEngine
        cache_size = (DEFAULT_CACHE_SIZE if self.cache_size is None
                      else self.cache_size)
        return EvaluationEngine(
            self.workload, self.arch, respect_memory=self.respect_memory,
            workers=self.workers, cache_size=cache_size,
            prescreen=self.prescreen, incremental=self.incremental,
            batched=self.batched)

    def explore(self, generations: int = 8, population: int = 12,
                mcts_samples: int = 30) -> MapperResult:
        """Run the combined GA+MCTS search (§6)."""
        engine = self._engine if self._engine is not None else (
            self._make_engine())
        # Scope the (process-global) metrics registry so run_metrics
        # reports this search alone, not everything since obs.enable().
        scope = obs.metrics_registry().scope()
        try:
            with scope, obs.span("mapper.explore", "mapper",
                                 workload=self.workload.name,
                                 arch=self.arch.name):
                explorer = GeneticExplorer(
                    self.workload, engine.tune_population,
                    population=population, mcts_samples=mcts_samples,
                    seed=self.seed)
                genome, factors, cost = explorer.run(generations)
                tree = build_genome_tree(self.workload, self.arch, genome,
                                         factors)
                result = engine.evaluate_genome(genome, factors, full=True)
        finally:
            if self._engine is None:
                engine.shutdown()
        return MapperResult(
            best_tree=tree, best_result=result, best_cost=cost,
            best_factors=factors,
            trace=[s.best_cost for s in explorer.stats],
            best_genome=genome,
            run_metrics=scope.delta() if obs.metrics.is_enabled() else None)


def tune_template(template: TemplateFn, space: Mapping[str, List[int]],
                  workload: Workload, arch: Architecture,
                  samples: int = 100, respect_memory: bool = True,
                  seed: int = 0, engine=None) -> MapperResult:
    """Tune a named dataflow template's tiling factors with MCTS.

    This is the §7.3 fair-comparison protocol: every dataflow (FLAT,
    Chimera, Fused-Layer, ...) gets its tiling factors chosen by
    TileFlow's own mapper before dataflows are compared.

    Evaluations are memoized by the evaluation engine (pass ``engine``
    to share one — and its cache — across several tuning runs); the
    champion's result is served from that cache instead of being
    re-evaluated at the end.
    """
    if engine is None:
        from ..engine import EvaluationEngine
        engine = EvaluationEngine(workload, arch,
                                  respect_memory=respect_memory)

    def evaluate(point: Dict[str, int]) -> Cost:
        return engine.cost_of(engine.evaluate_template(template, point))

    factor_space = FactorSpace({k: list(v) for k, v in space.items()})
    tuner = MCTSTuner(factor_space, evaluate, seed=seed)
    scope = obs.metrics_registry().scope()
    with scope, obs.span("mapper.tune_template", "mapper",
                         workload=workload.name, arch=arch.name):
        point, cost = tuner.search(samples)
    factors = point or factor_space.default_point()
    tree = template(workload, arch, factors)
    result = engine.evaluate_template(template, factors, full=True)
    return MapperResult(best_tree=tree, best_result=result, best_cost=cost,
                        best_factors=factors, trace=list(tuner.history),
                        run_metrics=(scope.delta()
                                     if obs.metrics.is_enabled() else None))
