"""Genetic exploration of the ordering/binding plane (§6).

The GA maintains a population of :class:`~repro.mapper.encoding.Genome`
candidates (compute ordering + resource binding).  Each generation, every
*new* genome's tiling factors are tuned by a small MCTS run (§6, Fig. 7c),
the resulting cost is the genome's fitness, the top-K genomes survive, and
offspring are produced by single-point crossover plus mutation.

Fitness is carried forward: a genome tuned in an earlier generation
(surviving elites, re-created offspring) keeps its ``(cost, factors)``
instead of being re-tuned from scratch, so the per-generation best cost
never regresses.

Tuning goes through a batch ``tuner`` callable, normally
:meth:`repro.engine.EvaluationEngine.tune_population`, which evaluates a
whole generation through the pre-screened, possibly parallel evaluation
engine.  Per-genome MCTS seeds are drawn up front from the generation
RNG, so the outcome is deterministic regardless of how the batch is
executed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir import Workload
from ..obs import events
from .cost import INFEASIBLE, Cost
from .encoding import Genome

#: Batch fitness: (genomes, per-genome MCTS seeds, samples) -> [(cost,
#: factors)] in input order.
BatchTuner = Callable[[Sequence[Genome], Sequence[int], int],
                      List[Tuple[Cost, Dict[str, int]]]]


@dataclass
class GenerationStats:
    """Best/mean fitness of one GA generation (Fig. 9b/9c traces)."""

    generation: int
    best_cost: Cost
    mean_cost: Cost
    best_genome: Genome
    best_factors: Dict[str, int] = field(default_factory=dict)


class GeneticExplorer:
    """GA over genomes with per-candidate MCTS factor tuning."""

    def __init__(self, workload: Workload, tuner: BatchTuner,
                 population: int = 12, survivors: int = 4,
                 mcts_samples: int = 40, mutation_rate: float = 0.25,
                 seed: int = 0):
        if survivors < 1 or survivors > population:
            raise ValueError("survivors must be in [1, population]")
        self.workload = workload
        self.tuner = tuner
        self.population_size = population
        self.survivors = survivors
        self.mcts_samples = mcts_samples
        self.mutation_rate = mutation_rate
        self.rng = random.Random(seed)
        self.stats: List[GenerationStats] = []
        self.best: Optional[Tuple[Cost, Genome, Dict[str, int]]] = None

    # ------------------------------------------------------------------
    def _initial_population(self) -> List[Genome]:
        seeds = [Genome.unfused(self.workload),
                 Genome.fully_fused(self.workload)]
        while len(seeds) < self.population_size:
            seeds.append(Genome.random(self.workload, self.rng))
        return seeds[:self.population_size]

    # ------------------------------------------------------------------
    def run(self, generations: int) -> Tuple[Genome, Dict[str, int], Cost]:
        """Evolve for ``generations``; returns the champion found."""
        population = self._initial_population()
        scores: Dict[Genome, Tuple[Cost, Dict[str, int]]] = {}
        for gen in range(generations):
            with obs.span("ga.generation", "mapper", generation=gen):
                pending: List[Genome] = []
                seen = set()
                for genome in population:
                    if genome not in scores and genome not in seen:
                        pending.append(genome)
                        seen.add(genome)
                reused = len(population) - len(pending)
                seeds = [self.rng.randrange(1 << 30) for _ in pending]
                outcomes = self.tuner(pending, seeds, self.mcts_samples)
                for genome, outcome in zip(pending, outcomes):
                    scores[genome] = outcome
                scored = [(scores[g][0], g, scores[g][1])
                          for g in population]
                for cost, genome, factors in scored:
                    if self.best is None or cost < self.best[0]:
                        self.best = (cost, genome, factors)
                scored.sort(key=lambda item: item[0])
                finite = [c for c, _, _ in scored if c != INFEASIBLE]
                mean = (sum(finite) / len(finite)) if finite else INFEASIBLE
                self.stats.append(GenerationStats(
                    generation=gen, best_cost=scored[0][0], mean_cost=mean,
                    best_genome=scored[0][1], best_factors=scored[0][2]))
                if events.is_enabled():
                    events.emit(
                        "ga.generation", generation=gen,
                        best_cost=events.jsonable_cost(scored[0][0]),
                        mean_cost=events.jsonable_cost(mean),
                        evaluated=len(pending), reused=reused)
                    events.emit(
                        "search.progress", phase="ga", step=gen + 1,
                        total=generations,
                        best_cost=events.jsonable_cost(self.best[0]))
                parents = [g for _, g, _ in scored[:self.survivors]]
                population = list(parents)
                while len(population) < self.population_size:
                    mother = self.rng.choice(parents)
                    father = self.rng.choice(parents)
                    child = mother.crossover(father, self.rng)
                    population.append(child.mutate(self.rng,
                                                   self.mutation_rate))
        assert self.best is not None
        cost, genome, factors = self.best
        return genome, factors, cost
