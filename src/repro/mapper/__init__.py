"""The TileFlow mapper: GA over orderings/bindings, MCTS over tilings."""

from .cost import INFEASIBLE, edp_cost, latency_cost
from .encoding import (EDGE_BINDINGS, Genome, GenomeLoops, build_genome_tree,
                       genome_factor_space, genome_loops,
                       shared_tileable_dims)
from .factors import FactorSpace, count_factorizations, factorizations
from .genetic import GenerationStats, GeneticExplorer
from .mapper import MapperResult, TileFlowMapper, tune_template
from .mcts import MCTSTuner
from .random_search import RandomSearch

__all__ = [
    "TileFlowMapper", "MapperResult", "tune_template",
    "Genome", "EDGE_BINDINGS", "build_genome_tree", "genome_factor_space",
    "genome_loops", "GenomeLoops",     "shared_tileable_dims",
    "GeneticExplorer", "GenerationStats",
    "MCTSTuner", "RandomSearch",
    "FactorSpace", "factorizations", "count_factorizations",
    "latency_cost", "edp_cost", "INFEASIBLE",
]
