"""Property tests for the evaluation engine.

Contracts from docs/PERFORMANCE.md:

* **Prescreen soundness** — the cheap feasibility screen never rejects a
  mapping the full model would accept, over randomized genomes, factor
  points, and shrunk architectures.
* **Search-path transparency** — with the prescreen on or off, the
  engine prices every mapping exactly as the objective of a plain full
  evaluation, for both objectives and both ``respect_memory`` settings.
* **Configuration transparency** — the pre-screen, the subtree cache and
  worker pools are pure performance knobs: for a fixed seed,
  ``MapperResult.to_dict()`` is byte-identical with them on or off and
  with 1 or 2 workers.
* **Event-stream determinism** — ``search``-category events are a pure
  function of the search trajectory: a serial run and a ``--workers 2``
  run emit identical search-event sequences (worker events are recorded
  in-process and replayed to the parent in submission order).
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import arch
from repro.analysis import TileFlowModel
from repro.engine import EvaluationEngine, prescreen
from repro.mapper import (INFEASIBLE, Genome, TileFlowMapper,
                          build_genome_tree, edp_cost, genome_factor_space,
                          latency_cost)
from repro.obs import events
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=False)
OBJECTIVES = {"latency": latency_cost, "edp": edp_cost}

#: Shrunk Edge variants that make both compute and memory rejections
#: reachable (the stock Edge fits almost every random point).
ARCHS = [
    arch.edge(),
    arch.edge().with_(pe_count=64, vector_pe_count=16),
    arch.edge().with_level("L1", capacity_bytes=16 * 1024),
    arch.edge().with_(pe_count=256).with_level("L1",
                                               capacity_bytes=4 * 1024),
]


@given(st.integers(0, 2 ** 31), st.integers(0, len(ARCHS) - 1))
@settings(max_examples=25, deadline=None)
def test_prescreen_never_rejects_a_feasible_mapping(seed, arch_index):
    """prescreen(tree) != [] implies the full model finds violations."""
    spec = ARCHS[arch_index]
    rng = random.Random(seed)
    genome = Genome.random(WL, rng)
    factors = genome_factor_space(WL, genome).random_point(rng)
    tree = build_genome_tree(WL, spec, genome, factors)
    if prescreen(tree, spec):
        result = TileFlowModel(spec).evaluate(tree)
        assert result.violations
        assert latency_cost(result, True) == INFEASIBLE


@pytest.mark.parametrize("respect_memory", [True, False])
@pytest.mark.parametrize("objective", ["latency", "edp"])
@given(seed=st.integers(0, 2 ** 31),
       arch_index=st.integers(0, len(ARCHS) - 1))
@settings(max_examples=25, deadline=None)
def test_prescreen_is_invisible_to_the_search(objective, respect_memory,
                                              seed, arch_index):
    """Engine cost is identical with the prescreen on or off, and equals
    the objective of a plain full evaluation: the pre-screen never
    changes a cost."""
    spec = ARCHS[arch_index]
    rng = random.Random(seed)
    genome = Genome.random(WL, rng)
    factors = genome_factor_space(WL, genome).random_point(rng)
    full = TileFlowModel(spec).evaluate(
        build_genome_tree(WL, spec, genome, factors))
    expected = OBJECTIVES[objective](full, respect_memory)
    for screen in (True, False):
        engine = EvaluationEngine(WL, spec, prescreen=screen,
                                  objective=objective,
                                  respect_memory=respect_memory)
        assert engine.cost_of(engine.evaluate_genome(genome,
                                                     factors)) == expected


def _explore(seed, subtree_cache_size=None, **mapper_kwargs):
    """A small search's result JSON.  ``subtree_cache_size`` runs it on
    an engine built with that bound (``0``: no subtree cache) and the
    same ``mapper_kwargs``."""
    spec = arch.edge()
    engine = (None if subtree_cache_size is None else EvaluationEngine(
        WL, spec, subtree_cache_size=subtree_cache_size, **mapper_kwargs))
    mapper = TileFlowMapper(WL, spec, seed=seed, engine=engine,
                            **mapper_kwargs)
    try:
        result = mapper.explore(generations=2, population=4, mcts_samples=4)
    finally:
        if engine is not None:
            engine.shutdown()
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 13])
def test_cache_does_not_change_search_results(seed):
    """The search equals its reference path: no subtree cache, no
    pre-screen."""
    assert _explore(seed) == _explore(seed, subtree_cache_size=0,
                                      prescreen=False)


@pytest.mark.parametrize("seed", [0, 13])
def test_workers_do_not_change_search_results(seed):
    assert _explore(seed, workers=1) == _explore(seed, workers=2)


@pytest.mark.parametrize("seed", [0, 13])
def test_incremental_does_not_change_search_results(seed):
    """The subtree cache is a pure perf knob, serial and parallel."""
    assert _explore(seed) == _explore(seed, subtree_cache_size=0)
    assert (_explore(seed, workers=2)
            == _explore(seed, workers=2, subtree_cache_size=0))


def _explore_with_events(seed, **mapper_kwargs):
    """(search-event sequence, cache-event kinds, result JSON) of a run."""
    sink = events.RingSink(capacity=None)
    events.enable(sinks=[sink])
    try:
        payload = _explore(seed, **mapper_kwargs)
    finally:
        events.disable()
    search = [(e.name, json.dumps(e.payload, sort_keys=True))
              for e in sink.records if e.cat == "search"]
    cache_kinds = {e.name for e in sink.records if e.cat == "cache"}
    return search, cache_kinds, payload


@pytest.mark.parametrize("seed", [0, 13])
def test_worker_events_aggregate_deterministically(seed):
    """Serial and --workers 2 runs emit the same search events.

    The full event *multiset* cannot be compared across worker counts —
    each worker owns a private subtree cache, so ``cache``-category
    effectiveness legitimately differs — but ``search`` events (GA
    generations, MCTS samples, pre-screen rejections) must be an
    identical *sequence*, and the champion byte-identical, because
    worker-recorded events are replayed to the parent in submission
    order.
    """
    serial_events, serial_cache, serial_result = _explore_with_events(
        seed, workers=1)
    parallel_events, parallel_cache, parallel_result = _explore_with_events(
        seed, workers=2)
    assert serial_events == parallel_events
    assert serial_result == parallel_result
    # Both modes still surface cache telemetry (content may differ).
    assert "engine.subtree" in serial_cache
    assert "engine.subtree" in parallel_cache
    # The search stream is non-trivial: every generation reported.
    gens = [kind for kind, _ in serial_events if kind == "ga.generation"]
    assert len(gens) == 2


@given(st.integers(0, 2 ** 31), st.data())
@settings(max_examples=25, deadline=None)
def test_single_factor_move_is_byte_identical_incrementally(seed, data):
    """A one-factor mapper move re-analysed incrementally == from scratch.

    Evaluate point A to warm the engine's subtree cache, then move one
    factor to get point B; the incremental evaluation of B (which serves
    every subtree configuration shared with A from the cache) must be
    byte-identical to a cache-free evaluation of B.
    """
    spec = arch.edge()
    rng = random.Random(seed)
    genome = Genome.random(WL, rng)
    space = genome_factor_space(WL, genome)
    point_a = space.random_point(rng)
    name = data.draw(st.sampled_from(space.names), label="factor")
    value = data.draw(st.sampled_from(space.choices[name]), label="value")
    point_b = dict(point_a)
    point_b[name] = value

    engine = EvaluationEngine(WL, spec)
    engine.evaluate_genome(genome, point_a, full=True)
    incremental = engine.evaluate_genome(genome, point_b, full=True)

    scratch = TileFlowModel(spec).evaluate(
        build_genome_tree(WL, spec, genome, point_b))
    assert incremental.to_dict() == scratch.to_dict()
