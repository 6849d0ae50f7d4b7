"""Unit tests for the evaluation engine: signatures, prescreen, pool."""

import functools
import os
import random

import pytest

from repro import arch, obs
from repro.analysis import TileFlowModel
from repro.engine import core
from repro.engine import (EngineStats, EvaluationEngine, arch_fingerprint,
                          digest, factors_fingerprint,
                          genome_fingerprint, is_prescreened,
                          mapping_signature, prescreen, rejected_result,
                          template_signature, workload_fingerprint)
from repro.mapper import (INFEASIBLE, Genome, TileFlowMapper,
                          build_genome_tree, genome_factor_space,
                          latency_cost)
from repro.obs import events
from repro.obs.report import engine_effectiveness, render_profile
from repro.tile import Binding
from repro.workloads import self_attention
from tree_reference import num_pe_demand


@pytest.fixture
def wl():
    return self_attention(2, 32, 64, expand_softmax=False)


@pytest.fixture
def spec():
    return arch.edge()


class TestSignatures:
    def test_factor_order_washes_out(self, wl, spec):
        base = (workload_fingerprint(wl), arch_fingerprint(spec))
        genome = Genome.fully_fused(wl)
        a = mapping_signature(base, genome, {"m_tile": 4, "b_tile": 2})
        b = mapping_signature(base, genome, {"b_tile": 2, "m_tile": 4})
        assert a == b and digest(a) == digest(b)

    def test_same_workload_rebuilt_same_fingerprint(self, spec):
        a = workload_fingerprint(self_attention(2, 32, 64,
                                                expand_softmax=False))
        b = workload_fingerprint(self_attention(2, 32, 64,
                                                expand_softmax=False))
        assert a == b

    def test_distinct_components_distinct_keys(self, wl, spec):
        base = (workload_fingerprint(wl), arch_fingerprint(spec))
        fused = Genome.fully_fused(wl)
        assert (mapping_signature(base, fused, {"x": 1})
                != mapping_signature(base, Genome.unfused(wl), {"x": 1}))
        assert (mapping_signature(base, fused, {"x": 1})
                != mapping_signature(base, fused, {"x": 2}))
        assert (genome_fingerprint(Genome.fully_fused(wl, Binding.PIPE))
                != genome_fingerprint(Genome.fully_fused(wl, Binding.SEQ)))

    def test_arch_fingerprint_sees_level_changes(self, spec):
        assert (arch_fingerprint(spec)
                != arch_fingerprint(spec.with_level("L1",
                                                    capacity_bytes=1024)))
        assert (arch_fingerprint(spec)
                != arch_fingerprint(spec.with_(pe_count=16)))

    def test_template_keys_disambiguate_templates(self, wl, spec):
        base = (workload_fingerprint(wl), arch_fingerprint(spec))
        assert (template_signature(base, "flat#0", {"x": 1})
                != template_signature(base, "chimera#1", {"x": 1}))

    def test_digest_is_short_stable_hex(self):
        sig = ("a", (1, 2), "b")
        assert digest(sig) == digest(("a", (1, 2), "b"))
        assert len(digest(sig)) == 16
        int(digest(sig), 16)  # parses as hex

    def test_factors_fingerprint_coerces(self):
        assert factors_fingerprint({"a": 2}) == (("a", 2),)


def _tree_for(wl, spec, genome=None, factors=None):
    genome = genome or Genome.fully_fused(wl)
    space = genome_factor_space(wl, genome)
    factors = factors if factors is not None else space.default_point()
    return build_genome_tree(wl, spec, genome, factors)


class TestPrescreen:
    def test_feasible_tree_passes(self, wl, spec):
        assert prescreen(_tree_for(wl, spec), spec) == []

    def test_compute_demand_matches_full_analysis(self, wl, spec):
        tree = _tree_for(wl, spec)
        ctx = TileFlowModel(spec).context(tree)
        assert prescreen(tree, spec, context=ctx) == []
        mac, vec = ctx.num_pe(tree.root)  # the screen's compute demand
        assert (mac, vec) == num_pe_demand(tree.root)
        result = TileFlowModel(spec).evaluate(tree)
        assert mac == result.resources.num_pe
        assert vec == result.resources.num_vector_pe

    def test_rejects_oversubscribed_compute(self, wl):
        tiny = arch.edge().with_(pe_count=1, vector_pe_count=1)
        tree = _tree_for(wl, tiny)
        problems = prescreen(tree, tiny)
        assert problems and problems[0].startswith("compute:")
        # soundness spot-check: the full model agrees
        result = TileFlowModel(tiny).evaluate(tree)
        assert latency_cost(result, True) == INFEASIBLE

    def test_rejects_oversized_memory(self, wl):
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        tree = _tree_for(wl, cramped)
        problems = prescreen(tree, cramped)
        assert any(p.startswith("memory:") for p in problems)
        result = TileFlowModel(cramped).evaluate(tree)
        assert latency_cost(result, True) == INFEASIBLE

    def test_check_memory_false_skips_memory(self, wl):
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        tree = _tree_for(wl, cramped)
        assert prescreen(tree, cramped, check_memory=False) == []

    def test_rejected_result_is_tagged_and_json_safe(self, wl):
        import json
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        tree = _tree_for(wl, cramped)
        result = rejected_result(tree, cramped,
                                 prescreen(tree, cramped))
        assert is_prescreened(result)
        assert latency_cost(result, True) == INFEASIBLE
        json.dumps(result.to_dict(), allow_nan=False)


class TestEvaluationEngine:
    def test_repeated_calls_evaluate_again(self, wl, spec):
        engine = EvaluationEngine(wl, spec)
        genome = Genome.fully_fused(wl)
        factors = genome_factor_space(wl, genome).default_point()
        first = engine.evaluate_genome(genome, factors)
        second = engine.evaluate_genome(genome, factors)
        assert second is not first
        assert second.to_dict() == first.to_dict()
        assert engine.stats.evaluations == 2
        assert engine.stats.cache_hits == engine.stats.cache_misses == 0

    def test_full_replaces_prescreened_placeholder(self, wl):
        cramped = arch.edge().with_level("L1", capacity_bytes=256)
        engine = EvaluationEngine(wl, cramped)
        genome = Genome.fully_fused(wl)
        factors = genome_factor_space(wl, genome).default_point()
        placeholder = engine.evaluate_genome(genome, factors)
        assert is_prescreened(placeholder)
        full = engine.evaluate_genome(genome, factors, full=True)
        assert not is_prescreened(full)
        assert full.violations  # still infeasible, but fully analysed
        assert full.latency_cycles > 0

    def test_tune_population_serial_matches_tune_genome(self, wl, spec):
        genomes = [Genome.fully_fused(wl), Genome.unfused(wl)]
        seeds = [11, 22]
        batch = EvaluationEngine(wl, spec).tune_population(genomes, seeds,
                                                           samples=5)
        singles = [EvaluationEngine(wl, spec).tune_genome(g, s, 5)
                   for g, s in zip(genomes, seeds)]
        assert batch == singles

    def test_tune_population_length_mismatch(self, wl, spec):
        with pytest.raises(ValueError):
            EvaluationEngine(wl, spec).tune_population(
                [Genome.fully_fused(wl)], [1, 2], samples=3)

    def test_killed_worker_falls_back_to_the_serial_outcome(
            self, wl, spec, monkeypatch):
        """A pool worker dying mid-generation leaves no trace: the batch
        is redone serially and results, stats and events equal a serial
        engine's, counted once; later calls stay serial."""
        rng = random.Random(3)
        genomes = [Genome.random(wl, rng) for _ in range(6)]
        seeds = [40 + i for i in range(len(genomes))]
        parent, doomed = os.getpid(), seeds[-1]
        original = core._worker_tune

        # Forked workers resolve the task by name, which wraps keeps.
        @functools.wraps(original)
        def dying(genome, seed, samples, telemetry=None):
            if seed == doomed and os.getpid() != parent:
                os._exit(1)
            return original(genome, seed, samples, telemetry)

        monkeypatch.setattr(core, "_worker_tune", dying)

        def run(workers):
            sink = events.RingSink(capacity=None)
            events.enable(sinks=[sink])
            try:
                with EvaluationEngine(wl, spec, workers=workers) as engine:
                    first = engine.tune_population(genomes, seeds, 4)
                    broken = engine._pool_broken
                    again = engine.tune_population(genomes, seeds, 4)
                    assert engine._pool is None
                    stats = engine.stats.to_dict()
            finally:
                events.disable()
            stream = [(e.seq, e.name, e.payload) for e in sink.records]
            return first, again, broken, stats, stream

        s_first, s_again, _, s_stats, s_stream = run(1)
        p_first, p_again, broken, p_stats, p_stream = run(2)
        assert broken, "the pool never broke"
        assert p_first == s_first and p_again == s_again
        assert p_stats == s_stats
        assert p_stats["parallel_tasks"] == 0
        assert p_stream == s_stream

    def test_workers_count_mapper_evaluations_like_serial(self, wl, spec):
        """Pool workers' ``genome_cost`` calls reach the parent's
        ``mapper.evaluations`` counter exactly once each: the workers'
        own count records come back with each task, and the parent
        derives none from the stats deltas."""
        def counts(workers):
            with obs.capture() as sink:
                TileFlowMapper(wl, spec, seed=0, workers=workers).explore(
                    generations=2, population=4, mcts_samples=4)
            counts = obs.fold_counts(sink.records)
            return {name: counts.get(name, 0) for name in (
                "mapper.evaluations", "engine.evaluations",
                "engine.prescreen_rejects")}

        serial = counts(1)
        assert serial["mapper.evaluations"] > 0
        assert counts(2) == serial

    def test_unknown_objective_rejected(self, wl, spec):
        with pytest.raises(ValueError):
            EvaluationEngine(wl, spec, objective="fastest")

    def test_constructor_floors(self, wl, spec):
        # workers=0 used to be clamped to 1 without a word.
        with pytest.raises(ValueError, match="workers"):
            EvaluationEngine(wl, spec, workers=0)
        with pytest.raises(ValueError, match="subtree_cache_size"):
            EvaluationEngine(wl, spec, subtree_cache_size=-1)
        assert EvaluationEngine(wl, spec,
                                subtree_cache_size=0).subtree_cache is None

    def test_stats_merge(self):
        stats = EngineStats(evaluations=3, prescreen_rejects=1)
        stats.merge({"prescreen_rejects": 1, "evaluations": 2})
        assert stats.prescreen_rejects == 2 and stats.evaluations == 5


def _counted(**counts):
    """Count records for ``name=n`` pairs (dots spelled as ``__``)."""
    sink = events.RingSink(capacity=None)
    bus = events.EventBus([sink])
    for name, n in counts.items():
        bus.count(name.replace("__", "."), n)
    return list(sink.records)


class TestEngineReport:
    def test_no_engine_counters_no_section(self):
        assert engine_effectiveness(None) is None
        assert engine_effectiveness({"mapper.evaluations": 9}) is None
        assert "evaluation engine" not in render_profile(
            _counted(mapper__evaluations=9))

    def test_rates_and_rendering(self):
        records = _counted(engine__prescreen_rejects=4,
                           engine__evaluations=6)
        eng = engine_effectiveness(obs.fold_counts(records))
        assert eng["candidates"] == 10
        assert eng["prescreen_reject_rate"] == pytest.approx(0.4)
        text = render_profile(records)
        assert "== evaluation engine ==" in text
        assert "prescreen rejection rate" in text and "40.0%" in text
        assert "(4 of 10 candidates, 6 full evaluations)" in text
        assert "cache hit rate" not in text

    def test_all_rejected_run_keeps_the_section(self):
        records = _counted(engine__prescreen_rejects=5,
                           engine__evaluations=0)
        eng = engine_effectiveness(obs.fold_counts(records))
        assert eng["prescreen_reject_rate"] == 1.0
        assert eng["full_evaluations"] == 0
        text = render_profile(records)
        assert "prescreen rejection rate" in text and "100.0%" in text
