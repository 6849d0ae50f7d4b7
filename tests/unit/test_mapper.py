"""Unit tests for the mapper: factor spaces, MCTS, genomes, GA."""

import random

import pytest

from repro import arch
from repro.mapper import (EDGE_BINDINGS, FactorSpace, Genome, GeneticExplorer,
                          INFEASIBLE, MCTSTuner, RandomSearch,
                          build_genome_tree, count_factorizations,
                          factorizations, genome_factor_space, latency_cost,
                          shared_tileable_dims)
from repro.tile import Binding, check_tree
from repro.workloads import self_attention, conv_chain


class TestFactorizations:
    def test_two_parts(self):
        assert set(factorizations(6, 2)) == {(1, 6), (2, 3), (3, 2),
                                             (6, 1)}

    def test_one_part(self):
        assert list(factorizations(8, 1)) == [(8,)]

    def test_products_correct(self):
        for f in factorizations(24, 3):
            assert f[0] * f[1] * f[2] == 24

    def test_count(self):
        assert count_factorizations(4, 2) == 3  # 1*4, 2*2, 4*1

    def test_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            list(factorizations(4, 0))


class TestFactorSpace:
    def test_size(self):
        space = FactorSpace({"a": [1, 2], "b": [1, 2, 3]})
        assert space.size == 6

    def test_point_at(self):
        space = FactorSpace({"a": [1, 2], "b": [4, 8]})
        assert space.point_at([1, 0]) == {"a": 2, "b": 4}

    def test_default_point(self):
        space = FactorSpace({"a": [1, 2, 3]})
        assert space.default_point() == {"a": 2}

    def test_neighbors(self):
        space = FactorSpace({"a": [1, 2, 3]})
        ns = list(space.neighbors({"a": 2}))
        assert {n["a"] for n in ns} == {1, 3}

    def test_empty_choice_rejected(self):
        with pytest.raises(ValueError):
            FactorSpace({"a": []})


class TestMCTS:
    def test_finds_optimum_in_small_space(self):
        space = FactorSpace({"x": [1, 2, 4, 8], "y": [1, 2, 4, 8]})
        target = {"x": 4, "y": 2}

        def cost(p):
            return abs(p["x"] - target["x"]) + abs(p["y"] - target["y"]) + 1

        tuner = MCTSTuner(space, cost, seed=3)
        point, best = tuner.search(64)
        assert point == target and best == 1

    def test_history_monotone(self):
        space = FactorSpace({"x": list(range(1, 9))})
        tuner = MCTSTuner(space, lambda p: p["x"], seed=1)
        tuner.search(20)
        assert all(a >= b for a, b in
                   zip(tuner.history, tuner.history[1:]))

    def test_failures_dont_crash(self):
        space = FactorSpace({"x": [1, 2]})

        def cost(p):
            raise RuntimeError("boom")

        tuner = MCTSTuner(space, cost, seed=1)
        point, best = tuner.search(5)
        assert best == INFEASIBLE

    def test_empty_space(self):
        tuner = MCTSTuner(FactorSpace({}), lambda p: 7.0)
        point, best = tuner.search(3)
        assert point == {} and best == 7.0

    def test_random_search_baseline(self):
        space = FactorSpace({"x": list(range(1, 20))})
        rs = RandomSearch(space, lambda p: p["x"], seed=0)
        point, best = rs.search(100)
        assert best <= 3


class TestGenome:
    @pytest.fixture
    def wl(self):
        return self_attention(2, 32, 64, expand_softmax=False)

    def test_groups(self, wl):
        g = Genome((True, False), (Binding.PIPE, Binding.SEQ))
        groups = g.groups(wl)
        assert [len(x) for x in groups] == [2, 1]

    def test_group_binding(self, wl):
        g = Genome((True, False), (Binding.PIPE, Binding.SEQ))
        assert g.group_binding(wl, 0) is Binding.PIPE
        assert g.group_binding(wl, 1) is Binding.SEQ

    def test_unfused_and_fully_fused(self, wl):
        assert len(Genome.unfused(wl).groups(wl)) == 3
        assert len(Genome.fully_fused(wl).groups(wl)) == 1

    def test_crossover_preserves_length(self, wl):
        rng = random.Random(0)
        a = Genome.random(wl, rng)
        b = Genome.random(wl, rng)
        child = a.crossover(b, rng)
        assert len(child.fuse_edges) == len(a.fuse_edges)

    def test_mutate_changes_something_eventually(self, wl):
        rng = random.Random(0)
        g = Genome.unfused(wl)
        mutated = [g.mutate(rng, rate=0.9) for _ in range(10)]
        assert any(m != g for m in mutated)

    def test_describe(self, wl):
        g = Genome.fully_fused(wl, Binding.PIPE)
        assert "Pipe(" in g.describe(wl)


class TestGenericTree:
    @pytest.fixture
    def wl(self):
        return self_attention(2, 64, 64, expand_softmax=False)

    def test_shared_dims_respect_reduction_rule(self, wl):
        group = list(wl.operators)
        dims = shared_tileable_dims(wl, group)
        assert "k" not in dims  # qk's reduction, S consumed inside
        assert "m" in dims

    def test_factor_space_per_group(self, wl):
        genome = Genome.fully_fused(wl)
        space = genome_factor_space(wl, genome)
        assert space.size > 1

    def test_tree_valid_for_random_genomes(self, wl):
        rng = random.Random(7)
        spec = arch.edge()
        for _ in range(10):
            genome = Genome.random(wl, rng)
            space = genome_factor_space(wl, genome)
            factors = space.random_point(rng)
            tree = build_genome_tree(wl, spec, genome, factors)
            assert check_tree(tree) == []

    def test_tree_valid_for_conv(self):
        wl = conv_chain(16, 28, 28, 32, 32)
        spec = arch.cloud()
        genome = Genome.fully_fused(wl, Binding.SHAR)
        space = genome_factor_space(wl, genome)
        tree = build_genome_tree(wl, spec, genome, space.default_point())
        assert check_tree(tree) == []


class TestGeneticExplorer:
    def test_improves_or_holds(self):
        wl = self_attention(2, 64, 64, expand_softmax=False)
        spec = arch.edge()
        from repro.mapper import TileFlowMapper
        mapper = TileFlowMapper(wl, spec, seed=5)
        result = mapper.explore(generations=3, population=6,
                                mcts_samples=8)
        assert result.best_cost != INFEASIBLE
        assert result.best_result.latency_cycles > 0
        # best-so-far trace should not regress
        best = float("inf")
        for c in result.trace:
            best = min(best, c)
        assert result.best_cost <= best + 1e-9

    def test_survivor_bounds(self):
        wl = self_attention(2, 64, 64, expand_softmax=False)
        with pytest.raises(ValueError):
            GeneticExplorer(wl, lambda genomes, seeds, samples: [],
                            population=4, survivors=9)


class TestMapperResult:
    def _result(self, trace):
        import json

        from repro.mapper import TileFlowMapper
        wl = self_attention(2, 32, 64, expand_softmax=False)
        mapper = TileFlowMapper(wl, arch.edge(), seed=0)
        result = mapper.explore(generations=1, population=4,
                                mcts_samples=3)
        result.trace = list(trace)
        return result

    def test_normalized_trace_guards_non_monotone(self):
        # A regressing per-generation trace (survivor re-tuned worse)
        # must normalize against the best-so-far cummin, not raw values.
        result = self._result([5.0, 3.0, 4.0, 2.0])
        assert result.cummin_trace() == [5.0, 3.0, 3.0, 2.0]
        normalized = result.normalized_trace()
        assert normalized == [2.0 / 5.0, 2.0 / 3.0, 2.0 / 3.0, 1.0]
        # monotone non-decreasing, ending at exactly 1
        assert all(a <= b + 1e-12 for a, b in
                   zip(normalized, normalized[1:]))
        assert normalized[-1] == 1.0

    def test_normalized_trace_with_infeasible_prefix(self):
        result = self._result([INFEASIBLE, INFEASIBLE, 4.0, 8.0])
        assert result.normalized_trace() == [0.0, 0.0, 1.0, 1.0]

    def test_normalized_trace_all_infeasible(self):
        result = self._result([INFEASIBLE, INFEASIBLE])
        assert result.normalized_trace() == [0.0, 0.0]

    def test_to_dict_is_strict_json(self):
        import json
        result = self._result([5.0, INFEASIBLE, 2.0])
        payload = result.to_dict()
        text = json.dumps(payload, allow_nan=False)  # no Infinity/NaN
        assert json.loads(text)["trace"] == [5.0, None, 2.0]
        assert payload["best_so_far_trace"] == [5.0, 5.0, 2.0]
        assert payload["best_factors"] == result.best_factors
        assert payload["result"]["latency_cycles"] > 0
        assert isinstance(payload["best_genome"], str)
