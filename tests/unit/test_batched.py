"""Unit tests for the batched analysis layer.

Covers the checked int64 kernels (dtype gates, exact overflow
detection with adversarially large loop bounds), the cohort planner's
per-group structure keys, and the engine stats a directly built
:class:`CohortEvaluator` attributes its sweeps to.  No engine path
builds one: genome tunes never sweep.
"""

import random

import numpy as np
import pytest

from repro import arch
from repro.analysis.batched.kernels import (BatchedError,
                                            BatchedOverflowError, I8,
                                            abs64, add64, as_i8, box64,
                                            cdiv64, movement64, mul64,
                                            sub64)
from repro.analysis.batched.sweep import CohortEvaluator
from repro.engine import EvaluationEngine
from repro.mapper import Genome, genome_factor_space
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=True)
SPEC = arch.edge()


def _batchable(seed=11):
    """First batchable (engine, genome, evaluator) of the seeded stream."""
    rng = random.Random(seed)
    engine = EvaluationEngine(WL, SPEC)
    while True:
        genome = Genome.random(WL, rng)
        try:
            return engine, genome, CohortEvaluator(
                engine, genome, genome_factor_space(WL, genome))
        except BatchedError:
            continue


# -- checked kernels -----------------------------------------------------

class TestKernels:
    def test_dtype_gate_rejects_non_int64(self):
        with pytest.raises(BatchedError, match="int64"):
            as_i8(np.arange(4, dtype=np.int32))
        with pytest.raises(BatchedError, match="int64"):
            mul64(np.arange(4, dtype=np.float64), np.int64(2))
        with pytest.raises(BatchedError, match="int64"):
            add64(np.arange(4, dtype=I8), np.arange(4, dtype=np.uint64))

    def test_python_int_operand_too_large_raises(self):
        with pytest.raises(BatchedOverflowError):
            mul64(np.ones(2, dtype=I8), 2 ** 63)

    def test_mul64_overflow_raises_not_wraps(self):
        # Adversarially large loop bounds: a tile recursion with counts
        # near 2^32 squares straight past 2^63.
        big = np.full(3, 2 ** 32, dtype=I8)
        with pytest.raises(BatchedOverflowError):
            mul64(big, big)
        # The check is exact — the largest representable products pass.
        assert mul64(np.int64(2 ** 62), np.int64(1)) == 2 ** 62
        ok = mul64(np.full(3, 2 ** 31, dtype=I8),
                   np.full(3, 2 ** 31, dtype=I8))
        assert (ok == 2 ** 62).all()

    def test_add_sub_overflow(self):
        top = np.array([2 ** 63 - 1], dtype=I8)
        with pytest.raises(BatchedOverflowError):
            add64(top, np.int64(1))
        with pytest.raises(BatchedOverflowError):
            sub64(np.array([-(2 ** 63)], dtype=I8), np.int64(1))
        assert add64(top, np.int64(0)) == 2 ** 63 - 1
        assert sub64(top, top)[0] == 0

    def test_abs64_int64_min(self):
        with pytest.raises(BatchedOverflowError):
            abs64(np.array([-(2 ** 63)], dtype=I8))
        assert (abs64(np.array([-5, 5], dtype=I8)) == 5).all()

    def test_cdiv64_matches_python_ceil(self):
        a = np.array([0, 1, 7, 8, 9], dtype=I8)
        assert list(cdiv64(a, np.int64(4))) == [0, 1, 2, 2, 3]

    def test_box64_clamps_negative_extents(self):
        vol = box64([np.array([3, -1], dtype=I8),
                     np.array([4, 7], dtype=I8)], 2)
        assert list(vol) == [12, 0]

    def test_movement64_matches_scalar_recursion(self):
        # One lane, two levels: s = (c-1)*(d+s)+s, innermost first.
        volume = np.array([10], dtype=I8)
        counts = [np.array([3], dtype=I8), np.array([2], dtype=I8)]
        deltas = [np.array([4], dtype=I8), np.array([5], dtype=I8)]
        s = 0
        for c, d in ((2, 5), (3, 4)):  # innermost (last) first
            s = (c - 1) * (d + s) + s
        assert movement64(volume, counts, deltas)[0] == 10 + s

    def test_movement64_overflow_on_huge_bounds(self):
        volume = np.array([1], dtype=I8)
        counts = [np.full(1, 2 ** 31, dtype=I8)] * 3
        deltas = [np.full(1, 2 ** 31, dtype=I8)] * 3
        with pytest.raises(BatchedOverflowError):
            movement64(volume, counts, deltas)


# -- cohort planner ------------------------------------------------------

class TestPlanner:
    def test_group_keys_partition_members(self):
        _, _, evaluator = _batchable()
        planner = evaluator.planner
        rng = random.Random(3)
        members = sorted({tuple(rng.randrange(len(c))
                                for c in planner.choices)
                          for _ in range(12)})
        plan = planner.plan(members)
        ngroups = len(planner.group_plans)
        assert len(plan.group_keys) == ngroups
        for gi in range(ngroups):
            keys = plan.group_keys[gi]
            assert len(keys) == len(members)
            # classes() positions must tile the member list exactly.
            seen = sorted(p for poss in plan.group_classes(gi).values()
                          for p in poss)
            assert seen == list(range(len(members)))
        # Same members -> byte-identical keys (pure function of factors).
        again = planner.plan(members)
        assert again.group_keys == plan.group_keys


# -- engine integration --------------------------------------------------

class TestEngineIntegration:
    def test_small_tunes_never_sweep(self):
        engine = EvaluationEngine(WL, SPEC)
        genome = Genome.random(WL, random.Random(5))
        engine.tune_genome(genome, seed=1, samples=16)
        stats = engine.stats.to_dict()
        assert stats["batch_fill"] == 0
        assert stats["batched_evaluations"] == 0

    def test_stats_carry_batched_attribution(self):
        engine, genome, evaluator = _batchable()
        rng = random.Random(7)
        members = sorted({tuple(rng.randrange(len(c))
                                for c in evaluator.planner.choices)
                          for _ in range(8)})
        costs = evaluator.costs_for(members)
        stats = engine.stats.to_dict()
        committed = sum(1 for c in costs.values() if c is not None)
        assert stats["batch_fill"] >= len(members)
        assert stats["batched_evaluations"] >= committed > 0
