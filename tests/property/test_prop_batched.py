"""Property tests for the batched analysis kernels.

The batched layer's one contract (docs/PERFORMANCE.md): pricing a
factor-candidate cohort through the array-native kernels is *invisible*
— every committed cost equals what the scalar engine computes for the
same point, bit for bit.  Three angles, over hypothesis-randomized
genomes and cohorts:

* **element-for-element equality** — each cohort member's batched cost
  equals a fresh scalar engine's cost for the identical factor point,
  and every ``walkvol`` artifact the sweep published equals the scalar
  engine's artifact under the same cache key;
* **cohort-order invariance** — permuting the member order changes
  nothing (slice geometry and walk recursions are computed per lane in
  exact int64; lane order is just array layout);
* **cohort-of-1** — degenerate single-member cohorts take the same
  kernels and still match the scalar path exactly.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from repro import arch
from repro.analysis.batched.kernels import BatchedError
from repro.analysis.batched.sweep import CohortEvaluator
from repro.engine import EvaluationEngine
from repro.mapper import Genome, genome_factor_space
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=True)
SPEC = arch.edge()


def _evaluator(seed):
    """A (engine, genome, evaluator) triple for the first batchable
    genome of the seeded stream (None when none of the first few are)."""
    rng = random.Random(seed)
    engine = EvaluationEngine(WL, SPEC)
    for _ in range(8):
        genome = Genome.random(WL, rng)
        try:
            evaluator = CohortEvaluator(
                engine, genome, genome_factor_space(WL, genome))
        except BatchedError:
            continue
        return engine, genome, evaluator
    return None


def _members(evaluator, rng, count):
    choices = evaluator.planner.choices
    return sorted({tuple(rng.randrange(len(c)) for c in choices)
                   for _ in range(count)})


@given(st.integers(0, 2 ** 31), st.integers(2, 24))
@settings(max_examples=20, deadline=None)
def test_batched_costs_equal_scalar_element_for_element(seed, count):
    triple = _evaluator(seed)
    assume(triple is not None)
    engine, genome, evaluator = triple
    rng = random.Random(seed ^ 0x5EED)
    members = _members(evaluator, rng, count)
    costs = evaluator.costs_for(members)
    scalar = EvaluationEngine(WL, SPEC)
    priced = 0
    for member, cost in costs.items():
        if cost is None:  # scalar fallback: nothing committed to check
            continue
        priced += 1
        expected = scalar.cost_of(scalar.evaluate_genome(
            genome, evaluator.planner.point_at(member)))
        assert float(cost) == float(expected), member
    if priced:
        swept = engine.subtree_cache.store(engine._subtree_ns,
                                           "walkvol").data
        plain = scalar.subtree_cache.store(scalar._subtree_ns,
                                           "walkvol").data
        shared = [key for key in swept if key in plain]
        assert shared
        for key in shared:
            assert swept[key] == plain[key], key


@given(st.integers(0, 2 ** 31), st.integers(2, 16))
@settings(max_examples=10, deadline=None)
def test_cohort_order_permutation_invariance(seed, count):
    triple_a = _evaluator(seed)
    assume(triple_a is not None)
    _, _, ev_a = triple_a
    _, _, ev_b = _evaluator(seed)  # fresh engine + evaluator, same genome
    rng = random.Random(seed ^ 0xC0FFEE)
    members = _members(ev_a, rng, count)
    shuffled = list(members)
    rng.shuffle(shuffled)
    assert ev_a.costs_for(members) == ev_b.costs_for(shuffled)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=15, deadline=None)
def test_cohort_of_one_equals_scalar(seed):
    triple = _evaluator(seed)
    assume(triple is not None)
    engine, genome, evaluator = triple
    rng = random.Random(seed ^ 0x0D0)
    (member,) = _members(evaluator, rng, 1)
    costs = evaluator.costs_for([member])
    cost = costs[member]
    assume(cost is not None)
    scalar = EvaluationEngine(WL, SPEC)
    expected = scalar.cost_of(scalar.evaluate_genome(
        genome, evaluator.planner.point_at(member)))
    assert float(cost) == float(expected)
