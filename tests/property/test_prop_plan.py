"""Property tests: a per-genome plan prices every point like a fresh tree.

:meth:`EvaluationEngine.tune_genome` builds one tree per tune and, for
each MCTS point, assigns its loops and re-arms the analysis context
loops-only (:class:`~repro.engine.GenomePlan`).  These tests pin that
path to the tree path:

* over random genomes and random point sequences of every registry
  workload, both objectives, ``respect_memory`` and the pre-screen on
  and off, each point's plan cost equals the objective of a plain
  ``TileFlowModel.evaluate`` of a freshly built tree, the re-looped
  tree's loops equal the fresh tree's node for node, and every
  ``prescreen.reject`` event carries the same digest and codes;
* over all registry dataflow trees, re-arming a context after an
  in-place loop change gives the same result as a fresh context, and a
  loop change that breaks coverage raises ``check_tree``'s message.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import arch, workloads
from repro.analysis import TileFlowModel
from repro.dataflows import dataflow_for, dataflow_names
from repro.engine import EvaluationEngine, GenomePlan, prescreen
from repro.errors import TreeValidationError
from repro.mapper import (Genome, build_genome_tree, edp_cost,
                          genome_factor_space, genome_loops, latency_cost)
from repro.obs import events
from repro.tile.loops import Loop
from repro.tile.validate import check_tree

WORKLOADS = list(workloads.ATTENTION_SHAPES) + list(
    workloads.CONV_CHAIN_SHAPES)
OBJECTIVES = {"latency": latency_cost, "edp": edp_cost}
#: Stock presets plus shrunk Edge variants on which compute and memory
#: rejections are reachable.
ARCHS = [
    arch.edge(),
    arch.cloud(),
    arch.edge().with_(pe_count=64, vector_pe_count=16),
    arch.edge().with_(pe_count=256).with_level("L1",
                                               capacity_bytes=4 * 1024),
]


def _rejects(run):
    """(digest, codes) of every ``prescreen.reject`` event ``run`` emits."""
    sink = events.RingSink(capacity=None)
    events.enable(sinks=[sink])
    try:
        value = run()
    finally:
        events.disable()
    return value, [(e.payload["mapping"], e.payload["codes"])
                   for e in sink.records if e.name == "prescreen.reject"]


def _outcome(price):
    """``price()``, or the message of the validation error it raises
    (fused conv-chain genomes can under-cover a halo dim)."""
    try:
        return price()
    except TreeValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("workload_name", WORKLOADS)
@given(seed=st.integers(0, 2 ** 31),
       arch_index=st.integers(0, len(ARCHS) - 1),
       objective=st.sampled_from(sorted(OBJECTIVES)),
       respect_memory=st.booleans(), screen=st.booleans(),
       length=st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_plan_prices_every_point_like_a_fresh_tree(
        workload_name, seed, arch_index, objective, respect_memory, screen,
        length):
    workload = workloads.by_name(workload_name)
    spec = ARCHS[arch_index]
    rng = random.Random(seed)
    genome = Genome.random(workload, rng)
    space = genome_factor_space(workload, genome)
    points = [space.random_point(rng) for _ in range(length)]
    if length > 2:
        points.append(points[0])  # a revisit after other loops
    config = dict(objective=objective, respect_memory=respect_memory,
                  prescreen=screen)
    engine = EvaluationEngine(workload, spec, **config)
    reference = EvaluationEngine(workload, spec, **config)
    plan = GenomePlan(engine, genome)
    model = TileFlowModel(spec)
    for point in points:
        priced, plan_rejects = _rejects(lambda: _outcome(
            lambda: engine.cost_of(engine.evaluate_genome(genome, point,
                                                          plan=plan))))
        fresh = build_genome_tree(workload, spec, genome, point)
        assert priced == _outcome(lambda: OBJECTIVES[objective](
            model.evaluate(fresh), respect_memory))
        assert [(n.label(), n.level, n.loops) for n in plan.tree.nodes()] \
            == [(n.label(), n.level, n.loops) for n in fresh.nodes()]
        assert genome_loops(workload, spec, genome, point) == [
            n.loops for n in fresh.nodes()]
        _, tree_rejects = _rejects(lambda: _outcome(
            lambda: reference.evaluate_genome(genome, point)))
        assert plan_rejects == tree_rejects
    # The plan never touches the shared cache.
    assert engine.stats.subtree_hits == engine.stats.subtree_misses == 0


def _registry_trees():
    for workload_name in WORKLOADS:
        workload = workloads.by_name(workload_name)
        for arch_name in ("edge", "cloud"):
            spec = arch.by_name(arch_name)
            for name in dataflow_names(workload):
                yield spec, dataflow_for(workload, name, spec)


def _widened(loops):
    """``loops`` with the first multi-trip loop doubled (over-coverage
    stays valid: it is a halo)."""
    out, done = [], False
    for lp in loops:
        if not done and lp.count > 1:
            lp = Loop(lp.dim, lp.count * 2, lp.step, lp.spatial)
            done = True
        out.append(lp)
    return out


def _run(model, tree, spec, context=None):
    ctx = context if context is not None else model.context(tree)
    rejected = prescreen(tree, spec, context=ctx)
    return rejected, model.evaluate(tree, context=ctx).to_dict()


def test_rearm_equals_a_fresh_context_on_every_registry_tree():
    trees = 0
    for spec, tree in _registry_trees():
        trees += 1
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        before = _run(model, tree, spec, ctx)
        for node in tree.nodes():
            node.loops = _widened(node.loops)
        ctx.invalidate(loops_only=True)
        after = _run(model, tree, spec, ctx)
        assert after == _run(model, tree, spec), tree.name
        assert after != before, tree.name
    assert trees == 172


def test_rearm_reports_broken_coverage_like_check_tree():
    broken = 0
    for spec, tree in _registry_trees():
        model = TileFlowModel(spec)
        ctx = model.context(tree)
        model.evaluate(tree, context=ctx)  # the structure verdict is kept
        node = next((n for n in tree.nodes()
                     if any(lp.count > 1 for lp in n.loops)), None)
        if node is None:
            continue
        node.loops = [lp for lp in node.loops if lp.count == 1]
        problems = check_tree(tree)
        if not problems:
            continue
        broken += 1
        ctx.invalidate(loops_only=True)
        with pytest.raises(TreeValidationError) as err:
            model.evaluate(tree, context=ctx)
        assert str(err.value) == (f"tree {tree.name!r} is invalid:\n  - "
                                  + "\n  - ".join(problems))
    assert broken > 0
