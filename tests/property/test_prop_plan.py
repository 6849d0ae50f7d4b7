"""Property tests: compiled analysis equals the tree-walking reference.

Every :class:`~repro.analysis.AnalysisContext` prices its tree from
compiled slice rows, walk recipes, fusion rules and plan nodes, and
:meth:`EvaluationEngine.tune_genome` re-arms one such context
loops-only for each MCTS point (:class:`~repro.engine.GenomePlan`).
These tests pin both to the tree-walking reference passes of
``tests/tree_reference.py`` (:class:`ReferenceModel` over a fresh
:class:`TreeContext` of a freshly built tree):

* over random genomes and random point sequences of every registry
  workload, both objectives, ``respect_memory`` and the pre-screen on
  and off, each point's plan cost equals the reference objective of a
  freshly built tree, the re-looped tree's loops equal the fresh tree's
  node for node, every node's slice extents and staged words (from the
  plan's compiled slice rows) and fills and updates (from its walk
  recipes) equal the reference context's, and every
  ``prescreen.reject`` event carries the same digest and codes as an
  engine evaluation of the freshly built tree;
* at every point of every registry genome — unfused, fully fused under
  each edge binding and seeded random ones, on stock and shrunk
  architectures — what the plan compiles (the validation verdict,
  ``bound_violations`` and their codes, the ``resources`` usage and
  violations, the latency cycles and slow-down) equals the reference
  bit for bit, including CC1 points that fail the §4 coverage rule,
  and plan trees given loops that break a §4 loop rule or coverage
  raise the reference's message;
* over all registry dataflow trees, re-arming a context — one with a
  shared subtree cache on top and one without — after an in-place
  loop change gives the same result as a fresh reference context, and
  a loop change that breaks coverage raises ``check_tree``'s message.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import arch, workloads
from repro.analysis import (PRESCREEN_PASSES, AnalysisContext,
                            TileFlowModel, run_passes)
from repro.dataflows import dataflow_for, dataflow_names
from repro.engine import (EvaluationEngine, GenomePlan, SubtreeArtifactCache,
                          prescreen)
from repro.errors import TreeValidationError
from repro.mapper import (EDGE_BINDINGS, Genome, build_genome_tree,
                          edp_cost, genome_factor_space, genome_loops,
                          latency_cost)
from repro.obs import events
from repro.tile.loops import Loop, temporal
from repro.tile.tree import FusionNode
from repro.tile.validate import check_tree, fused_producers
from tree_reference import ReferenceModel

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
    tree_engine = EvaluationEngine(workload, spec, **config)
    plan = GenomePlan(engine, genome)
    reference = ReferenceModel(spec)
    for point in points:
        priced, plan_rejects = _rejects(lambda: _outcome(
            lambda: engine.cost_of(engine.evaluate_genome(genome, point,
                                                          plan=plan))))
        fresh = build_genome_tree(workload, spec, genome, point)
        fresh_ctx = reference.context(fresh)
        assert priced == _outcome(lambda: OBJECTIVES[objective](
            reference.evaluate(fresh, context=fresh_ctx), respect_memory))
        _assert_same_geometry(plan.context, fresh_ctx)
        assert [(n.label(), n.level, n.loops) for n in plan.tree.nodes()] \
            == [(n.label(), n.level, n.loops) for n in fresh.nodes()]
        assert genome_loops(workload, spec, genome, point) == [
            n.loops for n in fresh.nodes()]
        _, tree_rejects = _rejects(lambda: _outcome(
            lambda: tree_engine.evaluate_genome(genome, point)))
        assert plan_rejects == tree_rejects
    # The plan never touches the shared cache.
    assert engine.stats.subtree_hits == engine.stats.subtree_misses == 0


def _assert_same_geometry(ctx, fresh_ctx):
    """Every node's slices, and fills and updates where ``ctx`` ran the
    data movement, equal ``fresh_ctx``'s, in the same key order."""
    if "slices" not in ctx.completed:  # the point failed validation
        return
    movement = ctx.get("movement")
    for node, ref in zip(ctx.tree.nodes(), fresh_ctx.tree.nodes()):
        mine, theirs = ctx.node_slices(node), fresh_ctx.node_slices(ref)
        assert list(mine.extents.items()) == list(theirs.extents.items())
        assert (list(mine.staged_words.items())
                == list(theirs.staged_words.items()))
        if movement is not None:
            flows = movement.flows(node)
            expected = fresh_ctx.get("movement").flows(ref)
            assert list(flows.fills.items()) == list(expected.fills.items())
            assert (list(flows.updates.items())
                    == list(expected.updates.items()))


def _registry_genomes(workload):
    """Unfused, fully fused under each edge binding, and two seeded
    random genomes (distinct, in that order)."""
    genomes = [Genome.unfused(workload)] + [
        Genome.fully_fused(workload, binding) for binding in EDGE_BINDINGS]
    rng = random.Random(len(workload.operators))
    genomes += [Genome.random(workload, rng) for _ in range(2)]
    return list(dict.fromkeys(genomes))


def _points(space, rng):
    """Every factor at its lowest choice, at its highest, the default
    point, and three random points."""
    return ([{n: v[0] for n, v in space.choices.items()},
             {n: v[-1] for n, v in space.choices.items()},
             space.default_point()]
            + [space.random_point(rng) for _ in range(3)])


def _compiled_results(model, ctx):
    """The validation error, or the repr (exact for floats) of the
    bounds, resources and latency artifacts the prescreen and full passes
    leave in ``ctx``."""
    try:
        run_passes(ctx, PRESCREEN_PASSES)
    except TreeValidationError as exc:
        return str(exc)
    model.evaluate(ctx.tree, context=ctx)
    usage = ctx.get("resources")
    cycles, slowdown = ctx.get("latency")
    return repr((ctx.get("bound_violations"),
                 ctx.get("bound_violation_codes"),
                 usage.num_pe, usage.num_vector_pe,
                 list(usage.footprint_bytes.items()),
                 list(usage.instances_used.items()),
                 ctx.get("violations"), cycles, list(slowdown.items())))


def _broken_loops(tree):
    """(node, loops) variants of a tree's nodes: each fusion node with
    an extra loop over each §4.1-forbidden dim and over a dim no
    operator has, and each multi-trip loop one trip short."""
    for node in tree.nodes():
        if isinstance(node, FusionNode):
            ops = node.subtree_ops()
            forbidden = sorted({d for op in fused_producers(tree.workload,
                                                            ops)
                                for d in op.reduction_dims})
            for dim in forbidden + ["nodim"]:
                yield node, node.loops + (temporal(dim, 2, 1),)
        for i, lp in enumerate(node.loops):
            if lp.count > 1:
                short = Loop(lp.dim, lp.count - 1, lp.step, lp.spatial)
                yield node, node.loops[:i] + (short,) + node.loops[i + 1:]


@pytest.mark.parametrize("workload_name", WORKLOADS)
def test_compiled_passes_equal_a_fresh_tree_at_every_point(workload_name):
    workload = workloads.by_name(workload_name)
    rng = random.Random(11)
    invalid = broken = 0
    for spec in ARCHS:
        engine = EvaluationEngine(workload, spec)
        model = TileFlowModel(spec)
        reference = ReferenceModel(spec)
        for genome in _registry_genomes(workload):
            plan = GenomePlan(engine, genome)
            space = genome_factor_space(workload, genome)
            for point in _points(space, rng):
                compiled = _compiled_results(model, plan.rearm(point))
                fresh = build_genome_tree(workload, spec, genome, point)
                assert compiled == _compiled_results(
                    reference, reference.context(fresh)), (genome, point)
                invalid += compiled.startswith("tree ")
            if spec is not ARCHS[0]:
                continue  # the §4 rules read no architecture
            for node, loops in _broken_loops(plan.tree):
                kept, node.loops = node.loops, loops
                plan.context.invalidate(loops_only=True)
                compiled = _compiled_results(model, plan.context)
                assert compiled == _compiled_results(
                    reference, reference.context(plan.tree)), (genome, loops)
                broken += compiled.startswith("tree ")
                node.loops = kept
    assert broken > 0
    if workload_name == "CC1":  # fused conv chains under-cover halos
        assert invalid > 0


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
    cache = SubtreeArtifactCache()
    _check_rearm(lambda model, tree, spec: model.context(
        tree, artifact_cache=cache))
    assert cache.hits > 0


def test_compiled_rearm_equals_a_fresh_context_on_every_registry_tree():
    _check_rearm(lambda model, tree, spec: AnalysisContext(tree, spec))


def _check_rearm(make_context):
    trees = 0
    for spec, tree in _registry_trees():
        trees += 1
        model = TileFlowModel(spec)
        reference = ReferenceModel(spec)
        ctx = make_context(model, tree, spec)
        before = _run(model, tree, spec, ctx)
        assert before == _run(reference, tree, spec), tree.name
        for node in tree.nodes():
            node.loops = _widened(node.loops)
        ctx.invalidate(loops_only=True)
        after = _run(model, tree, spec, ctx)
        fresh_ctx = reference.context(tree)
        assert after == _run(reference, tree, spec, fresh_ctx), tree.name
        assert after != before, tree.name
        _assert_same_geometry(ctx, fresh_ctx)
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
