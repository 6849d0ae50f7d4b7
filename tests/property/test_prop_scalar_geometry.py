"""Property tests: the linear-time scalar geometry equals the Fig. 5 reference.

* The tree reference's ``_recursion_volume`` (one inner->outer pass with
  a running wrap-around vector over a walk's loops) and
  ``recursion_volume`` over precomputed per-dim moves (with or without
  the trip-count-1 loops) equal the reference composition
  ``movement_recursion(box_volume, counts, [delta_volume(extents,
  loop_displacement(access, loop, inner_loops))])`` on random walks,
  including windowed ``h + r``, strided and constant index expressions
  and trip-count-1 loops.
* On every registry tree, with and without Seq eviction, the walk a
  ``WalkRecipe`` gathers equals the walk the tree reference builds node
  by node for every (node, tensor, access), before and after the tree's
  loops change, and so do the volume and the read-modify-write ideal
  volume the data-movement pass prices from the recipe.
* The tree reference's ``path_coverage`` (one upward walk per leaf)
  equals ``slice_coverage(node, leaf)`` for every (node, leaf) pair of
  every registry dataflow tree, and slice geometry built from it, or
  from an ``AnalysisContext``'s compiled slice rows, equals slice
  geometry built pair by pair.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import arch, workloads
from repro.analysis import (AnalysisContext, DataMovementAnalysis,
                            WalkRecipe, box_volume, delta_volume,
                            loop_displacement, merged_extents,
                            movement_recursion, recursion_volume,
                            slice_coverage, slice_extents)
from repro.analysis.datamovement import moves_of
from repro.dataflows import dataflow_for, dataflow_names
from repro.ir import Tensor, TensorAccess
from repro.ir.expr import const, dim
from repro.tile.loops import Loop
from tree_reference import (TreeContext, TreeDataMovementAnalysis,
                            tree_node_slices)

DIMS = ("h", "r", "w", "k")

single = st.sampled_from(DIMS).map(dim)
windowed = st.tuples(st.sampled_from(DIMS), st.sampled_from(DIMS)).map(
    lambda ab: dim(ab[0]) + dim(ab[1]))
strided = st.tuples(st.sampled_from(DIMS), st.integers(2, 3)).map(
    lambda dc: dc[1] * dim(dc[0]))
constant = st.integers(0, 3).map(const)
index_exprs = st.one_of(single, single, windowed, strided, constant)

loops = st.lists(st.builds(Loop, st.sampled_from(DIMS),
                           st.sampled_from([1, 1, 2, 3, 4, 7]),
                           st.integers(1, 16)),
                 max_size=8)


@st.composite
def walks(draw):
    exprs = draw(st.lists(index_exprs, min_size=1, max_size=3))
    access = TensorAccess(Tensor("X", (1 << 20,) * len(exprs)), exprs)
    extents = tuple(draw(st.integers(1, 40)) for _ in exprs)
    return access, extents, draw(loops)


def _reference(extents, access, walk):
    deltas = [delta_volume(extents, loop_displacement(access, lp,
                                                      walk[i + 1:]))
              for i, lp in enumerate(walk)]
    return movement_recursion(box_volume(extents),
                              [lp.count for lp in walk], deltas)


@given(walks())
@settings(max_examples=400, deadline=None)
def test_linear_recursion_equals_reference(case):
    access, extents, walk = case
    assert (TreeDataMovementAnalysis._recursion_volume(extents, access, walk)
            == _reference(extents, access, walk))


@given(walks(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_compiled_recursion_equals_reference(case, skip_single_trips):
    access, extents, walk = case
    terms = [(lp.count, lp.step, moves_of(access, lp.dim))
             for lp in reversed(walk)
             if lp.count != 1 or not skip_single_trips]
    assert (recursion_volume(extents, terms)
            == _reference(extents, access, walk))


@given(walks(), st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_coefficients_scale_to_displacement(case, step):
    access, _extents, _walk = case
    for d in DIMS + ("absent",):
        assert (tuple(c * step for c in access.coefficients(d))
                == access.displacement({d: step}))


def _registry_trees(workload_name):
    workload = workloads.by_name(workload_name)
    for arch_name in ("edge", "cloud"):
        spec = arch.by_name(arch_name)
        for name in dataflow_names(workload):
            yield spec, dataflow_for(workload, name, spec)


@pytest.mark.parametrize("workload_name",
                         list(workloads.ATTENTION_SHAPES)
                         + list(workloads.CONV_CHAIN_SHAPES))
def test_path_coverage_matches_slice_coverage(workload_name):
    for spec, tree in _registry_trees(workload_name):
        ctx = TreeContext(tree, spec)
        for leaf in tree.root.leaves():
            path = [leaf] + list(leaf.ancestors())
            covs = ctx.path_coverage(leaf)
            assert set(covs) == {id(n) for n in path}
            for node in path:
                assert covs[id(node)] == slice_coverage(node, leaf)
        compiled = AnalysisContext(tree, spec)
        for node in tree.root.walk():
            slices = tree_node_slices(node, ctx.path_coverage)
            rows = compiled.node_slices(node)
            assert rows.tensors == slices.tensors
            tensors = ctx.node_tensors(node)
            for name in slices.tensors:
                pairs = (tensors.readers.get(name, [])
                         + tensors.writers.get(name, []))
                assert slices.extents[name] == merged_extents(
                    [slice_extents(node, leaf, a) for leaf, a in pairs])
                assert rows.extents[name] == slices.extents[name]
                assert rows.staged_words[name] == float(
                    box_volume(slices.extents[name]))


def _all_registry_trees():
    for workload_name in (list(workloads.ATTENTION_SHAPES)
                          + list(workloads.CONV_CHAIN_SHAPES)):
        yield from _registry_trees(workload_name)


def _assert_recipes_rebuild_every_walk(ctx, recipes):
    """Gather every (node, tensor, access) walk from ``recipes``
    (compiled on first use) and compare it, and the volumes the
    data-movement pass prices from it, with the reference walk."""
    splits = ctx.splits()
    volumes = DataMovementAnalysis(ctx.tree, ctx.arch,
                                   context=ctx)._volumes_at(splits)
    tree_dm = TreeDataMovementAnalysis(ctx.tree, ctx.arch, context=ctx)
    walks = 0
    for node in ctx.tree.nodes():
        slices = ctx.node_slices(node)
        for name in slices.tensors:
            home = ctx.home(name)
            extents = slices.extents[name]
            for leaf, access in ctx.node_tensors(node).accesses[name]:
                walks += 1
                key = (id(node), id(access))
                reduction = leaf.op.reduction_dims
                if key not in recipes:
                    recipes[key] = WalkRecipe(ctx, node, name, access, home,
                                              reduction)
                recipe = recipes[key]
                walked, multiplied = recipe.loops(splits)
                built = tree_dm._build_walk(node, name, access, home)
                assert walked == built.loops
                assert multiplied == built.multiplied
                words, ideal = volumes(recipe, extents, True)
                assert words == tree_dm._walk_volume(extents, access, built)
                assert ideal == tree_dm._ideal_update_volume(
                    extents, access, built, reduction)
    return walks


@pytest.mark.parametrize("model_eviction", [True, False])
def test_recipes_rebuild_every_walk_on_every_registry_tree(model_eviction):
    trees = walks = 0
    for spec, tree in _all_registry_trees():
        trees += 1
        ctx = AnalysisContext(tree, spec, model_eviction=model_eviction)
        recipes = {}
        walks += _assert_recipes_rebuild_every_walk(ctx, recipes)
        # Recipes read no loops: re-arm with other loops and re-check.
        for node in tree.nodes():
            node.loops = [Loop(lp.dim, lp.count + 1, lp.step, lp.spatial)
                          for lp in node.loops]
        ctx.invalidate(loops_only=True)
        _assert_recipes_rebuild_every_walk(ctx, recipes)
    assert trees == 172 and walks > 0
