"""Property tests: the linear-time scalar geometry equals the Fig. 5 reference.

* ``DataMovementAnalysis._recursion_volume`` (one inner->outer pass with a
  running wrap-around vector) equals the reference composition
  ``movement_recursion(box_volume, counts, [delta_volume(extents,
  loop_displacement(access, loop, inner_loops))])`` on random walks,
  including windowed ``h + r``, strided and constant index expressions and
  trip-count-1 loops.
* ``AnalysisContext.path_coverage`` (one upward walk per leaf) equals
  ``slice_coverage(node, leaf)`` for every (node, leaf) pair of every
  registry dataflow tree, and slice geometry built from it equals slice
  geometry built pair by pair.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import arch, workloads
from repro.analysis import (AnalysisContext, DataMovementAnalysis,
                            NodeSlices, box_volume, delta_volume,
                            loop_displacement, merged_extents,
                            movement_recursion, slice_coverage,
                            slice_extents)
from repro.dataflows import dataflow_for, dataflow_names
from repro.ir import Tensor, TensorAccess
from repro.ir.expr import const, dim
from repro.tile.loops import Loop

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
    assert (DataMovementAnalysis._recursion_volume(extents, access, walk)
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
        ctx = AnalysisContext(tree, spec)
        for leaf in tree.root.leaves():
            path = [leaf] + list(leaf.ancestors())
            covs = ctx.path_coverage(leaf)
            assert set(covs) == {id(n) for n in path}
            for node in path:
                assert covs[id(node)] == slice_coverage(node, leaf)
        for node in tree.root.walk():
            slices = NodeSlices(node, ctx.path_coverage)
            for name in slices.tensors:
                pairs = (slices.readers.get(name, [])
                         + slices.writers.get(name, []))
                assert slices.extents[name] == merged_extents(
                    [slice_extents(node, leaf, a) for leaf, a in pairs])
