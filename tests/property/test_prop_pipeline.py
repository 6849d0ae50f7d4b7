"""The pass pipeline reproduces the pre-refactor monolith exactly.

Two oracles guard the refactor of ``TileFlowModel.evaluate`` into a pass
pipeline:

* ``tests/data/analysis_oracle.json`` — 58 ``EvaluationResult.to_dict()``
  payloads (every named attention/conv dataflow on Edge/Cloud plus 30
  random genome trees) frozen from the pre-refactor monolith.  The full
  pipeline must reproduce the file **byte-for-byte**, also through one
  shared subtree cache and through evaluation engines with no cache, a
  small evicting cache and the default one.  Regenerate after an
  intentional model change with
  ``PYTHONPATH=src python tests/property/test_prop_pipeline.py``.
* A hypothesis sweep comparing the pipeline against an *independent*
  composition of the underlying analyses (data movement -> resources ->
  latency -> energy, each with its own private context) on random
  genomes — all five metric families must agree exactly.
"""

import json
import os
import random

from hypothesis import given, settings, strategies as st

from repro import arch as arch_mod
from repro.analysis import (DataMovementAnalysis, LatencyAnalysis,
                            ResourceAnalysis, TileFlowModel, compute_energy)
from repro.dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS,
                             attention_dataflow, conv_dataflow)
from repro.engine import EvaluationEngine
from repro.mapper import Genome, build_genome_tree, genome_factor_space
from repro.workloads import (ATTENTION_SHAPES, CONV_CHAIN_SHAPES,
                             attention_from_shape, conv_chain_from_shape,
                             self_attention)

ORACLE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "analysis_oracle.json")


def oracle_entries(artifact_cache=None, engine_kwargs=None):
    """Recompute every frozen-oracle entry with the current model.

    ``artifact_cache`` optionally threads one shared
    :class:`~repro.engine.cache.SubtreeArtifactCache` through every
    evaluation — the incremental path, which must reproduce the same
    bytes.  ``engine_kwargs`` instead evaluates through one
    :class:`~repro.engine.EvaluationEngine` per (workload, arch) pair
    built with them, by ``evaluate_tree(full=True)`` — the evaluation
    service's job path.
    """
    def evaluator(wl, spec):
        if engine_kwargs is not None:
            engine = EvaluationEngine(wl, spec, **engine_kwargs)
            return lambda tree: engine.evaluate_tree(tree, full=True)
        model = TileFlowModel(spec)
        if artifact_cache is None:
            return model.evaluate
        return lambda tree: model.evaluate(tree, context=model.context(
            tree, artifact_cache=artifact_cache))

    out = {}
    for shape in ("Bert-S", "ViT/16-B"):
        wl = attention_from_shape(ATTENTION_SHAPES[shape])
        for aname, spec in (("edge", arch_mod.edge()),
                            ("cloud", arch_mod.cloud())):
            evaluate = evaluator(wl, spec)
            for df in ATTENTION_DATAFLOWS:
                r = evaluate(attention_dataflow(df, wl, spec))
                out[f"attn/{shape}/{aname}/{df}"] = r.to_dict()
    wl = conv_chain_from_shape(CONV_CHAIN_SHAPES["CC1"])
    spec = arch_mod.edge()
    evaluate = evaluator(wl, spec)
    for df in CONV_DATAFLOWS:
        r = evaluate(conv_dataflow(df, wl, spec))
        out[f"conv/CC1/edge/{df}"] = r.to_dict()
    wl = self_attention(2, 32, 64, expand_softmax=False)
    evaluate = evaluator(wl, spec)
    rng = random.Random(1234)
    for i in range(30):
        genome = Genome.random(wl, rng)
        factors = genome_factor_space(wl, genome).random_point(rng)
        tree = build_genome_tree(wl, spec, genome, factors)
        out[f"genome/{i}"] = evaluate(tree).to_dict()
    return out


def test_frozen_oracle_byte_identity():
    """Full-pipeline results are byte-identical to the frozen monolith."""
    with open(ORACLE_PATH) as fh:
        frozen = fh.read()
    current = json.dumps(oracle_entries(), sort_keys=True, indent=1)
    assert current == frozen


def test_frozen_oracle_byte_identity_incremental():
    """The incremental path reproduces the frozen oracle byte-for-byte.

    All 58 entries run through a *single shared* subtree artifact cache,
    so later entries are served from artifacts cached by earlier ones —
    cache hits included, the serialized output must not move by a bit.
    """
    from repro.engine.cache import SubtreeArtifactCache

    cache = SubtreeArtifactCache()
    with open(ORACLE_PATH) as fh:
        frozen = fh.read()
    current = json.dumps(oracle_entries(artifact_cache=cache),
                         sort_keys=True, indent=1)
    assert cache.hits > 0  # the cache actually served artifacts
    assert current == frozen


def test_frozen_oracle_byte_identity_through_engines():
    """Engines reproduce the frozen oracle at every cache bound.

    Three runs of the 58 entries through evaluation engines: with no
    subtree cache (``subtree_cache_size=0``), with one shared 256-entry
    cache that evicts, and with one shared cache at the default bound.
    All serialize byte-identically to the frozen file.
    """
    from repro.engine.cache import SubtreeArtifactCache

    with open(ORACLE_PATH) as fh:
        frozen = fh.read()
    assert json.dumps(oracle_entries(
        engine_kwargs={"subtree_cache_size": 0}),
        sort_keys=True, indent=1) == frozen

    small = SubtreeArtifactCache(256)
    assert json.dumps(oracle_entries(
        engine_kwargs={"subtree_cache": small}),
        sort_keys=True, indent=1) == frozen
    assert small.eviction_count > 0  # the bound was under pressure

    default = SubtreeArtifactCache()
    assert json.dumps(oracle_entries(
        engine_kwargs={"subtree_cache": default}),
        sort_keys=True, indent=1) == frozen
    assert default.hits > 0 and default.eviction_count == 0


# ----------------------------------------------------------------------
# Pipeline vs independent composition of the analyses.
# ----------------------------------------------------------------------
_WL = self_attention(2, 32, 64, expand_softmax=False)
_SPEC = arch_mod.edge()


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_pipeline_matches_independent_composition(seed):
    """All five metric families agree with the composed analyses."""
    rng = random.Random(seed)
    genome = Genome.random(_WL, rng)
    factors = genome_factor_space(_WL, genome).random_point(rng)
    tree = build_genome_tree(_WL, _SPEC, genome, factors)
    result = TileFlowModel(_SPEC).evaluate(tree)

    movement = DataMovementAnalysis(tree, _SPEC).run()
    usage, violations = ResourceAnalysis(tree, _SPEC, movement).run()
    cycles, slowdown = LatencyAnalysis(tree, _SPEC, movement).run()
    energy_pj, breakdown = compute_energy(_WL, _SPEC, movement.traffic)

    # 1. latency (+ the §7.5 slow-down diagnostics)
    assert result.latency_cycles == cycles
    assert result.slowdown == slowdown
    # 2. energy (total and per-component breakdown)
    assert result.energy_pj == energy_pj
    assert result.energy_breakdown_pj == breakdown
    # 3. traffic at every level
    assert set(result.traffic) == set(movement.traffic)
    for level, lt in result.traffic.items():
        other = movement.traffic[level]
        assert (lt.fill, lt.read, lt.update) == (
            other.fill, other.read, other.update)
    # 4. resources
    assert result.resources.num_pe == usage.num_pe
    assert result.resources.num_vector_pe == usage.num_vector_pe
    assert result.resources.footprint_bytes == usage.footprint_bytes
    # 5. violations
    assert result.violations == violations


# ----------------------------------------------------------------------
# Incremental layer: shared-cache identity and cached validation.
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_shared_cache_reevaluation_is_byte_identical(seed):
    """Cold and warm runs through one shared cache match the uncached run.

    The warm run re-builds the same tree (new node objects, same
    structure), so slices, validation verdicts, walk volumes, and whole
    group flows are all served from the cache — and must reproduce the
    uncached result bit-for-bit.
    """
    from repro.engine.cache import SubtreeArtifactCache

    rng = random.Random(seed)
    genome = Genome.random(_WL, rng)
    factors = genome_factor_space(_WL, genome).random_point(rng)

    model = TileFlowModel(_SPEC)
    uncached = model.evaluate(
        build_genome_tree(_WL, _SPEC, genome, factors)).to_dict()

    cache = SubtreeArtifactCache()
    for _ in range(2):  # cold fill, then warm replay
        tree = build_genome_tree(_WL, _SPEC, genome, factors)
        ctx = model.context(tree, artifact_cache=cache)
        cached = model.evaluate(tree, context=ctx).to_dict()
        assert cached == uncached
    assert cache.hits > 0


@given(st.integers(min_value=0, max_value=10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_local_validation_matches_full_check(seed, corrupt):
    """``validate_tree_local`` == ``validate_tree``, valid or not.

    ``corrupt`` flattens every loop over one dim to a single iteration,
    leaving that dim's coverage product short of its size; the local
    validator must raise the exact message the full checker raises (it
    re-runs the full check on any problem precisely to keep the message
    order canonical), on contexts with and without a subtree cache.
    """
    from repro.analysis import AnalysisContext
    from repro.engine.cache import SubtreeArtifactCache
    from repro.errors import TreeValidationError
    from repro.tile.loops import Loop
    from repro.tile.validate import validate_tree, validate_tree_local

    rng = random.Random(seed)
    genome = Genome.random(_WL, rng)
    factors = genome_factor_space(_WL, genome).random_point(rng)
    tree = build_genome_tree(_WL, _SPEC, genome, factors)
    if corrupt:
        dim_name = rng.choice(sorted(
            {d for op in _WL.operators
             for d, size in op.dims.items() if size > 1}))
        for node in tree.nodes():
            if any(lp.dim == dim_name and lp.count > 1
                   for lp in node.loops):
                node.loops = [
                    lp if lp.dim != dim_name
                    else Loop(lp.dim, 1, lp.step, lp.spatial)
                    for lp in node.loops]

    full_error = None
    try:
        validate_tree(tree)
    except TreeValidationError as err:
        full_error = str(err)

    for cache in (None, SubtreeArtifactCache()):
        ctx = AnalysisContext(tree, _SPEC, artifact_cache=cache)
        for _ in range(2):  # the second call reuses the structure verdict
            local_error = None
            try:
                validate_tree_local(ctx)
            except TreeValidationError as err:
                local_error = str(err)
            assert local_error == full_error
    if corrupt:
        assert full_error is not None


if __name__ == "__main__":  # regenerate the frozen oracle
    payload = json.dumps(oracle_entries(), sort_keys=True, indent=1)
    with open(ORACLE_PATH, "w") as fh:
        fh.write(payload)
    print(f"wrote {len(payload)} bytes to {ORACLE_PATH}")
