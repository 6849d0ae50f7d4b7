"""Canonical mapping signatures for the evaluation engine.

A complete mapping is identified by (workload, architecture, model
configuration, genome, tiling-factor point).  The functions here reduce
each component to a canonical tuple of primitives — insertion order of
factor dicts, set iteration order, and object identity all wash out — so
equal mappings always produce equal keys, across GA generations, MCTS
samples, and worker processes.

:func:`digest` renders a signature (:func:`mapping_signature`) as a
short stable hex string: the run ledger's champion identity and the
``prescreen.reject`` event's ``mapping`` field.

The *structural subtree* fingerprints backing the incremental
evaluation layer (:class:`~repro.engine.cache.SubtreeArtifactCache`
keys) are re-exported here from :mod:`repro.analysis.fingerprint`,
their implementation home — the analysis context cannot import the
engine package without a cycle.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Tuple

# Re-exported: subtree fingerprints and shared-cache namespacing.
from ..analysis.fingerprint import (cache_namespace,  # noqa: F401
                                    node_fingerprints, subtree_fingerprint,
                                    workload_digest)
from ..arch import Architecture
from ..ir import Operator, Workload
from ..mapper.encoding import Genome

Signature = Tuple


def _operator_fingerprint(op: Operator) -> Tuple:
    def access_fp(access) -> Tuple:
        return (access.tensor.name, access.tensor.shape,
                access.tensor.word_bytes,
                tuple(repr(e) for e in access.exprs))

    return (op.name, op.kind, tuple(sorted(op.dims.items())),
            tuple(sorted(op.reduction_dims)), op.ops_per_point,
            tuple(access_fp(a) for a in op.inputs), access_fp(op.output))


def workload_fingerprint(workload: Workload) -> Signature:
    """Canonical identity of a workload (name, operators, tensors)."""
    return (workload.name,
            tuple(_operator_fingerprint(op) for op in workload.operators))


def arch_fingerprint(arch: Architecture) -> Signature:
    """Canonical identity of an architecture specification."""
    levels = tuple((lv.name, lv.capacity_bytes, lv.bandwidth_gbs, lv.fanout,
                    lv.read_energy_pj, lv.write_energy_pj)
                   for lv in arch.levels)
    return (arch.name, levels, arch.pe_count, arch.vector_pe_count,
            arch.frequency_ghz, arch.mac_energy_pj)


def genome_fingerprint(genome: Genome) -> Signature:
    return (tuple(genome.fuse_edges),
            tuple(b.value for b in genome.bindings))


def factors_fingerprint(factors: Mapping[str, int]) -> Signature:
    return tuple(sorted((str(k), int(v)) for k, v in factors.items()))


def mapping_signature(base: Signature, genome: Genome,
                      factors: Mapping[str, int]) -> Signature:
    """Cache key of one complete genome mapping.

    ``base`` is the engine's precomputed (workload, arch, model-config)
    prefix, shared by every key of one engine instance.
    """
    return (base, "genome", genome_fingerprint(genome),
            factors_fingerprint(factors))


def template_signature(base: Signature, template_token: str,
                       factors: Mapping[str, int]) -> Signature:
    """Cache key of one named-template mapping (``tune_template``)."""
    return (base, "template", template_token,
            factors_fingerprint(factors))


def digest(signature: Signature) -> str:
    """Stable 16-hex-char digest of any signature tuple."""
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:16]
