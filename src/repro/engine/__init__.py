"""Evaluation engine: pre-screened, incremental, parallel mapping evaluation.

The engine sits between the mapper's search loops (GA + MCTS,
``tune_template``) and the analytical model.  See
``docs/PERFORMANCE.md`` for the signature scheme, cache semantics, the
determinism contract, and guidance on picking ``--workers``.
"""

from .cache import DEFAULT_SUBTREE_CACHE_SIZE, SubtreeArtifactCache
from .core import EngineStats, EvaluationEngine, GenomePlan
from .prescreen import (PRESCREEN_TAG, is_prescreened, prescreen,
                        rejected_result)
from .signature import (arch_fingerprint, cache_namespace, digest,
                        factors_fingerprint, genome_fingerprint,
                        mapping_signature, node_fingerprints,
                        subtree_fingerprint, template_signature,
                        workload_digest, workload_fingerprint)

__all__ = [
    "EvaluationEngine", "EngineStats", "GenomePlan",
    "SubtreeArtifactCache", "DEFAULT_SUBTREE_CACHE_SIZE",
    "prescreen", "rejected_result", "is_prescreened",
    "PRESCREEN_TAG",
    "mapping_signature", "template_signature", "workload_fingerprint",
    "arch_fingerprint", "genome_fingerprint", "factors_fingerprint",
    "digest",
    "node_fingerprints", "subtree_fingerprint", "workload_digest",
    "cache_namespace",
]
