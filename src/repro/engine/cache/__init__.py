"""Tiered subtree artifact store.

The persistent half of the incremental evaluation layer, split across
two tiers (each its own module, composed by
:class:`~repro.engine.cache.l1.SubtreeArtifactCache`):

* :mod:`~repro.engine.cache.l1` — in-process bounded dicts with
  segmented (probationary/protected) eviction; the lock-free hot path.
* :mod:`~repro.engine.cache.l3` — disk-backed schema-versioned shards
  keyed by namespace fingerprints; warm-starts reruns.

This package replaces the former flat ``engine/cache.py`` module; the
public surface (``KindStore``, ``SubtreeArtifactCache``,
``DEFAULT_SUBTREE_CACHE_SIZE``) is re-exported here.
"""

from .l1 import (DEFAULT_SUBTREE_CACHE_SIZE, TIERED_KINDS, KindStore,
                 SubtreeArtifactCache)
from .l3 import L3_SCHEMA, DiskArtifactStore

__all__ = [
    "DEFAULT_SUBTREE_CACHE_SIZE",
    "L3_SCHEMA",
    "TIERED_KINDS",
    "KindStore",
    "SubtreeArtifactCache",
    "DiskArtifactStore",
]
