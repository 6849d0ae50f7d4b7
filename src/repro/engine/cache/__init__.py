"""The subtree artifact store.

The persistent half of the incremental evaluation layer: one in-process
tier of bounded per-kind dicts with segmented (probationary/protected)
eviction (:mod:`~repro.engine.cache.l1`), holding slice geometry
(``slices``) and boundary-recursion volumes (``walkvol``).

This package replaces the former flat ``engine/cache.py`` module; the
public surface (``KindStore``, ``SubtreeArtifactCache``,
``DEFAULT_SUBTREE_CACHE_SIZE``) is re-exported here.
"""

from .l1 import DEFAULT_SUBTREE_CACHE_SIZE, KindStore, SubtreeArtifactCache

__all__ = [
    "DEFAULT_SUBTREE_CACHE_SIZE",
    "KindStore",
    "SubtreeArtifactCache",
]
