"""The subtree artifact cache: in-process bounded dicts.

:class:`SubtreeArtifactCache` holds per-*subtree* analysis artifacts
(slice geometry and boundary-recursion volumes) that survive across
``evaluate()`` calls — the persistent half of the incremental
evaluation layer (docs/ARCHITECTURE.md).  Its probes sit on the hottest
path in the system (several dozen per candidate evaluation), so entries
live in plain per-``(namespace, kind)`` dicts (:class:`KindStore`) that
callers bind once and then probe with a single ``dict.get`` — no
namespaced key tuples, no ordering bookkeeping per hit.  The entry
bound is global across stores.

Eviction is *segmented* (probationary/protected, an SLRU variant): every
insert lands in a store's probationary segment, a re-hit (reported via
:meth:`KindStore.touch`) promotes the entry to protected, and the victim
search drains probationary entries across all stores before it touches
protected ones, so high-reuse entries survive pressure from churny
one-shot slice geometry.  ``tune_population`` pool workers each run on
their own cache and share nothing.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Optional, Tuple

from ... import obs

__all__ = [
    "DEFAULT_SUBTREE_CACHE_SIZE",
    "KindStore",
    "SubtreeArtifactCache",
]


#: Default bound for the subtree artifact cache.  Entries are small
#: (slice dicts, flow dicts, a few floats each); a search over a
#: handful of genomes visits a few thousand distinct subtrees.
DEFAULT_SUBTREE_CACHE_SIZE = 8192


class KindStore:
    """One ``(namespace, kind)`` family of the subtree artifact cache.

    ``data`` is the live entry dict — hot analysis loops bind a store
    once (via :meth:`AnalysisContext.shared_store
    <repro.analysis.context.AnalysisContext.shared_store>`) and probe it
    with ``store.data.get(key)`` directly, recording outcomes through
    :meth:`touch` (hit: counts and promotes probation → protected) /
    :meth:`miss` (counts); :meth:`put` goes through the owner to
    maintain the cache-wide entry bound.  ``None`` is not a storable
    value (it is the miss sentinel).

    Hit/miss updates are guarded by the store's lock: the evaluation
    service probes one shared cache from several worker threads at
    once, and un-guarded ``+=`` read-modify-write cycles would lose
    increments — ``GET /stats`` and the ``== incremental analysis ==``
    profile section must stay exact.  The lock is uncontended in
    single-threaded use and costs well under a microsecond per probe.

    Lock order is owner.lock → store.lock, never the reverse:
    ``probation`` membership changes take the store lock; ``data``
    membership / ``owner.total`` / eviction bookkeeping take the owner
    lock (and may then take a victim's store lock).
    """

    __slots__ = ("data", "probation", "kind",
                 "hits", "misses", "evictions", "lock", "_owner")

    def __init__(self, owner: "SubtreeArtifactCache", kind: str = ""):
        self.data: Dict[Hashable, Any] = {}
        #: Keys inserted but not yet re-hit; always a subset of ``data``.
        #: A plain dict used as an insertion-ordered set.
        self.probation: Dict[Hashable, None] = {}
        #: Artifact family name; lets eviction be attributed per kind.
        self.kind = kind
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lock = threading.Lock()
        self._owner = owner

    def hit(self, n: int = 1) -> None:
        """Record ``n`` hits (counter only; no promotion)."""
        with self.lock:
            self.hits += n

    def miss(self, n: int = 1) -> None:
        """Record ``n`` misses."""
        with self.lock:
            self.misses += n

    def touch(self, key: Hashable) -> None:
        """Record a hit on ``key`` and promote it out of probation."""
        with self.lock:
            self.hits += 1
            self.probation.pop(key, None)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a freshly computed value."""
        self._owner._admit(self, key, value)


class SubtreeArtifactCache:
    """Cross-evaluation cache of per-subtree analysis artifacts.

    Entries live in per-``(namespace, kind)`` :class:`KindStore` dicts:
    ``kind`` names the artifact family (``"slices"`` or ``"walkvol"``)
    and the namespace pins the workload/architecture/model-flag combination
    (:func:`~repro.analysis.fingerprint.cache_namespace`).  Keys within
    a store are structural subtree fingerprints (or fingerprint-derived
    tuples) from :mod:`repro.analysis.fingerprint` — so a mapper move
    that leaves a sibling subtree untouched finds that subtree's
    artifacts here instead of recomputing them, across tree objects and
    across ``EvaluationEngine.evaluate*`` calls.

    Consumers must treat cached values as immutable.  The total entry
    count is bounded by ``maxsize``; eviction is segmented
    (probation-first, see module docstring).  Hit/miss counters live on
    the stores; the aggregate properties feed ``engine.subtree_hits`` /
    ``engine.subtree_misses``.
    """

    def __init__(self, maxsize: int = DEFAULT_SUBTREE_CACHE_SIZE):
        self.maxsize = int(maxsize)
        self.total = 0
        #: Running eviction total (cheap int; avoids store iteration on
        #: the engine's per-evaluation snapshot/diff path).
        self.eviction_count = 0
        #: Guards store creation, inserts, and evictions (``total`` /
        #: ``eviction_count`` / per-store ``evictions`` and ``data``
        #: membership changes).  Entry *reads* stay lock-free:
        #: ``dict.get`` is atomic under the GIL and cached values are
        #: immutable by contract.
        self.lock = threading.Lock()
        self._stores: Dict[Tuple[str, str], KindStore] = {}

    # -- store access ----------------------------------------------------

    def store(self, namespace: str, kind: str) -> KindStore:
        """The (created-on-demand) store of one namespace/kind pair."""
        key = (namespace, kind)
        store = self._stores.get(key)
        if store is None:
            with self.lock:
                store = self._stores.get(key)
                if store is None:
                    store = self._stores[key] = KindStore(self, kind)
        return store

    # -- insertion / eviction --------------------------------------------

    def _admit(self, store: KindStore, key: Hashable, value: Any) -> None:
        """Insert under the bound; new entries start probationary."""
        if self.maxsize <= 0 or value is None:
            return
        with self.lock:
            if key not in store.data:
                if self.total >= self.maxsize:
                    self._evict_one_locked(store)
                self.total += 1
                with store.lock:
                    store.probation[key] = None
            store.data[key] = value

    def _evict_one_locked(self, preferred: KindStore) -> None:
        """Eviction body; caller holds :attr:`lock`.

        Prefer probationary entries — first from the store being
        written, else from the store with the most probationary entries
        anywhere.  Only when no probation exists does a protected entry
        go: the oldest of the preferred store, or of the largest store
        when the preferred one is empty (a fresh kind being inserted
        into a full cache).
        """
        victim = preferred
        if not victim.probation:
            candidates = [s for s in self._stores.values() if s.probation]
            if candidates:
                victim = max(candidates, key=lambda s: len(s.probation))
        if not victim.data:
            victim = max(self._stores.values(), key=lambda s: len(s.data))
            if not victim.data:  # pragma: no cover - maxsize == 0 guard
                return
        with victim.lock:
            if victim.probation:
                key = next(iter(victim.probation))
                victim.probation.pop(key, None)
            else:
                key = next(iter(victim.data))
            victim.data.pop(key, None)
        victim.evictions += 1
        self.eviction_count += 1
        self.total -= 1
        # Evictions are orders of magnitude rarer than probes, so the
        # per-kind profile counter can live here rather than on a
        # snapshot/diff path.
        obs.count(f"engine.subtree_evictions.{victim.kind}")

    # -- aggregate counters ----------------------------------------------

    @property
    def hits(self) -> int:
        return sum(s.hits for s in list(self._stores.values()))

    @property
    def misses(self) -> int:
        return sum(s.misses for s in list(self._stores.values()))

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in list(self._stores.values()))

    def __len__(self) -> int:
        return self.total

    def counts(self, namespace: Optional[str] = None) -> Tuple[int, int]:
        """(hits, misses) — snapshot/diff pairs for per-call attribution.

        ``namespace`` restricts the sum to one workload/arch family so
        an engine sharing this cache with concurrently-running engines
        (the evaluation service) attributes only its *own* probes.
        """
        hits = misses = 0
        for (ns, _kind), s in list(self._stores.items()):
            if namespace is not None and ns != namespace:
                continue
            hits += s.hits
            misses += s.misses
        return hits, misses

    def evictions_by_kind(self) -> Dict[str, int]:
        """Eviction totals attributed per artifact kind (all namespaces)."""
        out: Dict[str, int] = {}
        for (_ns, kind), s in list(self._stores.items()):
            if s.evictions:
                out[kind] = out.get(kind, 0) + s.evictions
        return out

    def counts_by_kind(self, namespace: Optional[str] = None
                       ) -> Dict[str, Tuple[int, int, int]]:
        """``kind -> (hits, misses, evictions)`` — per-evaluation event
        deltas diff two of these snapshots (optionally scoped to one
        namespace, as :meth:`counts`)."""
        out: Dict[str, Tuple[int, int, int]] = {}
        for (ns, kind), s in list(self._stores.items()):
            if namespace is not None and ns != namespace:
                continue
            h, m, e = out.get(kind, (0, 0, 0))
            out[kind] = (h + s.hits, m + s.misses, e + s.evictions)
        return out

    def stats(self) -> Dict[str, Any]:
        by_hits: Dict[str, int] = {}
        by_misses: Dict[str, int] = {}
        protected = 0
        probationary = 0
        for (_ns, kind), s in list(self._stores.items()):
            by_hits[kind] = by_hits.get(kind, 0) + s.hits
            by_misses[kind] = by_misses.get(kind, 0) + s.misses
            probationary += len(s.probation)
            protected += len(s.data) - len(s.probation)
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self), "evictions": self.evictions,
                "probationary": probationary, "protected": protected,
                "hits_by_kind": by_hits, "misses_by_kind": by_misses,
                "evictions_by_kind": self.evictions_by_kind()}

    # -- lifecycle -------------------------------------------------------

    def clear(self) -> None:
        """Drop every resident entry.

        Counters (hits/misses/evictions, ``eviction_count``)
        deliberately survive: they are lifetime telemetry, and the
        engine's snapshot/diff attribution must not observe them moving
        backwards mid-evaluation.  Call :meth:`reset_counters` to zero
        them explicitly.
        """
        with self.lock:
            for s in self._stores.values():
                with s.lock:
                    s.data.clear()
                    s.probation.clear()
            self.total = 0

    def reset_counters(self) -> None:
        """Zero every hit/miss/eviction counter (entries survive).

        The counterpart of :meth:`clear` for the counter half of the
        cache's state; ``POST /admin/cache/clear`` uses both to return a
        service to a truly cold-and-quiet baseline.
        """
        with self.lock:
            for s in self._stores.values():
                with s.lock:
                    s.hits = 0
                    s.misses = 0
                    s.evictions = 0
            self.eviction_count = 0
