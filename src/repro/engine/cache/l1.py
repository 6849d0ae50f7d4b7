"""L1 of the tiered subtree artifact store: in-process bounded dicts.

:class:`LRUCache` is a thin :class:`collections.OrderedDict` wrapper with
move-to-end-on-hit semantics and a hard entry bound.  ``maxsize <= 0``
disables the cache entirely (every ``get`` misses, ``put`` is a no-op) so
callers can switch memoization off without branching at every call site.

:class:`SubtreeArtifactCache` holds per-*subtree* analysis artifacts
(slice geometry, NumPE demands, boundary-recursion volumes, validation
verdicts) that survive across ``evaluate()`` calls — the persistent half
of the incremental evaluation layer (docs/ARCHITECTURE.md).  Its probes
sit on the hottest path in the system (several dozen per candidate
evaluation), so entries live in plain per-``(namespace, kind)`` dicts
(:class:`KindStore`) that callers bind once and then probe with a single
``dict.get`` — no namespaced key tuples, no ordering bookkeeping per
hit.  The entry bound is global across stores.

Eviction is *segmented* (probationary/protected, an SLRU variant): every
insert lands in a store's probationary segment, a re-hit (reported via
:meth:`KindStore.touch`) promotes the entry to protected, and the victim
search drains probationary entries across all stores before it touches
protected ones.  High-reuse artifact kinds (``walkvol``, ``groupflows``)
therefore survive pressure from churny one-shot slice geometry, which the
old insertion-order policy evicted them to make room for.
``policy="insertion"`` keeps that old policy as the comparison point
of the eviction tests.

The cache optionally fronts two lower tiers (attached, not owned):

* **L2** — a cross-process shared read-mostly store
  (:class:`~repro.engine.cache.l2.SharedArtifactStore`) consulted on L1
  miss so ``tune_population`` pool workers stop recomputing subtrees
  their siblings already analysed.
* **L3** — disk-backed persistence
  (:class:`~repro.engine.cache.l3.DiskArtifactStore`) consulted after
  L2, and written back by :meth:`flush_l3`, so reruns warm-start.

Only :data:`TIERED_KINDS` travel through L2/L3: ``slices`` values hold
``(leaf, access)`` object pairs referencing live trees, so they stay
L1-only.  Tier-served values re-enter L1 through the normal insert path
(probationary) and are byte-identical to fresh computation — they are
exact ints/strings or floats pickled round-trip, never re-derived.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from ... import obs

__all__ = [
    "DEFAULT_SUBTREE_CACHE_SIZE",
    "TIERED_KINDS",
    "LRUCache",
    "KindStore",
    "SubtreeArtifactCache",
]


class LRUCache:
    """Least-recently-used mapping with a fixed capacity."""

    def __init__(self, maxsize: int = 4096):
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed as most-recently-used; None on miss."""
        if not self.enabled:
            self.misses += 1
            return None
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        if not self.enabled or value is None:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._data.clear()


#: Default bound for the subtree artifact cache.  Entries are small
#: (slice dicts, flow dicts, a few floats each); a search over a
#: handful of genomes visits a few thousand distinct subtrees.
DEFAULT_SUBTREE_CACHE_SIZE = 8192

#: Artifact kinds whose values are picklable pure data (exact ints,
#: strings, float tuples) and therefore safe to serve from the L2/L3
#: tiers byte-identically.  ``slices`` is deliberately absent: its
#: values carry ``(leaf, access)`` object pairs into live trees.
TIERED_KINDS = frozenset({"walkvol", "groupflows", "num_pe", "valid", "cov"})


class KindStore:
    """One ``(namespace, kind)`` family of the subtree artifact cache.

    ``data`` is the live entry dict — hot analysis loops bind a store
    once (via :meth:`AnalysisContext.shared_store
    <repro.analysis.context.AnalysisContext.shared_store>`) and probe it
    with ``store.data.get(key)`` directly, recording outcomes through
    :meth:`touch` (hit: counts and promotes probation → protected) /
    :meth:`miss_through` (miss: counts, then consults the L2/L3 tiers);
    :meth:`put` goes through the owner to maintain the cache-wide entry
    bound.  The bare :meth:`hit` / :meth:`miss` counter bumps remain for
    callers that track keys themselves.  ``None`` is not a storable
    value (it is the miss sentinel).

    Counter updates are guarded by the store's lock: the evaluation
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

    __slots__ = ("data", "probation", "kind", "namespace",
                 "hits", "misses", "evictions",
                 "l2_hits", "l3_hits", "lock", "_owner")

    def __init__(self, owner: "SubtreeArtifactCache", kind: str = "",
                 namespace: str = ""):
        self.data: Dict[Hashable, Any] = {}
        #: Keys inserted but not yet re-hit; always a subset of ``data``.
        #: A plain dict used as an insertion-ordered set.
        self.probation: Dict[Hashable, None] = {}
        #: Artifact family name; lets eviction be attributed per kind.
        self.kind = kind
        self.namespace = namespace
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: L1 misses served by the shared / disk tier (subset of
        #: ``misses`` — a tier hit still counts as an L1 miss, so the
        #: existing ``hits + misses == probe count`` invariants hold).
        self.l2_hits = 0
        self.l3_hits = 0
        self.lock = threading.Lock()
        self._owner = owner

    def hit(self, n: int = 1) -> None:
        """Record ``n`` hits (counter only; no promotion)."""
        with self.lock:
            self.hits += n

    def miss(self, n: int = 1) -> None:
        """Record ``n`` misses (counter only; no tier consultation)."""
        with self.lock:
            self.misses += n

    def touch(self, key: Hashable) -> None:
        """Record a hit on ``key`` and promote it out of probation."""
        with self.lock:
            self.hits += 1
            if self._owner.segmented:
                self.probation.pop(key, None)

    def miss_through(self, key: Hashable) -> Optional[Any]:
        """Record a miss on ``key``, then consult the lower tiers.

        Returns the tier-served value (re-admitted into L1) or ``None``
        when no tier holds it.  Kinds outside :data:`TIERED_KINDS` never
        reach the tiers.
        """
        with self.lock:
            self.misses += 1
        owner = self._owner
        if self.kind not in TIERED_KINDS:
            return None
        l2 = owner.l2
        if l2 is not None:
            value = l2.get(self.namespace, self.kind, key)
            if value is not None:
                with self.lock:
                    self.l2_hits += 1
                owner._admit(self, key, value)
                return value
        if owner.l3 is not None:
            value = owner._l3_lookup(self.namespace, self.kind, key)
            if value is not None:
                with self.lock:
                    self.l3_hits += 1
                owner._admit(self, key, value)
                if l2 is not None:
                    l2.put(self.namespace, self.kind, key, value)
                return value
        return None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert a freshly computed value (L1 + the shared L2 tier)."""
        owner = self._owner
        if value is None:
            return
        if owner.maxsize > 0:
            owner._admit(self, key, value)
        l2 = owner.l2
        if l2 is not None and self.kind in TIERED_KINDS:
            l2.put(self.namespace, self.kind, key, value)


class SubtreeArtifactCache:
    """Cross-evaluation cache of per-subtree analysis artifacts.

    Entries live in per-``(namespace, kind)`` :class:`KindStore` dicts:
    ``kind`` names the artifact family (``"slices"``, ``"num_pe"``,
    ``"walkvol"``, ``"groupflows"``, ``"valid"``, ``"cov"``) and the
    namespace pins the workload/architecture/model-flag combination
    (:func:`~repro.analysis.fingerprint.cache_namespace`).  Keys within
    a store are structural subtree fingerprints (or fingerprint-derived
    tuples) from :mod:`repro.analysis.fingerprint` — so a mapper move
    that leaves a sibling subtree untouched finds that subtree's
    artifacts here instead of recomputing them, across tree objects and
    across ``EvaluationEngine.evaluate*`` calls.

    Consumers must treat cached values as immutable.  The total entry
    count is bounded by ``maxsize``; the eviction policy is segmented
    (probation-first, see module docstring) unless constructed with
    ``policy="insertion"``.  Hit/miss counters live on the stores; the
    aggregate properties feed ``engine.subtree_hits`` /
    ``engine.subtree_misses``.  Tier hits are counted *in addition to*
    the L1 miss that triggered them, so ``hits + misses`` still equals
    the probe count and ``l2_hits + l3_hits <= misses``.
    """

    def __init__(self, maxsize: int = DEFAULT_SUBTREE_CACHE_SIZE,
                 policy: str = "segmented"):
        if policy not in ("segmented", "insertion"):
            raise ValueError(f"unknown eviction policy: {policy!r}")
        self.maxsize = int(maxsize)
        self.policy = policy
        self.segmented = policy == "segmented"
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
        #: Attached lower tiers (may be None; see attach_l2 / attach_l3).
        self.l2 = None
        self.l3 = None
        #: Lazily loaded on-disk shards, one dict per (namespace, kind).
        self._l3_entries: Dict[Tuple[str, str], Dict[Hashable, Any]] = {}
        self._l3_lock = threading.Lock()

    # -- tier attachment -------------------------------------------------

    def attach_l2(self, l2) -> None:
        """Front the cache with a cross-process shared store."""
        self.l2 = l2

    def attach_l3(self, l3) -> None:
        """Front the cache with a disk-persistent store."""
        self.l3 = l3
        with self._l3_lock:
            self._l3_entries.clear()

    def _l3_lookup(self, namespace: str, kind: str,
                   key: Hashable) -> Optional[Any]:
        """Probe the (lazily loaded) disk shard of one namespace/kind."""
        l3 = self.l3
        if l3 is None:
            return None
        shard_key = (namespace, kind)
        shard = self._l3_entries.get(shard_key)
        if shard is None:
            with self._l3_lock:
                shard = self._l3_entries.get(shard_key)
                if shard is None:
                    shard = l3.load(namespace, kind)
                    self._l3_entries[shard_key] = shard
        return shard.get(key)

    def flush_l3(self) -> Dict[str, int]:
        """Write tiered-kind entries back to the disk store.

        Merges the resident L1 entries with the loaded shard image (so a
        flush never shrinks a shard) and returns ``kind -> entries
        written``.  No-op without an attached L3.
        """
        l3 = self.l3
        if l3 is None:
            return {}
        written: Dict[str, int] = {}
        for (ns, kind), store in list(self._stores.items()):
            if kind not in TIERED_KINDS or not store.data:
                continue
            merged: Dict[Hashable, Any] = {}
            with self._l3_lock:
                loaded = self._l3_entries.get((ns, kind))
            if loaded:
                merged.update(loaded)
            with self.lock:
                merged.update(store.data)
            n = l3.flush(ns, kind, merged)
            written[kind] = written.get(kind, 0) + n
        return written

    # -- store access ----------------------------------------------------

    def store(self, namespace: str, kind: str) -> KindStore:
        """The (created-on-demand) store of one namespace/kind pair."""
        key = (namespace, kind)
        store = self._stores.get(key)
        if store is None:
            with self.lock:
                store = self._stores.get(key)
                if store is None:
                    store = self._stores[key] = KindStore(
                        self, kind, namespace)
        return store

    # -- insertion / eviction --------------------------------------------

    def _admit(self, store: KindStore, key: Hashable, value: Any) -> None:
        """Insert into L1 under the bound; new entries start probationary."""
        if self.maxsize <= 0 or value is None:
            return
        with self.lock:
            if key not in store.data:
                if self.total >= self.maxsize:
                    self._evict_one_locked(store)
                self.total += 1
                if self.segmented:
                    with store.lock:
                        store.probation[key] = None
            store.data[key] = value

    def evict_one(self, preferred: KindStore) -> None:
        """Drop one entry to make room (policy-directed victim choice)."""
        with self.lock:
            self._evict_one_locked(preferred)

    def _evict_one_locked(self, preferred: KindStore) -> None:
        """Eviction body; caller holds :attr:`lock`.

        Segmented policy: prefer probationary entries — first from the
        store being written, else from the store with the most
        probationary entries anywhere.  Only when no probation exists
        does a protected entry go (oldest of the preferred store).
        Insertion policy: the old behaviour — oldest entry of the
        preferred store, falling back to the largest store when the
        preferred one is empty (a fresh kind being inserted into a full
        cache).
        """
        victim = preferred
        if self.segmented and not victim.probation:
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

    def tier_counts(self, namespace: Optional[str] = None
                    ) -> Tuple[int, int]:
        """(l2_hits, l3_hits) — snapshot/diff pairs, as :meth:`counts`."""
        l2 = l3 = 0
        for (ns, _kind), s in list(self._stores.items()):
            if namespace is not None and ns != namespace:
                continue
            l2 += s.l2_hits
            l3 += s.l3_hits
        return l2, l3

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

    def tier_counts_by_kind(self, namespace: Optional[str] = None
                            ) -> Dict[str, Tuple[int, int]]:
        """``kind -> (l2_hits, l3_hits)``, as :meth:`counts_by_kind`."""
        out: Dict[str, Tuple[int, int]] = {}
        for (ns, kind), s in list(self._stores.items()):
            if namespace is not None and ns != namespace:
                continue
            l2, l3 = out.get(kind, (0, 0))
            out[kind] = (l2 + s.l2_hits, l3 + s.l3_hits)
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
        l2_hits, l3_hits = self.tier_counts()
        out = {"hits": self.hits, "misses": self.misses,
               "entries": len(self), "evictions": self.evictions,
               "policy": self.policy,
               "probationary": probationary, "protected": protected,
               "l2_hits": l2_hits, "l3_hits": l3_hits,
               "hits_by_kind": by_hits, "misses_by_kind": by_misses,
               "evictions_by_kind": self.evictions_by_kind()}
        if self.l2 is not None:
            out["l2"] = self.l2.stats()
        if self.l3 is not None:
            out["l3"] = {"root": str(self.l3.root)}
        return out

    # -- lifecycle -------------------------------------------------------

    def clear(self, drop_l3_mirror: bool = False) -> None:
        """Drop every resident L1 entry.

        Counters (hits/misses/evictions, tier hits, ``eviction_count``)
        deliberately survive: they are lifetime telemetry, and the
        engine's snapshot/diff attribution must not observe them moving
        backwards mid-evaluation.  Call :meth:`reset_counters` to zero
        them explicitly.  The loaded L3 shard images survive too (they
        mirror disk, which ``clear`` does not touch) unless
        ``drop_l3_mirror`` is set — subsequent probes then re-read disk.
        """
        with self.lock:
            for s in self._stores.values():
                with s.lock:
                    s.data.clear()
                    s.probation.clear()
            self.total = 0
        if drop_l3_mirror:
            with self._l3_lock:
                self._l3_entries.clear()

    def reset_counters(self) -> None:
        """Zero every hit/miss/eviction/tier counter (entries survive).

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
                    s.l2_hits = 0
                    s.l3_hits = 0
            self.eviction_count = 0
