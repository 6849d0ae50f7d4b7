"""Unit tests for the subtree artifact cache.

Covers the contracts the cache leans on:

* **Segmented eviction** — promotion on re-hit protects high-reuse
  entries; probationary churn is evicted first, so a hot set survives
  repeated bursts of one-shot entries.
* **Counter lifecycle** — ``clear()`` drops entries but keeps lifetime
  counters (documented semantics); ``reset_counters()`` zeroes them;
  multi-threaded hammering leaves the counters and the entry bound
  exact.
* **Workers** — ``tune_population`` workers run on private caches and
  reproduce the serial champions.
"""

import random
import threading

from repro import arch as arch_mod
from repro.engine import EvaluationEngine
from repro.engine.cache import SubtreeArtifactCache
from repro.mapper import Genome
from repro.workloads import self_attention

WL = self_attention(2, 32, 64, expand_softmax=False)
SPEC = arch_mod.edge()
NS = "testns|Edge#2|e1r1"


# ----------------------------------------------------------------------
# L1: segmented eviction
# ----------------------------------------------------------------------
def test_promotion_protects_entries_from_churn():
    cache = SubtreeArtifactCache(4)
    hot = cache.store(NS, "walkvol")
    hot.put("h1", 1)
    hot.touch("h1")  # re-hit -> protected
    churn = cache.store(NS, "slices")
    for i in range(20):
        churn.put(f"s{i}", i)
    assert "h1" in hot.data
    assert cache.total == 4
    assert hot.evictions == 0
    assert cache.evictions_by_kind() == {"slices": 17}


def test_probation_evicted_before_protected_within_store():
    cache = SubtreeArtifactCache(3)
    s = cache.store(NS, "walkvol")
    s.put("a", 1)
    s.put("b", 2)
    s.put("c", 3)
    s.touch("a")  # protect the oldest
    s.put("d", 4)  # bound hit: a probationary entry must go, not "a"
    assert "a" in s.data
    assert "b" not in s.data
    assert set(s.data) == {"a", "c", "d"}


def _churn_workload(cache, reuse_keys=8, churn_keys=400, rounds=2, passes=2):
    """A reuse-heavy working set under one-shot churn in the same store.

    Each round re-probes a small hot set ``passes`` times (the access
    shape of walkvol/groupflows on shared subtrees: probed repeatedly
    within and across evaluations), then inserts a burst of distinct
    one-shot fingerprints.  Returns the store's (hits, misses,
    evictions) — the hot set is the oldest entry family every round,
    so only promotion keeps it from being expelled.
    """
    store = cache.store(NS, "walkvol")
    serial = 0
    for _ in range(rounds + 1):
        for _probe_pass in range(passes):
            for k in range(reuse_keys):
                key = f"hot{k}"
                if store.data.get(key) is None:
                    store.miss()
                    store.put(key, k)
                else:
                    store.touch(key)
        for _ in range(churn_keys):
            store.put(f"c{serial}", serial)
            serial += 1
    return store.hits, store.misses, store.evictions


def test_segmented_keeps_hot_set_under_pressure():
    """A promoted hot set survives every later burst of churn at a
    small bound: only one-shot entries are evicted."""
    cache = SubtreeArtifactCache(64)
    hits, misses, evictions = _churn_workload(cache)
    # Once promoted (the second probe pass of round one), the hot set
    # misses exactly once, ever.
    assert misses == 8
    assert hits == 8 * 6 - 8
    store = cache.store(NS, "walkvol")
    assert all(f"hot{k}" in store.data for k in range(8))
    assert evictions == 8 + 3 * 400 - 64


# ----------------------------------------------------------------------
# counter lifecycle (the satellite bug fix)
# ----------------------------------------------------------------------
def test_clear_keeps_counters_reset_counters_zeroes_them():
    cache = SubtreeArtifactCache(4)
    s = cache.store(NS, "walkvol")
    s.put("a", 1)
    s.touch("a")
    s.miss()
    for i in range(9):
        s.put(f"x{i}", i)  # force evictions
    assert cache.eviction_count > 0
    ev_before = cache.eviction_count

    cache.clear()
    # clear() empties entries but documents that lifetime counters
    # survive (snapshot/diff attribution must not move backwards).
    assert cache.total == 0 and len(s.data) == 0 and not s.probation
    assert s.hits == 1 and s.misses == 1
    assert cache.eviction_count == ev_before
    assert s.evictions == ev_before

    cache.reset_counters()
    assert (s.hits, s.misses, s.evictions) == (0, 0, 0)
    assert cache.eviction_count == 0
    # entries (none here) would have survived: reset is counters-only.
    assert cache.counts() == (0, 0)


def test_multithread_hammer_keeps_tier_counters_exact():
    """The hammer: concurrent touch/miss/put from many threads on a
    bounded cache leaves hits and misses exactly equal to what the
    threads observed, and the entry count and eviction total exact."""
    cache = SubtreeArtifactCache(64)
    store = cache.store(NS, "walkvol")
    threads, per_thread = 8, 600
    seen_hits = [0] * threads
    seen_misses = [0] * threads

    def hammer(tid):
        rng = random.Random(tid)
        for _ in range(per_thread):
            key = ("k", rng.randrange(128))
            if store.data.get(key) is None:
                seen_misses[tid] += 1
                store.miss()
                store.put(key, key[1])
            else:
                seen_hits[tid] += 1
                store.touch(key)

    workers = [threading.Thread(target=hammer, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()

    assert store.hits + store.misses == threads * per_thread
    assert store.hits == sum(seen_hits)
    assert store.misses == sum(seen_misses)
    assert cache.total == len(store.data) == 64
    assert set(store.probation) <= set(store.data)
    assert cache.eviction_count == store.evictions > 0


def test_workers_match_serial_champions_without_shared_tier():
    rng = random.Random(5)
    genomes = [Genome.random(WL, rng) for _ in range(4)]
    seeds = [100 + i for i in range(len(genomes))]

    with EvaluationEngine(WL, SPEC, workers=1) as serial:
        expected = serial.tune_population(genomes, seeds, samples=6)

    with EvaluationEngine(WL, SPEC, workers=2) as parallel:
        got = parallel.tune_population(genomes, seeds, samples=6)
        assert parallel.stats.parallel_tasks == len(genomes)
        # Workers tune on private caches: nothing reaches the parent's.
        assert len(parallel.subtree_cache) == 0
        assert parallel.stats.subtree_l2_hits == 0
    assert got == expected

