"""The evaluation service: persistent engines behind a job queue.

:class:`EvaluationService` is the long-lived core ``repro serve``
exposes over HTTP: a pool of worker threads executes ``evaluate`` /
``search`` / ``sweep`` jobs against the registry workloads and
architectures, all on *persistent* :class:`~repro.engine.EvaluationEngine`
instances — one per (workload, arch) pair — that share a single
:class:`~repro.engine.cache.SubtreeArtifactCache`.  The artifacts one
job computes (the ``slices`` and ``walkvol`` kinds) stay resident and
warm every later job touching the same subtrees; the cache's
namespacing by workload/arch/model-flag fingerprints keeps artifact
families apart, and each engine's hit/miss attribution is scoped to its
own namespace, so per-job counter deltas are exact even while jobs on
*different* engines run concurrently.

Each engine's slot (:class:`EngineSlot`) also keeps, per dataflow, the
tree and the :class:`~repro.analysis.metrics.EvaluationResult` of the
first job that named it, and the ledger run id of the first ``evaluate``
job that recorded it.  The §5 model is a deterministic function of the
tree and the architecture, so later ``evaluate`` jobs and ``sweep`` rows
on that slot reuse the kept result and skip the engine: they report a
zero counter delta and the lookup's ``wall_s``.  A repeat ``evaluate``
job carries its slot's first run id and writes no manifest.  The
registry bounds slots × dataflows, so the kept results need no size
bound.  ``POST /admin/cache/clear`` drops them and their run ids
together with the shared cache, so the next job runs cold and records
a new run.

Each job runs with a **thread-local event bus** (a
:class:`~repro.obs.events.CallbackSink` appending to the job's buffer),
so concurrent jobs produce isolated, in-order event streams framed by
``run.start``/``run.end`` — the same event records a CLI ``--trace``
file carries, streamed live by ``GET /jobs/<id>/events``.  A job
stream holds only ``run``, ``search`` and ``cache`` events: spans and
counters go to the process-global bus, which ``repro serve --trace``
installs.

Each search job, and each slot's first ``evaluate`` job of a dataflow,
is persisted to the run ledger (``runs/<id>/manifest.json``) through
the same manifest builders the CLI uses, so ``repro runs list|show|diff``
and ``repro explain --run`` consume service output unchanged.  The
ledger grows by first evaluations and search jobs only.

Lifecycle: :meth:`begin_drain` stops admissions (the HTTP layer then
answers 503 + ``Retry-After``), in-flight jobs run to completion,
:meth:`wait_drained` blocks until the queue is empty, and :meth:`stop`
joins the workers and shuts the engines down.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import arch as arch_mod
from .. import obs
from .. import workloads as workloads_mod
from ..analysis.metrics import EvaluationResult
from ..dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS, dataflow_for,
                         dataflow_names)
from ..engine import EvaluationEngine
from ..engine.cache import DEFAULT_SUBTREE_CACHE_SIZE, SubtreeArtifactCache
from ..engine.manifest import evaluate_run_manifest, search_run_manifest
from ..errors import TileFlowError
from ..mapper import TileFlowMapper
from ..obs import events as events_mod
from ..obs import ledger as ledger_mod
from ..tile.tree import AnalysisTree
from .jobs import Job, JobQueue

#: Per-kind hard bounds on search effort a single HTTP job may request
#: (the service is long-lived and shared; a runaway spec must not pin a
#: worker for hours).
MAX_GENERATIONS = 64
MAX_POPULATION = 64
MAX_SAMPLES = 2000


#: Registry workload name -> its dataflow family, read off the shape
#: tables so that validating a spec builds no workload.
_REGISTRY_DATAFLOWS: Dict[str, Tuple[str, ...]] = {
    **{name: tuple(ATTENTION_DATAFLOWS)
       for name in workloads_mod.ATTENTION_SHAPES},
    **{name: tuple(CONV_DATAFLOWS)
       for name in workloads_mod.CONV_CHAIN_SHAPES},
}


class SpecError(ValueError):
    """A job spec that cannot be executed (HTTP 400 at the API layer)."""


def _positive(spec: Dict[str, Any], key: str, default: int,
              bound: int) -> int:
    try:
        value = int(spec.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise SpecError(f"spec field {key!r} must be an integer")
    if not 1 <= value <= bound:
        raise SpecError(f"spec field {key!r} must be in [1, {bound}]")
    return value


class EngineSlot:
    """One persistent engine, the lock its jobs run under, and its
    dataflow trees and their evaluation results, each made once on
    first use, with the ledger run id that recorded each result.  The
    registry bounds how many there can be.  Read and fill
    :attr:`trees`, :attr:`results` and :attr:`run_ids` only under
    :attr:`lock`."""

    __slots__ = ("engine", "lock", "trees", "results", "run_ids")

    def __init__(self, engine: EvaluationEngine):
        self.engine = engine
        self.lock = threading.Lock()
        self.trees: Dict[str, AnalysisTree] = {}
        self.results: Dict[str, EvaluationResult] = {}
        #: Dataflow -> the ledger run of the first evaluate job that
        #: recorded its kept result (absent until one is written).
        self.run_ids: Dict[str, str] = {}

    def result(self, dataflow: str) -> EvaluationResult:
        """The engine's evaluation of named dataflow ``dataflow``: run
        on the first call and kept.  Callers copy scalars out of it and
        never change it."""
        result = self.results.get(dataflow)
        if result is None:
            with obs.span("serve.tree", "serve"):
                tree = self.trees.get(dataflow)
                if tree is None:
                    tree = self.trees[dataflow] = dataflow_for(
                        self.engine.workload, dataflow, self.engine.arch)
            result = self.results[dataflow] = self.engine.evaluate_tree(
                tree)
        return result


class EvaluationService:
    """Job queue + worker threads around persistent, cache-warm engines.

    Parameters
    ----------
    workers:
        Worker *threads* executing jobs (engines themselves stay at one
        process each; determinism is per-engine, serialized by a
        per-engine lock).
    max_queue:
        Pending-job bound; submissions beyond it raise ``QueueFull``
        (HTTP 429).
    ledger_root:
        Run-ledger directory for completed jobs; ``None`` disables
        persistence.
    subtree_cache_size:
        Entry bound of the shared cross-job artifact cache (``0`` keeps
        nothing).
    """

    def __init__(self, workers: int = 2, max_queue: int = 64,
                 ledger_root: Optional[str] = None,
                 subtree_cache_size: int = DEFAULT_SUBTREE_CACHE_SIZE):
        # Each of these would build a service that refuses every job or
        # silently runs other than asked.
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if subtree_cache_size < 0:
            raise ValueError(f"subtree_cache_size must be >= 0, got "
                             f"{subtree_cache_size}")
        self.workers = int(workers)
        self.queue = JobQueue(max_queue=max_queue)
        self.ledger = (ledger_mod.RunLedger(ledger_root)
                       if ledger_root else None)
        #: One artifact store shared by every engine the service owns.
        self.subtree_cache = SubtreeArtifactCache(subtree_cache_size)
        self.started = time.time()
        self._lock = threading.Lock()
        self._engines: Dict[Tuple[str, str], EngineSlot] = {}
        self._threads: List[threading.Thread] = []
        self._draining = False
        self._stopped = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "EvaluationService":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            for i in range(self.workers):
                t = threading.Thread(target=self._worker_loop,
                                     name=f"serve-worker-{i}", daemon=True)
                t.start()
                self._threads.append(t)
        return self

    def begin_drain(self) -> None:
        """Refuse new submissions; let queued/running jobs finish."""
        self._draining = True
        self.queue.close()

    @property
    def draining(self) -> bool:
        return self._draining

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is pending or running (True on success)."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while not self.queue.drained():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def stop(self, timeout: float = 10.0) -> None:
        """Drain, join the workers, and shut the engines down."""
        self.begin_drain()
        for t in self._threads:
            t.join(timeout)
        with self._lock:
            slots = list(self._engines.values())
        for slot in slots:
            slot.engine.shutdown()
        self._stopped = True

    # -- submission ------------------------------------------------------
    def submit(self, kind: str, spec: Dict[str, Any]) -> Job:
        """Validate ``spec`` and enqueue it; raises :class:`SpecError`,
        ``QueueFull``, or ``QueueClosed``."""
        with obs.span("serve.validate", "serve"):
            normalized = self.validate_spec(kind, spec)
        return self.queue.submit(kind, normalized)

    def validate_spec(self, kind: str,
                      spec: Dict[str, Any]) -> Dict[str, Any]:
        """Resolve registry names eagerly so bad requests fail at submit
        time (HTTP 400), not inside a worker.

        Names are looked up in the shape tables and the preset registry
        without building anything; only a name missing there goes
        through ``by_name``, whose ``KeyError`` text (listing the known
        names) becomes the error.
        """
        if not isinstance(spec, dict):
            raise SpecError("spec must be a JSON object")
        out = dict(spec)
        workload_name = str(spec.get("workload", ""))
        known = _REGISTRY_DATAFLOWS.get(workload_name)
        if known is None:
            try:
                known = dataflow_names(workloads_mod.by_name(workload_name))
            except KeyError as exc:
                raise SpecError(_key_error_text(exc))
        out["workload"] = workload_name
        arch_name = str(spec.get("arch", "edge"))
        if arch_name.lower() not in arch_mod.PRESETS:
            try:
                arch_mod.by_name(arch_name)
            except KeyError as exc:
                raise SpecError(_key_error_text(exc))
        out["arch"] = arch_name
        if kind == "evaluate":
            name = spec.get("dataflow")
            if name not in known:
                raise SpecError(f"unknown dataflow {name!r} for workload "
                                f"{out['workload']!r}; choose from "
                                f"{list(known)}")
        elif kind == "sweep":
            names = spec.get("dataflows") or list(known)
            if not isinstance(names, list):
                raise SpecError("spec field 'dataflows' must be a list")
            bad = [n for n in names if n not in known]
            if bad:
                raise SpecError(f"unknown dataflows {bad} for workload "
                                f"{out['workload']!r}; choose from "
                                f"{list(known)}")
            out["dataflows"] = [str(n) for n in names]
        elif kind == "search":
            out["generations"] = _positive(spec, "generations", 3,
                                           MAX_GENERATIONS)
            out["population"] = _positive(spec, "population", 6,
                                          MAX_POPULATION)
            out["samples"] = _positive(spec, "samples", 10, MAX_SAMPLES)
            try:
                out["seed"] = int(spec.get("seed", 0))
            except (TypeError, ValueError, OverflowError):
                raise SpecError("spec field 'seed' must be an integer")
        return out

    # -- engines ---------------------------------------------------------
    def engine_for(self, workload_name: str, arch_name: str) -> EngineSlot:
        """The persistent engine (with its job lock and trees) for one
        registry (workload, arch) pair, built on first use over the
        shared artifact cache."""
        key = (workload_name, arch_name.lower())
        with self._lock:
            slot = self._engines.get(key)
            if slot is None:
                slot = self._engines[key] = EngineSlot(EvaluationEngine(
                    workloads_mod.by_name(workload_name),
                    arch_mod.by_name(arch_name),
                    subtree_cache=self.subtree_cache))
            return slot

    # -- worker loop -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.claim()
            if job is None:
                return
            try:
                result = self._execute(job)
            except TileFlowError as exc:
                self.queue.fail(job, str(exc))
            except Exception as exc:  # noqa: BLE001 - job isolation
                self.queue.fail(job, f"{type(exc).__name__}: {exc}")
            else:
                self.queue.finish(job, result)

    def _execute(self, job: Job) -> Dict[str, Any]:
        """Run one claimed job under its own thread-local event bus."""
        bus = events_mod.EventBus(
            [events_mod.CallbackSink(
                lambda event: job.append_event(event.to_json()))])
        events_mod.enable(bus, local=True)
        start = time.perf_counter()
        outcome = "error"
        try:
            bus.emit("run.start", command=job.kind,
                     label=str(job.spec.get("workload", "")))
            if job.kind == "evaluate":
                result = self._run_evaluate(job)
            elif job.kind == "search":
                result = self._run_search(job)
            else:
                result = self._run_sweep(job)
            outcome = "ok"
            job.run_id = result["run_id"]
            return result
        finally:
            bus.emit("run.end", command=job.kind, outcome=outcome,
                     wall_s=time.perf_counter() - start)
            events_mod.disable(local=True)
            bus.close()

    def _record(self, job: Job, manifest_of) -> Optional[str]:
        """Persist a completed job as a ledger run and return its id
        (``None`` when the service keeps no ledger).

        A search job calls it after the engine lock is released: a
        manifest reads only the engine's digests and configuration, and
        the run id is unique per job.  An evaluate job calls it under
        the slot lock, and only while its kept result has no run id, so
        two jobs of one spec never both write; a ``LedgerError`` fails
        the job and leaves no run id kept.
        """
        if self.ledger is None:
            return None
        with obs.span("serve.record", "serve"):
            run_id = self.ledger.new_run_id(
                salt=f"{job.spec.get('workload')}-{job.id}")
            self.ledger.record(manifest_of(run_id))
        return run_id

    def _run_evaluate(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        slot = self.engine_for(spec["workload"], spec["arch"])
        engine = slot.engine
        with slot.lock:
            before = engine.stats.to_dict()
            start = time.perf_counter()
            with obs.span("serve.evaluate", "serve"):
                result = slot.result(spec["dataflow"])
            wall_s = time.perf_counter() - start
            counters = _delta(before, engine.stats.to_dict())
            run_id = slot.run_ids.get(spec["dataflow"])
            if run_id is None:
                run_id = self._record(job, lambda rid: evaluate_run_manifest(
                    run_id=rid, engine=engine, dataflow=spec["dataflow"],
                    result=result, wall_s=wall_s, counters=counters,
                    extra={"job": job.id}))
                if run_id is not None:
                    slot.run_ids[spec["dataflow"]] = run_id
        return {
            "workload": spec["workload"], "arch": spec["arch"],
            "dataflow": spec["dataflow"],
            "latency_cycles": events_mod.jsonable_cost(
                result.latency_cycles),
            "energy_pj": events_mod.jsonable_cost(result.energy_pj),
            "cost": events_mod.jsonable_cost(engine.cost_of(result)),
            "feasible": bool(result.feasible),
            "wall_s": wall_s, "counters": counters, "run_id": run_id,
        }

    def _run_search(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        slot = self.engine_for(spec["workload"], spec["arch"])
        engine = slot.engine
        with slot.lock:
            mapper = TileFlowMapper(engine.workload, engine.arch,
                                    seed=spec["seed"], engine=engine)
            before = engine.stats.to_dict()
            start = time.perf_counter()
            result = mapper.explore(generations=spec["generations"],
                                    population=spec["population"],
                                    mcts_samples=spec["samples"])
            wall_s = time.perf_counter() - start
            counters = _delta(before, engine.stats.to_dict())
        champion = {
            "cost": events_mod.jsonable_cost(result.best_cost),
            "signature": engine.mapping_digest(result.best_genome,
                                               result.best_factors),
            "genome": result.best_genome.describe(engine.workload),
            "factors": dict(result.best_factors),
        }
        run_id = self._record(job, lambda rid: search_run_manifest(
            run_id=rid, engine=engine, result=result,
            generations=spec["generations"],
            population=spec["population"], samples=spec["samples"],
            workers=1, seed=spec["seed"], wall_s=wall_s,
            counters=counters, extra={"job": job.id}))
        return {
            "workload": spec["workload"], "arch": spec["arch"],
            "champion": champion,
            "trace": [events_mod.jsonable_cost(c) for c in result.trace],
            "wall_s": wall_s, "counters": counters, "run_id": run_id,
        }

    def _run_sweep(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        slot = self.engine_for(spec["workload"], spec["arch"])
        engine = slot.engine
        names = spec.get("dataflows") or list(
            dataflow_names(engine.workload))
        rows: List[Dict[str, Any]] = []
        with slot.lock:
            before = engine.stats.to_dict()
            start = time.perf_counter()
            for name in names:
                result = slot.result(name)
                rows.append({
                    "dataflow": name,
                    "latency_cycles": events_mod.jsonable_cost(
                        result.latency_cycles),
                    "cost": events_mod.jsonable_cost(
                        engine.cost_of(result)),
                    "feasible": bool(result.feasible),
                })
            wall_s = time.perf_counter() - start
            counters = _delta(before, engine.stats.to_dict())
        feasible = [r for r in rows if r["cost"] is not None]
        best = (min(feasible, key=lambda r: r["cost"])["dataflow"]
                if feasible else None)
        return {
            "workload": spec["workload"], "arch": spec["arch"],
            "rows": rows, "best": best, "wall_s": wall_s,
            "counters": counters, "run_id": None,
        }

    # -- cache administration --------------------------------------------
    def clear_cache(self, reset_counters: bool = False,
                    timeout: float = 30.0) -> Dict[str, Any]:
        """Safely empty the shared artifact cache and every slot's kept
        results with their run ids (``POST /admin/cache/clear``), so the
        next job runs cold and records a new run.

        "Safely" means no job observes the cache shrinking mid-run:
        every per-engine job lock is acquired (in a stable order) before
        clearing, so the call waits for in-flight jobs to finish and
        blocks new ones for the instant the clear takes.
        """
        with self._lock:
            slots = [slot for _, slot in sorted(self._engines.items())]
        acquired = []
        deadline = time.monotonic() + timeout
        try:
            for slot in slots:
                if not slot.lock.acquire(
                        timeout=max(0.0, deadline - time.monotonic())):
                    return {"cleared": False,
                            "error": "timed out waiting for running jobs"}
                acquired.append(slot.lock)
            entries = self.subtree_cache.total
            self.subtree_cache.clear()
            if reset_counters:
                self.subtree_cache.reset_counters()
            results = sum(len(slot.results) for slot in slots)
            for slot in slots:
                slot.results.clear()
                slot.run_ids.clear()
        finally:
            for lock in acquired:
                lock.release()
        return {"cleared": True, "entries_dropped": entries,
                "results_dropped": results, "engines": len(slots),
                "counters_reset": bool(reset_counters)}

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` payload: queue, engines, shared cache."""
        with self._lock:
            engines = {
                f"{wl}/{ar}": dict(slot.engine.stats.to_dict(),
                                   namespace=slot.engine.namespace_digest)
                for (wl, ar), slot in self._engines.items()
            }
        cache = self.subtree_cache
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": time.time() - self.started,
            "workers": self.workers,
            "jobs": self.queue.by_state(),
            "queue": {"depth": self.queue.depth(),
                      "max": self.queue.max_queue,
                      "rejected_full": self.queue.rejected_full,
                      "rejected_closed": self.queue.rejected_closed},
            "engines": engines,
            "subtree_cache": {
                "hits": cache.hits, "misses": cache.misses,
                "evictions": cache.eviction_count,
                "entries": cache.total, "maxsize": cache.maxsize,
                "by_kind": {kind: {"hits": h, "misses": m, "evictions": e}
                            for kind, (h, m, e)
                            in sorted(cache.counts_by_kind().items())},
            },
        }


def _key_error_text(exc: KeyError) -> str:
    return str(exc.args[0]) if exc.args else str(exc)


def _delta(before: Dict[str, int], after: Dict[str, int]
           ) -> Dict[str, int]:
    return {name: after[name] - before.get(name, 0) for name in after}
