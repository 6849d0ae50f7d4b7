#!/usr/bin/env python3
"""Benchmark of the TileFlow reproduction: mapper searches and the
evaluation service, timed end to end with host-speed normalization.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  ``--trace 0`` reports the end-to-end
metrics listed in BENCHMARK.json and ``--trace 1`` the per-layer ones.
The last line of stdout is the result object; the line before it holds
the run's provenance and the raw value behind every normalized timing.
perfbench/README.md describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostref import NOMINAL_REF_S, HostClock
from layers import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

#: Cold set-ups timed per run; the median is reported.  One set-up
#: reads up to 2x off its neighbours on a busy host.
SETUP_REPEATS = 15
#: Kernel samples taken at each operation boundary.  One sample is a
#: few milliseconds and reads up to 15% off its neighbours, so the
#: boundaries take several.
BOUNDARY_SAMPLES = 3
#: Inside a serial search, a kernel sample is also taken before an
#: evaluation once this many seconds have passed since the last one.
GAP_S = 0.04

# Search workloads: repro search at the given budgets on the edge arch.
# ``nominal_s`` is one search's normalized time, which sizes the seed
# list to ``--seconds``; the list is always a prefix of the mapper
# seeds recorded in expected.json, in an order the workload seed picks.
SEARCHES = {
    "search-default": dict(workload="Bert-S", generations=6, population=10,
                           samples=20, workers=1, table="search-default",
                           nominal_s=2.3),
    "search-long": dict(workload="CC1", generations=2, population=4,
                        samples=1600, workers=1, table="search-long",
                        nominal_s=2.7),
    "search-workers2": dict(workload="Bert-S", generations=6, population=10,
                            samples=20, workers=2, table="search-default",
                            nominal_s=1.45),
}

# serve-evaluate: closed loop over two connections, evaluate jobs drawn
# from a Zipf-like popularity over the registry specs that the ledger
# run id defect spares (see ``hits_ledger_defect``).
CONNECTIONS = 2
ZIPF_S = 1.0
#: Fixed popularity order: the hot set is the same in every run and the
#: workload seed only picks the draw sequence.
RANK_SEED = 1729
DECK_JOBS = 1024
#: L1 subtree cache bound given to the server.  The timed specs fill
#: about 5.4k entries, under the default bound of 8192, so half of it
#: keeps the working set larger than the cache and evictions happen.
CACHE_BOUND = 4096
WARMUP_JOBS = 256
ROUND_JOBS = 32


# -- small helpers --------------------------------------------------------

def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from /proc."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except OSError:
        git_rev = None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "cpu_count": os.cpu_count(), "git_rev": git_rev,
            "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "nominal_ref_s": NOMINAL_REF_S}


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- set-up ------------------------------------------------------------------

def time_setups(clock: HostClock, launch) -> Tuple[float, float]:
    """Median (normalized, raw) seconds of ``SETUP_REPEATS`` cold set-ups.

    ``launch()`` starts a fresh interpreter and returns, once it is
    ready, a callable that stops it (untimed).  Kernel samples run
    between set-ups; each set-up is normalized by the samples just
    before and just after it, which follows the host's speed more
    closely than one factor for the whole phase.
    """
    def samples() -> List[float]:
        return [clock.sample() for _ in range(BOUNDARY_SAMPLES)]

    raw, norm = [], []
    before = samples()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        stop = launch()
        raw.append(time.perf_counter() - start)
        stop()
        after = samples()
        norm.append(raw[-1] * clock.factor(before + after))
        before = after
    return statistics.median(norm), statistics.median(raw)


def launch_search_setup(cfg):
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), "setup", cfg["workload"],
         str(cfg["workers"])],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()

    def stop():
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return stop


# -- search workloads ------------------------------------------------------------

class SearchHooks:
    """Takes kernel samples at search operation boundaries and keeps the
    pool's raw wall time and its workers' peak memory.

    ``BOUNDARY_SAMPLES`` samples run before every ``tune_population``
    call and, in pool workers, before every task, so both cores are
    sampled; workers append theirs to files under ``sample_dir``.  One
    more runs before a ``genome_cost`` call made in this process when
    ``GAP_S`` has passed since the last sample.
    """

    def __init__(self, clock: HostClock, sample_dir: Path):
        self.clock = clock
        self.sample_dir = sample_dir
        self.kernel_s = 0.0
        self.population_s = 0.0
        self.worker_peak_mb = 0.0
        self._last = 0.0
        self._originals: List[Tuple[object, str, object]] = []

    def _sample(self, count: int) -> None:
        for _ in range(count):
            self.kernel_s += self.clock.sample()
        self._last = time.perf_counter()

    def worker_samples(self) -> List[float]:
        """Take (and delete) the samples pool workers have written."""
        samples: List[float] = []
        for path in sorted(self.sample_dir.glob("kernel-*.txt")):
            samples += [float(x) for x in path.read_text().split()]
            path.unlink()
        return samples

    def install(self) -> None:
        from repro.engine import core

        Engine = core.EvaluationEngine
        genome_cost = Engine.genome_cost
        tune_population = Engine.tune_population
        worker_tune = core._worker_tune
        self._originals = [(Engine, "genome_cost", genome_cost),
                           (Engine, "tune_population", tune_population),
                           (core, "_worker_tune", worker_tune)]
        parent = os.getpid()

        def sampled_genome_cost(engine, *args, **kwargs):
            if (time.perf_counter() - self._last > GAP_S
                    and os.getpid() == parent):  # not in pool workers
                self._sample(1)
            return genome_cost(engine, *args, **kwargs)

        def sampled_tune_population(engine, *args, **kwargs):
            self._sample(BOUNDARY_SAMPLES)
            start = time.perf_counter()
            try:
                return tune_population(engine, *args, **kwargs)
            finally:
                self.population_s += time.perf_counter() - start
                pool = engine._pool
                if pool is not None:
                    for pid in list(pool._processes or {}):
                        self.worker_peak_mb = max(self.worker_peak_mb,
                                                  vm_hwm_mb(pid))

        # Pickled by reference as repro.engine.core._worker_tune, which
        # functools.wraps keeps resolvable to this wrapper.
        @functools.wraps(worker_tune)
        def sampled_worker_tune(*args, **kwargs):
            samples = [self.clock.sample() for _ in range(BOUNDARY_SAMPLES)]
            path = self.sample_dir / f"kernel-{os.getpid()}.txt"
            with open(path, "a") as out:
                out.write(" ".join(map(repr, samples)) + "\n")
            return worker_tune(*args, **kwargs)

        Engine.genome_cost = sampled_genome_cost
        Engine.tune_population = sampled_tune_population
        core._worker_tune = sampled_worker_tune

    def uninstall(self) -> None:
        for owner, name, original in self._originals:
            setattr(owner, name, original)


def search_pass(cfg, seeds: List[int], hooks: SearchHooks,
                expected: Dict[str, Dict]) -> List[Dict]:
    """One explore() per mapper seed, each on a fresh engine."""
    from repro import arch, workloads
    from repro.engine import EvaluationEngine
    from repro.mapper import TileFlowMapper

    workload = workloads.by_name(cfg["workload"])
    spec = arch.by_name("edge")
    records = []
    for seed in seeds:
        # Each search starts from a collected heap, like a fresh
        # ``repro search`` process; the last one's garbage is not timed.
        gc.collect()
        engine = EvaluationEngine(workload, spec, workers=cfg["workers"])
        mapper = TileFlowMapper(workload, spec, seed=seed,
                                workers=cfg["workers"], engine=engine)
        first, kernel_before = len(hooks.clock.samples), hooks.kernel_s
        start = time.perf_counter()
        try:
            result = mapper.explore(generations=cfg["generations"],
                                    population=cfg["population"],
                                    mcts_samples=cfg["samples"])
            wall = time.perf_counter() - start
        finally:
            engine.shutdown()
        # Worker samples ran in parallel on both cores, so they add
        # about their sum over the worker count to the wall time.
        worker = hooks.worker_samples()
        hooks.clock.samples.extend(worker)
        raw = (wall - (hooks.kernel_s - kernel_before)
               - sum(worker) / cfg["workers"])
        cycles = result.best_result.latency_cycles
        digest = engine.mapping_digest(result.best_genome,
                                       result.best_factors)
        want = expected[str(seed)]
        records.append({
            "seed": seed, "raw_s": raw,
            "norm_s": raw * hooks.clock.factor(hooks.clock.samples[first:]),
            "latency_cycles": cycles, "digest": digest,
            "correct": (cycles == want["latency_cycles"]
                        and digest == want["digest"]),
            "stats": engine.stats.to_dict()})
    return records


def run_search(name: str, seed: int, seconds: int, trace: bool):
    cfg = SEARCHES[name]
    table = json.loads((BENCH / "expected.json").read_text())[cfg["table"]]
    count = max(1, min(len(table), round(seconds / cfg["nominal_s"])))
    seeds = list(range(count))
    random.Random(seed).shuffle(seeds)
    work = SCRATCH / f"search-{os.getpid()}"
    work.mkdir()
    try:
        return search_phases(cfg, seeds, table, work, trace)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)


def search_phases(cfg, seeds, table, work: Path, trace: bool):
    clock = HostClock()
    hooks = SearchHooks(clock, work)
    hooks.install()
    out: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    if not trace:
        out["setup_s"], raw["setup_s"] = time_setups(
            clock, lambda: launch_search_setup(cfg))
    clock.samples.clear()
    records = search_pass(cfg, seeds, hooks, table)
    rss = self_peak_mb() + hooks.worker_peak_mb
    attempted = len(records)
    wrong = sum(not r["correct"] for r in records)
    if not trace:
        norm = [r["norm_s"] for r in records]
        raws = [r["raw_s"] for r in records]
        out.update(op_p50_s=statistics.median(norm),
                   op_p95_s=percentile(norm, 95),
                   ops_per_s=len(norm) / sum(norm),
                   result_cycles=geomean([r["latency_cycles"]
                                          for r in records]),
                   peak_rss_mb=rss,
                   ok_ratio=1.0 - wrong / attempted)
        raw.update(op_p50_s=statistics.median(raws),
                   op_p95_s=percentile(raws, 95),
                   ops_per_s=len(raws) / sum(raws))
        extra = {"raw": raw, "host_ref_s": clock.mean(),
                 "searches": [{k: r[k] for k in ("seed", "raw_s", "norm_s",
                                                 "latency_cycles")}
                              for r in records]}
        return out, attempted, wrong, wrong == 0, extra

    # Traced run: the untraced pass above is the overhead baseline; the
    # same seeds run again with every layer wrapped.  Kernel samples
    # stay outside the traced spans.
    untraced_wall = sum(r["norm_s"] for r in records)
    hooks.uninstall()
    tracer = Tracer(work).install()
    hooks.install()
    clock.samples.clear()
    hooks.population_s = 0.0
    traced = search_pass(cfg, seeds, hooks, table)
    reap_children()
    tracer.merge_dumps()
    wrong += sum(not r["correct"] for r in traced)
    same = ([r["digest"] for r in traced] == [r["digest"] for r in records])
    attempted += len(traced)
    stats: Dict[str, int] = {}
    for r in traced:
        for key, n in r["stats"].items():
            stats[key] = stats.get(key, 0) + n
    traced_wall = sum(r["norm_s"] for r in traced)
    out = layer_metrics(tracer, stats, clock, ops=len(traced))
    out.update(search_pool_metrics(tracer, stats, hooks, cfg["workers"],
                                   clock, len(traced)))
    out["obs.trace_overhead"] = traced_wall / untraced_wall - 1.0
    out["host.raw_wall_s"] = sum(r["raw_s"] for r in traced)
    extra = {"host_ref_s": clock.mean(), "mapper_seeds": seeds,
             "traced_champions_match": same}
    return out, attempted, wrong, wrong == 0 and same, extra


def reap_children() -> None:
    """Wait for engine pool workers that ``shutdown()`` left exiting."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


# -- per-layer metrics ---------------------------------------------------------------

ANALYSIS_PASSES = ("validate", "slices", "datamovement", "resource_bounds",
                   "resources", "latency", "energy")
CACHE_KINDS = ("walkvol", "groupflows", "slices", "num_pe", "valid", "cov")
POOL_LAYER = ("pool.tasks", "pool.task_s", "pool.busy_ratio")
SERVE_LAYER = ("serve.queue_wait_s", "serve.run_s", "serve.engine_s",
               "serve.http_s", "serve.warm_ratio", "serve.rejected",
               "serve.failed")


def layer_metrics(tracer: Tracer, stats: Dict[str, int], clock: HostClock,
                  ops: int) -> Dict[str, float]:
    """Layer metrics common to all workloads.  Times are normalized
    seconds per operation; counts are totals over the traced phase."""
    totals = tracer.totals()
    incl, self_s = totals["incl"], totals["self"]
    calls, counts = totals["calls"], totals["counts"]
    scale = clock.factor(clock.samples) / ops

    def per_op(table, name):
        return table.get(name, 0.0) * scale

    out = {
        "mapper.tune_s": per_op(incl, "mapper.tune"),
        "mapper.self_s": per_op(self_s, "mapper.tune"),
        "mapper.tunes": calls.get("mapper.tune", 0),
        "mapper.evals": counts.get("mapper.evals", 0),
        "tile.build_s": per_op(incl, "tile.build"),
        "tile.builds": calls.get("tile.build", 0),
        "engine.evaluate_s": per_op(incl, "engine.evaluate"),
        "engine.self_s": per_op(self_s, "engine.evaluate"),
        "engine.signature_s": per_op(incl, "engine.signature"),
        "engine.memo_hit_ratio": ratio(
            stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]),
        "engine.prescreen_s": per_op(incl, "engine.prescreen"),
        "engine.prescreen_reject_ratio": ratio(
            stats["prescreen_rejects"],
            calls.get("engine.prescreen", 0)),
        "engine.evaluations": stats["evaluations"],
        "engine.early_exits": stats["early_exits"],
        "cache.subtree_hit_ratio": ratio(
            stats["subtree_hits"],
            stats["subtree_hits"] + stats["subtree_misses"]),
        "cache.subtree_misses": stats["subtree_misses"],
        "cache.subtree_evictions": stats["subtree_evictions"],
        "cache.l2_hits": stats["subtree_l2_hits"],
        "cache.l2_hit_ratio": ratio(stats["subtree_l2_hits"],
                                    stats["subtree_misses"]),
        "cache.l3_hits": stats["subtree_l3_hits"],
        "batched.hook_s": per_op(incl, "batched.hook"),
        "batched.evaluations": stats["batched_evaluations"],
        "batched.fill": stats["batch_fill"],
        "batched.yield": ratio(stats["batched_evaluations"],
                               stats["batch_fill"]),
        "batched.fallbacks": stats["batch_fallbacks"],
        "host.ref_s": clock.mean(),
    }
    for kind in CACHE_KINDS:
        hits = counts.get(f"cache.{kind}.hits", 0)
        out[f"cache.{kind}_hit_ratio"] = ratio(
            hits, hits + counts.get(f"cache.{kind}.misses", 0))
    for kind in ("walkvol", "groupflows", "slices"):
        out[f"cache.{kind}_evictions"] = counts.get(
            f"cache.{kind}.evictions", 0)
    for name in ANALYSIS_PASSES:
        out[f"analysis.{name}_s"] = per_op(incl, f"analysis.{name}")
        out[f"analysis.{name}_calls"] = calls.get(f"analysis.{name}", 0)
    return out


def search_pool_metrics(tracer, stats, hooks, workers, clock, ops):
    task_s = tracer.totals()["incl"].get("pool.task", 0.0)
    out = {"pool.tasks": stats["parallel_tasks"],
           "pool.task_s": task_s * clock.factor(clock.samples) / ops,
           "pool.busy_ratio": ratio(task_s, workers * hooks.population_s)}
    out.update(dict.fromkeys(SERVE_LAYER, 0))
    return out


# -- serve-evaluate ---------------------------------------------------------

def registry_specs() -> List[Tuple[str, str, str]]:
    from repro import workloads
    from repro.dataflows import dataflow_names

    names = list(workloads.ATTENTION_SHAPES) + list(
        workloads.CONV_CHAIN_SHAPES)
    return [(w, a, d) for w in names for a in ("edge", "cloud")
            for d in dataflow_names(workloads.by_name(w))]


def hits_ledger_defect(spec: Tuple[str, str, str]) -> bool:
    """Known defect: ``repro serve`` builds a job's ledger run id from the
    workload name, so for names with ``/`` (every ``ViT/*`` shape)
    ``RunLedger.record`` raises ``LedgerError: bad run_id`` and the job
    fails.  These specs stay out of the timed deck; ``probe_defect``
    submits each of them once per run, untimed, and reports the outcome.
    """
    return "/" in spec[0]


def reference_results(specs) -> Dict[Tuple[str, str, str], Tuple]:
    """Expected (latency_cycles, energy_pj) per spec, as the service
    reports them: the frozen oracle where it has the spec, otherwise a
    cache-free model evaluation."""
    from repro import arch, workloads
    from repro.analysis import TileFlowModel
    from repro.dataflows import dataflow_for
    from repro.obs.events import jsonable_cost

    oracle = json.loads(
        (ROOT / "tests" / "data" / "analysis_oracle.json").read_text())
    conv = set(workloads.CONV_CHAIN_SHAPES)
    refs = {}
    for w, a, d in specs:
        entry = oracle.get(f"{'conv' if w in conv else 'attn'}/{w}/{a}/{d}")
        if entry is None:
            spec = arch.by_name(a)
            result = TileFlowModel(spec).evaluate(
                dataflow_for(workloads.by_name(w), d, spec))
            entry = {"latency_cycles": result.latency_cycles,
                     "energy_pj": result.energy_pj}
        refs[(w, a, d)] = (jsonable_cost(entry["latency_cycles"]),
                           jsonable_cost(entry["energy_pj"]))
    return refs


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ledger: Path, dump: Optional[Path] = None):
        if dump is None:
            cmd = [sys.executable, "-u", "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, "-u", str(BENCH / "child.py"),
                   "serve-traced", str(dump)]
        cmd += ["--port", "0", "--ledger", str(ledger),
                "--cache-bound", str(CACHE_BOUND)]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            self.url = line.split()[2]
            self.wait_healthy()
        except BaseException:
            self.stop()
            raise

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=10) as resp:
                    if resp.status == 200:
                        return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def stop(self) -> None:
        stop_process(self.proc)
        self.proc.stdout.close()


def launch_serve_setup(ledger: Path):
    return Server(ledger).stop


def job_draws(specs, seed: int):
    """Endless seeded Zipf-like job sequence over the specs.

    A deck of ``DECK_JOBS`` jobs holds each spec in proportion to
    ``1 / rank**ZIPF_S`` (at least once); the workload seed shuffles the
    deck, and it is reshuffled whenever it runs out.  Dealing from a
    deck instead of drawing independently keeps the job mix the same
    from run to run.
    """
    ranked = sorted(specs)
    random.Random(RANK_SEED).shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    scale = DECK_JOBS / sum(weights)
    deck = [spec for spec, w in zip(ranked, weights)
            for _ in range(max(1, round(w * scale)))]
    rng = random.Random(seed)
    while True:
        rng.shuffle(deck)
        yield from deck


def run_job(client, spec) -> Dict[str, object]:
    """Submit one evaluate job, follow its event stream to the end, then
    fetch its record.  Latency is submit to end of stream."""
    from repro.serve import ServiceError

    w, a, d = spec
    start = time.perf_counter()
    try:
        job = client.submit("evaluate",
                            {"workload": w, "arch": a, "dataflow": d})
    except ServiceError as exc:
        return {"spec": spec, "refused": exc.status}
    for _ in client.watch(job["id"]):
        pass
    latency = time.perf_counter() - start
    return {"spec": spec, "latency": latency,
            "record": client.status(job["id"])}


def drive(url: str, draws, seconds: float, clock: HostClock,
          jobs_min: int = 0) -> Tuple[List[Dict], float, float]:
    """Closed loop: rounds of ``ROUND_JOBS`` jobs over ``CONNECTIONS``
    connections with a kernel sample between rounds, until ``seconds``
    of raw round time have passed (and at least ``jobs_min`` jobs ran).

    Returns the job outcomes, the raw round wall time, and the factor
    (from this phase's kernel samples) that normalizes both; each
    outcome's ``norm_latency`` is already scaled by it.
    """
    from repro.serve import ServiceClient

    client = ServiceClient(url, timeout=60)
    outcomes: List[Dict] = []
    raw_wall = 0.0
    first = len(clock.samples)
    while raw_wall < seconds or len(outcomes) < jobs_min:
        for _ in range(BOUNDARY_SAMPLES):
            clock.sample()
        pending = deque(next(draws) for _ in range(ROUND_JOBS))
        errors: List[BaseException] = []

        def connection():
            try:
                while True:
                    try:
                        spec = pending.popleft()
                    except IndexError:
                        return
                    outcomes.append(run_job(client, spec))
            except BaseException as exc:  # re-raised below, in drive()
                errors.append(exc)

        threads = [threading.Thread(target=connection)
                   for _ in range(CONNECTIONS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raw_wall += time.perf_counter() - start
        if errors:
            raise errors[0]
    for _ in range(BOUNDARY_SAMPLES):
        clock.sample()
    factor = clock.factor(clock.samples[first:])
    for outcome in outcomes:
        if "latency" in outcome:
            outcome["norm_latency"] = outcome["latency"] * factor
    return outcomes, raw_wall, factor


def check_jobs(outcomes, refs) -> Tuple[List[Dict], int, int]:
    """Split outcomes into successful jobs; count failures and wrong
    outputs.  Failed, refused and wrong-output jobs all count as
    failed operations."""
    ok, failed, wrong = [], 0, 0
    for outcome in outcomes:
        record = outcome.get("record")
        if record is None or record.get("state") != "done":
            failed += 1
            continue
        result = record["result"]
        if (result["latency_cycles"], result["energy_pj"]) != refs[
                outcome["spec"]]:
            wrong += 1
            failed += 1
            continue
        ok.append(outcome)
    return ok, failed, wrong


def run_serve(seed: int, seconds: int, trace: bool):
    specs = [s for s in registry_specs() if not hits_ledger_defect(s)]
    refs = reference_results(specs)
    clock = HostClock()
    work = SCRATCH / f"serve-{os.getpid()}"
    work.mkdir()
    try:
        return serve_phases(specs, refs, clock, work, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def serve_phases(specs, refs, clock, work, seed, seconds, trace):
    out: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    if not trace:
        out["setup_s"], raw["setup_s"] = time_setups(
            clock, lambda: launch_serve_setup(work / "setup-ledger"))
        clock.samples.clear()
        outcomes, raw_wall, norm_wall, rss, _, defect = serve_once(
            work / "ledger", None, specs, seed, seconds, clock, probe=True)
        ok, failed, wrong = check_jobs(outcomes, refs)
        latencies = [o["norm_latency"] for o in ok]
        raws = [o["latency"] for o in ok]
        out.update(op_p50_s=percentile(latencies, 50),
                   op_p95_s=percentile(latencies, 95),
                   ops_per_s=len(outcomes) / norm_wall,
                   result_cycles=geomean(list({
                       o["spec"]: o["record"]["result"]["latency_cycles"]
                       for o in ok}.values())),
                   peak_rss_mb=rss,
                   ok_ratio=len(ok) / len(outcomes))
        raw.update(op_p50_s=percentile(raws, 50),
                   op_p95_s=percentile(raws, 95),
                   ops_per_s=len(outcomes) / raw_wall)
        extra = {"raw": raw, "host_ref_s": clock.mean(),
                 "jobs": len(outcomes), "jobs_ok": len(ok),
                 "jobs_wrong": wrong,
                 "failures": failure_reasons(outcomes),
                 "known_defects": {"serve_ledger_run_id": defect}}
        return out, len(outcomes), failed, wrong == 0, extra

    # Traced run: half the time on a plain server as the overhead
    # baseline, half on a traced one, both over the same draws.
    half = max(1.0, seconds / 2.0)
    base, _, base_wall, _, _, defect = serve_once(
        work / "ledger-a", None, specs, seed, half, clock, probe=True)
    clock.samples.clear()
    dump = work / "trace.json"
    outcomes, raw_wall, norm_wall, _, stats, _ = serve_once(
        work / "ledger-b", dump, specs, seed, half, clock)
    tracer = Tracer()
    tracer.merge(json.loads(dump.read_text()))
    all_outcomes = base + outcomes
    ok, failed, wrong = check_jobs(all_outcomes, refs)
    engine_stats: Dict[str, int] = {}
    for per_engine in stats["engines"].values():
        for key, n in per_engine.items():
            if isinstance(n, int):
                engine_stats[key] = engine_stats.get(key, 0) + n
    cache = stats["subtree_cache"]
    # Engine-scoped eviction deltas overlap when jobs on two engines run
    # at once; the shared cache's own totals are exact.
    engine_stats.update(subtree_hits=cache["hits"],
                        subtree_misses=cache["misses"],
                        subtree_evictions=cache["evictions"])
    for kind, c in cache["by_kind"].items():
        tracer.counts[f"cache.{kind}.hits"] += c["hits"]
        tracer.counts[f"cache.{kind}.misses"] += c["misses"]
        tracer.counts[f"cache.{kind}.evictions"] += c["evictions"]
    # Every evaluate job is one engine evaluation (no memo on this path);
    # the job registry itself is pruned, so it cannot be counted.
    server_jobs = engine_stats["evaluations"]
    out = layer_metrics(tracer, engine_stats, clock, ops=server_jobs)
    out.update(dict.fromkeys(POOL_LAYER, 0))
    out.update(serve_layer(outcomes, norm_wall / raw_wall))
    out["obs.trace_overhead"] = (norm_wall / len(outcomes)) / (
        base_wall / len(base)) - 1.0
    out["host.raw_wall_s"] = raw_wall
    extra = {"host_ref_s": clock.mean(), "jobs": len(outcomes),
             "server_jobs": server_jobs,
             "known_defects": {"serve_ledger_run_id": defect}}
    return out, len(all_outcomes), failed, wrong == 0, extra


def serve_once(ledger: Path, dump: Optional[Path], specs, seed: int,
               seconds: float, clock: HostClock, probe: bool = False):
    """Boot a server, warm it up, drive it for ``seconds``, then (with
    ``probe``) run the untimed defect probe, and stop it."""
    server = Server(ledger, dump)
    try:
        draws = job_draws(specs, seed)
        warm = HostClock()
        drive(server.url, draws, 0.0, warm, jobs_min=WARMUP_JOBS)
        outcomes, raw_wall, factor = drive(server.url, draws, seconds,
                                           clock)
        from repro.serve import ServiceClient
        stats = ServiceClient(server.url).stats()
        rss = vm_hwm_mb(server.proc.pid)
        defect = probe_defect(server.url) if probe else None
    finally:
        server.stop()
    return outcomes, raw_wall, raw_wall * factor, rss, stats, defect


def probe_defect(url: str) -> Dict[str, object]:
    """Submit every spec ``hits_ledger_defect`` names once, serially, and
    count how the jobs end, so each run shows whether the defect is
    still there.  Not timed, and not part of ``attempted``/``failed``."""
    from repro.serve import ServiceClient

    client = ServiceClient(url, timeout=60)
    specs = [s for s in registry_specs() if hits_ledger_defect(s)]
    outcomes = [run_job(client, spec) for spec in specs]
    done = sum((o.get("record") or {}).get("state") == "done"
               for o in outcomes)
    return {"specs": len(specs), "done": done,
            "failures": failure_reasons(outcomes)}


def serve_layer(outcomes, factor: float) -> Dict[str, float]:
    done = [o for o in outcomes
            if o.get("record", {}).get("state") == "done"]
    # Server timestamps are wall-clock seconds, normalized like the rest.
    waits, runs, engines, https = [], [], [], []
    warm = 0
    for o in done:
        rec = o["record"]
        waits.append((rec["started"] - rec["created"]) * factor)
        runs.append((rec["finished"] - rec["started"]) * factor)
        engines.append(rec["result"]["wall_s"] * factor)
        https.append(o["norm_latency"]
                     - (rec["finished"] - rec["created"]) * factor)
        warm += rec["result"]["counters"]["subtree_misses"] == 0
    return {
        "serve.queue_wait_s": statistics.fmean(waits),
        "serve.run_s": statistics.fmean(runs),
        "serve.engine_s": statistics.fmean(engines),
        "serve.http_s": statistics.fmean(https),
        "serve.warm_ratio": warm / len(done),
        "serve.rejected": sum("refused" in o for o in outcomes),
        "serve.failed": sum(o.get("record", {}).get("state") == "failed"
                            for o in outcomes),
    }


def failure_reasons(outcomes) -> Dict[str, int]:
    reasons: Dict[str, int] = {}
    for o in outcomes:
        record = o.get("record") or {}
        if record.get("state") == "done":
            continue
        key = (f"HTTP {o['refused']}" if "refused" in o
               else str(record.get("error", record.get("state")))
               .split("'")[0].strip())
        reasons[key] = reasons.get(key, 0) + 1
    return reasons


# -- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SEARCHES) + ["serve-evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    # Temporary files (the engine's shared L2 log) stay in the checkout.
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    tempfile.tempdir = None
    # Compile bytecode once per checkout so set-up times measure imports,
    # not the first compile.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC),
                    str(BENCH)], check=True, cwd=ROOT,
                   stdout=subprocess.DEVNULL)

    trace = bool(args.trace)
    if args.workload == "serve-evaluate":
        metrics, attempted, failed, correct, extra = run_serve(
            args.seed, args.seconds, trace)
    else:
        metrics, attempted, failed, correct, extra = run_search(
            args.workload, args.seed, args.seconds, trace)

    declared = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
    info = provenance(args.workload, args.seed, args.seconds)
    info.update(extra)
    print(json.dumps({"provenance": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
