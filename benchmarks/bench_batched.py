#!/usr/bin/env python
"""Batched-kernel benchmark: array-native cohort pricing during search.

Measures what the batched analysis layer (``repro.analysis.batched``)
buys on top of the PR 5 incremental-on baseline, and proves it changes
nothing but the wall clock:

* **Multi-start MCTS factor search** — the headline number.  Four fused
  two-group genomes (the first such genomes of a fixed random stream
  whose factor spaces fit ``FULL_SWEEP_LIMIT``) are each tuned with
  ``--restarts`` MCTS restarts of ``--samples`` samples on one
  persistent engine, batched off vs on, interleaved over ``--repeats``
  rounds after a discarded warm-up, compared on min-time.  Restarts
  re-explore the same factor space from fresh seeds; the batched layer
  prices whole sibling cohorts in single vectorized sweeps and serves
  every later restart from the priced space, while the scalar baseline
  keeps paying for each restart's fresh rollout tails.  The PR's
  acceptance bar is a >= 2x speedup here; every champion must be
  byte-identical.
* **GA+MCTS mapper search** — end-to-end ``TileFlowMapper.explore``
  with batching off and on; the search trajectory (champion, factors,
  per-generation cost trace) must be identical in both configs.
* **Frozen-oracle identity** — every entry of
  ``tests/data/analysis_oracle.json`` (58 ``EvaluationResult.to_dict()``
  payloads frozen from the pre-refactor monolith) is recomputed through
  batched-enabled ``EvaluationEngine`` instances sharing one
  ``SubtreeArtifactCache``; the serialized output must reproduce the
  frozen file byte-for-byte.

Champions are compared byte-exactly (``==`` on the full result tuples),
not approximately: the batched kernels do all slice/walk arithmetic in
exact int64 (overflow raises and falls back to the scalar path) and
replay float compositions in the scalar accumulation order, so batched
and scalar costs are bit-identical by construction — and every swept
structure class is additionally cross-checked against one real scalar
evaluation before its costs are trusted.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_batched.py

Emits ``BENCH_batched.json``.  Exits non-zero if the speedup floor
(``--min-speedup``, default 2.0) is missed, any identity check fails,
or the batched run priced no candidates (``batched_evaluations == 0``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import arch as arch_mod  # noqa: E402
from repro import workloads  # noqa: E402
from repro.engine import EvaluationEngine  # noqa: E402
from repro.engine.cache import SubtreeArtifactCache  # noqa: E402
from repro.mapper import Genome, TileFlowMapper  # noqa: E402
from repro.mapper.encoding import genome_factor_space  # noqa: E402

ORACLE_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tests",
                           "data", "analysis_oracle.json")


def bench_genomes(workload, seed: int, count: int = 4,
                  max_space: int = 8192) -> List[Genome]:
    """The first ``count`` distinct two-group genomes of the stream
    whose factor spaces are small enough for whole-space sweeps."""
    rng = random.Random(seed)
    picked: List[Genome] = []
    seen = set()
    while len(picked) < count:
        genome = Genome.random(workload, rng)
        key = str(genome.encode())
        if key in seen:
            continue
        seen.add(key)
        if len(genome.groups(workload)) != 2:
            continue
        if genome_factor_space(workload, genome).size > max_space:
            continue
        picked.append(genome)
    return picked


def mcts_run(args: argparse.Namespace, batched: bool
             ) -> Tuple[float, List, Dict]:
    """One timed round: multi-start tune of the fixed genome set."""
    workload = workloads.self_attention(args.heads, args.seq, args.hidden,
                                        expand_softmax=True)
    genomes = bench_genomes(workload, args.seed)
    engine = EvaluationEngine(workload, arch_mod.edge(), batched=batched)
    start = time.perf_counter()
    champions = [engine.tune_genome(g, seed=100 + r, samples=args.samples)
                 for g in genomes for r in range(args.restarts)]
    seconds = time.perf_counter() - start
    stats = {"engine": engine.stats.to_dict()}
    engine.shutdown()
    return seconds, champions, stats


def mapper_run(args: argparse.Namespace, batched: bool
               ) -> Tuple[float, Tuple]:
    """One timed round: full GA+MCTS exploration."""
    workload = workloads.self_attention(args.heads, args.seq, args.hidden,
                                        expand_softmax=True)
    mapper = TileFlowMapper(workload, arch_mod.edge(), seed=args.seed,
                            batched=batched)
    start = time.perf_counter()
    result = mapper.explore(generations=args.generations,
                            population=args.population,
                            mcts_samples=args.mapper_samples)
    seconds = time.perf_counter() - start
    trajectory = (result.best_cost, result.best_factors, tuple(result.trace))
    return seconds, trajectory


def oracle_through_batched_engines() -> Dict[str, object]:
    """Recompute the frozen oracle through batched-enabled engines.

    Same entry recipe as ``tests/property/test_prop_pipeline.py``'s
    ``oracle_entries``, but every tree is
    evaluated by an ``EvaluationEngine(batched=True)`` (one per
    workload/arch pair, all sharing one ``SubtreeArtifactCache``) —
    proving the batched layer leaves the engine's evaluation results
    untouched.  The serialized output must match the frozen
    pre-refactor file byte-for-byte.
    """
    from repro.dataflows import (ATTENTION_DATAFLOWS, CONV_DATAFLOWS,
                                 attention_dataflow, conv_dataflow)
    from repro.mapper import build_genome_tree
    from repro.workloads import (ATTENTION_SHAPES, CONV_CHAIN_SHAPES,
                                 attention_from_shape, conv_chain_from_shape,
                                 self_attention)

    cache = SubtreeArtifactCache()
    engines: Dict[Tuple[str, str], EvaluationEngine] = {}

    def engine_for(wl, spec) -> EvaluationEngine:
        key = (wl.name, spec.name)
        if key not in engines:
            engines[key] = EvaluationEngine(wl, spec, batched=True,
                                            subtree_cache=cache)
        return engines[key]

    out = {}
    for shape in ("Bert-S", "ViT/16-B"):
        wl = attention_from_shape(ATTENTION_SHAPES[shape])
        for aname, spec in (("edge", arch_mod.edge()),
                            ("cloud", arch_mod.cloud())):
            engine = engine_for(wl, spec)
            for df in ATTENTION_DATAFLOWS:
                r = engine.evaluate_tree(attention_dataflow(df, wl, spec))
                out[f"attn/{shape}/{aname}/{df}"] = r.to_dict()
    wl = conv_chain_from_shape(CONV_CHAIN_SHAPES["CC1"])
    spec = arch_mod.edge()
    engine = engine_for(wl, spec)
    for df in CONV_DATAFLOWS:
        r = engine.evaluate_tree(conv_dataflow(df, wl, spec))
        out[f"conv/CC1/edge/{df}"] = r.to_dict()
    wl = self_attention(2, 32, 64, expand_softmax=False)
    engine = engine_for(wl, spec)
    rng = random.Random(1234)
    for i in range(30):
        genome = Genome.random(wl, rng)
        factors = genome_factor_space(wl, genome).random_point(rng)
        tree = build_genome_tree(wl, spec, genome, factors)
        out[f"genome/{i}"] = engine.evaluate_tree(tree).to_dict()
    for engine in engines.values():
        engine.shutdown()

    current = json.dumps(out, sort_keys=True, indent=1)
    with open(ORACLE_PATH) as handle:
        frozen = handle.read()
    return {
        "entries": len(out),
        "byte_identical": current == frozen,
        "cache_stats": cache.stats(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1600,
                        help="MCTS samples per restart in the timed section")
    parser.add_argument("--restarts", type=int, default=4,
                        help="MCTS restarts (seeds) per genome")
    parser.add_argument("--repeats", type=int, default=2,
                        help="interleaved timed rounds per config")
    parser.add_argument("--generations", type=int, default=3)
    parser.add_argument("--population", type=int, default=6)
    parser.add_argument("--mapper-samples", type=int, default=1200,
                        help="MCTS samples per genome in the mapper "
                             "section (above BATCH_MIN_SAMPLES so the GA "
                             "fitness path really exercises the sweeps)")
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--seq", type=int, default=32)
    parser.add_argument("--hidden", type=int, default=64)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required MCTS speedup (batched over scalar)")
    parser.add_argument("--out", default="BENCH_batched.json")
    args = parser.parse_args(argv)

    # -- multi-start MCTS factor search (the headline) ---------------------
    print("[bench] warm-up round (discarded) ...", flush=True)
    mcts_run(args, batched=False)
    mcts_run(args, batched=True)

    times: Dict[str, List[float]] = {"off": [], "on": []}
    champions: Dict[str, List] = {}
    stats: Dict[str, Dict] = {}
    for round_no in range(args.repeats):
        for name, batched in (("off", False), ("on", True)):
            seconds, champs, st = mcts_run(args, batched)
            times[name].append(seconds)
            champions[name] = champs
            stats[name] = st
            print(f"[bench] round {round_no + 1}/{args.repeats} "
                  f"batched={name}: {seconds:.3f}s", flush=True)
    mcts_off, mcts_on = min(times["off"]), min(times["on"])
    mcts_speedup = mcts_off / mcts_on
    mcts_identical = champions["off"] == champions["on"]
    engine_on = stats["on"]["engine"]
    batched_evaluations = engine_on.get("batched_evaluations", 0)
    print(f"[bench] MCTS: off {mcts_off:.3f}s on {mcts_on:.3f}s "
          f"-> {mcts_speedup:.2f}x, champions identical: {mcts_identical}, "
          f"{batched_evaluations} batched evaluations", flush=True)

    # -- full mapper search ------------------------------------------------
    mapper_run(args, batched=False)  # warm-up, discarded
    mapper_run(args, batched=True)
    m_off, traj_off = mapper_run(args, batched=False)
    m_on, traj_on = mapper_run(args, batched=True)
    mapper_identical = traj_off == traj_on
    print(f"[bench] mapper: off {m_off:.3f}s on {m_on:.3f}s, "
          f"trajectories identical: {mapper_identical}", flush=True)

    # -- oracle byte-identity through batched engines ----------------------
    print("[bench] frozen oracle through batched engines ...", flush=True)
    oracle = oracle_through_batched_engines()
    print(f"[bench] oracle byte-identical: {oracle['byte_identical']}",
          flush=True)

    report = {
        "benchmark": "batched_kernels",
        "params": {
            "samples": args.samples, "restarts": args.restarts,
            "repeats": args.repeats,
            "generations": args.generations, "population": args.population,
            "mapper_samples": args.mapper_samples,
            "workload": f"attention(h={args.heads}, s={args.seq}, "
                        f"d={args.hidden}, expand_softmax=True)",
            "seed": args.seed, "min_speedup": args.min_speedup,
        },
        "cpu_count": os.cpu_count(),
        "mcts_search": {
            "seconds_off": times["off"], "seconds_on": times["on"],
            "min_seconds_off": mcts_off, "min_seconds_on": mcts_on,
            "speedup": mcts_speedup,
            "champions_identical": mcts_identical,
            "engine_stats_off": stats["off"]["engine"],
            "engine_stats_on": engine_on,
        },
        "mapper_search": {
            "seconds_off": m_off, "seconds_on": m_on,
            "trajectories_identical": mapper_identical,
        },
        "oracle": oracle,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.out}")

    failures = []
    if mcts_speedup < args.min_speedup:
        failures.append(f"MCTS speedup {mcts_speedup:.2f}x < "
                        f"{args.min_speedup:.2f}x floor")
    if not mcts_identical:
        failures.append("MCTS champions differ with batching on")
    if batched_evaluations <= 0:
        failures.append("batched layer priced no candidates "
                        "(batched_evaluations == 0)")
    if not mapper_identical:
        failures.append("mapper trajectories differ with batching on")
    if not oracle["byte_identical"]:
        failures.append("oracle output differs through batched engines")
    for failure in failures:
        print(f"[bench] ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
