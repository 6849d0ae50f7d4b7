"""Run-ledger manifest assembly for engine-backed runs.

One construction path shared by the CLI (``repro search --ledger``) and
the evaluation service (``repro serve``): both call
:func:`search_run_manifest`, so a search submitted over HTTP records a
manifest *structurally identical* to the CLI's — the same keys, the
same fingerprint digests, the same champion signature — and every
ledger consumer (``repro runs list|show|diff``, ``repro explain
--run``) works unchanged on service output.

:mod:`repro.obs.ledger` stays engine-agnostic (it never imports the
engine); this module is the engine-aware layer on top of its
:func:`~repro.obs.ledger.build_manifest`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..mapper.mapper import MapperResult
from ..obs import events as events_mod
from ..obs import ledger as ledger_mod


def _subject(engine) -> Dict[str, Any]:
    """The workload, arch and namespace fields of a manifest, from the
    digests the engine took when it was built."""
    return {
        "workload": {"name": engine.workload.name,
                     "fingerprint": engine.workload_digest},
        "arch": {"name": engine.arch.name,
                 "fingerprint": engine.arch_digest},
        "namespace": engine.namespace_digest,
    }


def search_run_manifest(*, run_id: str, engine, result: MapperResult,
                        generations: int, population: int, samples: int,
                        workers: int, seed: int, wall_s: float,
                        counters: Optional[Mapping[str, Any]] = None,
                        extra: Optional[Mapping[str, Any]] = None
                        ) -> Dict[str, Any]:
    """The ``repro search`` ledger manifest for one mapper run.

    ``counters`` defaults to the engine's full stats snapshot (exact
    for a fresh per-run engine); the service passes a per-job delta
    instead, since its engines accumulate across jobs.  The champion
    carries its JSON genome ``encoding`` so ``repro explain --run`` can
    rebuild the mapping's tree from the manifest alone.
    """
    champion: Dict[str, Any] = {
        "cost": events_mod.jsonable_cost(result.best_cost),
        "signature": engine.mapping_digest(result.best_genome,
                                           result.best_factors),
        "genome": result.best_genome.describe(engine.workload),
        "encoding": result.best_genome.encode(),
        "factors": dict(result.best_factors),
    }
    return ledger_mod.build_manifest(
        run_id=run_id, command="search", **_subject(engine),
        config=dict(engine.config(), generations=generations,
                    population=population, samples=samples,
                    workers=workers),
        seeds={"seed": seed},
        champion=champion,
        counters=dict(counters if counters is not None
                      else engine.stats.to_dict()),
        wall_s=wall_s,
        extra=extra)


def evaluate_run_manifest(*, run_id: str, engine, dataflow: str, tree,
                          result, wall_s: float,
                          counters: Optional[Mapping[str, Any]] = None,
                          extra: Optional[Mapping[str, Any]] = None
                          ) -> Dict[str, Any]:
    """Ledger manifest for one named-dataflow evaluation (service
    ``evaluate`` jobs).  The champion is the evaluated mapping itself:
    its cost under the engine's objective, the dataflow name, which
    ``repro explain --run`` resolves back into a tree, and the digest of
    that ``tree`` in the engine's namespace as its signature, so two
    runs of one spec diff as the same champion."""
    champion: Dict[str, Any] = {
        "cost": events_mod.jsonable_cost(engine.cost_of(result)),
        "signature": engine.tree_digest(tree),
        "dataflow": dataflow,
        "latency_cycles": events_mod.jsonable_cost(result.latency_cycles),
        "energy_pj": events_mod.jsonable_cost(result.energy_pj),
    }
    return ledger_mod.build_manifest(
        run_id=run_id, command="evaluate", **_subject(engine),
        config=dict(engine.config()),
        seeds={},
        champion=champion,
        counters=dict(counters if counters is not None
                      else engine.stats.to_dict()),
        wall_s=wall_s,
        extra=extra)
