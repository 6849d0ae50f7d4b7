"""``repro explain``: where one evaluation's time and artifacts come from.

Given a tiling tree, :func:`explain_tree` answers three questions the
profile report can only hint at:

* **per-pass self-time** — how long each analysis pass takes, measured
  twice: a *cold* evaluation (empty subtree artifact cache) and a *warm*
  repeat of the identical tree (every subtree artifact cached);
* **artifact provenance** — for each artifact kind the cache holds
  (``slices``, slice geometry, and ``walkvol``, data-movement volumes),
  how many lookups were served by the persistent
  :class:`SubtreeArtifactCache` versus computed fresh, plus how many
  repeat slice lookups the per-evaluation
  :class:`~repro.analysis.context.AnalysisContext` memo absorbed;
* **the exact pre-screen bound** — which machine-readable reason code
  (``compute.mac``, ``compute.vector``, ``memory.capacity:<level>``)
  would reject the mapping before full analysis, if any.

The cold/warm pair runs through the *engine* (two full evaluations of
the same tree sharing one subtree cache), so the reported per-kind
hit/miss deltas are exactly the engine's own
``subtree_hits``/``subtree_misses`` counter movement — the unit tests
assert that equality.  This module imports the engine, so it must never
be imported from ``repro.obs.__init__`` (cycle); the CLI loads it
lazily.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .. import obs
from ..arch import Architecture
from ..tile.tree import AnalysisTree

#: Span-name prefix of analysis passes (see ``repro.analysis.pipeline``).
_PASS_PREFIX = "model.pass."


def _pass_times(records) -> Dict[str, float]:
    """Per-pass self time (seconds) from one evaluation's records."""
    spans = [r for r in records if r.type == "span"]
    child_time: Dict[int, float] = {}
    for s in spans:
        parent = s.payload["parent"]
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + s.duration_s
    out: Dict[str, float] = {}
    for s in spans:
        if s.name.startswith(_PASS_PREFIX):
            name = s.name[len(_PASS_PREFIX):]
            out[name] = (out.get(name, 0.0) + s.duration_s
                         - child_time.get(s.payload["id"], 0.0))
    return out


def _kind_delta(after: Dict[str, tuple], before: Dict[str, tuple]
                ) -> Dict[str, Dict[str, int]]:
    out: Dict[str, Dict[str, int]] = {}
    for kind in sorted(after):
        h, m, e = after[kind]
        bh, bm, be = before.get(kind, (0, 0, 0))
        if h > bh or m > bm or e > be:
            out[kind] = {"hits": h - bh, "misses": m - bm,
                         "evictions": e - be}
    return out


def explain_tree(tree: AnalysisTree, arch: Architecture, *,
                 engine=None, respect_memory: bool = True
                 ) -> Dict[str, Any]:
    """The provenance/timing report of evaluating ``tree`` (see module
    docstring).  Pass a fresh ``engine`` (or none) for a true cold
    round; a shared engine reports *its* current cache state instead.
    """
    from ..engine import EvaluationEngine
    from ..engine.prescreen import prescreen

    if engine is None:
        engine = EvaluationEngine(tree.workload, arch,
                                  respect_memory=respect_memory)

    subtree = engine.subtree_cache
    rounds: Dict[str, Dict[str, Any]] = {}
    results = {}
    with obs.capture() as sink:
        for label in ("cold", "warm"):
            mark = len(sink.records)
            kinds_before = (subtree.counts_by_kind()
                            if subtree is not None else {})
            stats_before = engine.stats.to_dict()
            results[label] = engine.evaluate_tree(tree, full=True)
            stats_after = engine.stats.to_dict()
            rounds[label] = {
                "pass_seconds": _pass_times(list(sink.records)[mark:]),
                "subtree_by_kind": _kind_delta(
                    subtree.counts_by_kind() if subtree is not None else {},
                    kinds_before),
                "engine_delta": {k: stats_after[k] - stats_before[k]
                                 for k in stats_after
                                 if stats_after[k] != stats_before[k]},
            }

    # Context-memo absorption: a cache-free evaluation of the same tree
    # counts how many repeat artifact lookups the per-evaluation context
    # memo serves (work neither the subtree cache nor fresh computation
    # sees).
    ctx = engine.model.context(tree, artifact_cache=None)
    engine.model.evaluate(tree, context=ctx)
    context_memo_hits = ctx.memo_hits

    # The pre-screen verdict, on its own cache-free context so its
    # counters stay out of the cold/warm provenance above.
    pre_ctx = engine.model.context(tree, artifact_cache=None)
    violations = prescreen(tree, arch,
                           check_memory=engine.respect_memory,
                           context=pre_ctx)
    codes = list(pre_ctx.get("bound_violation_codes") or ())

    result = results["warm"]
    return {
        "tree": tree.name,
        "workload": tree.workload.name,
        "arch": arch.name,
        "rounds": rounds,
        "provenance": {
            "context_memo_hits": context_memo_hits,
            "cold": rounds["cold"]["subtree_by_kind"],
            "warm": rounds["warm"]["subtree_by_kind"],
        },
        "prescreen": {
            "feasible": not violations,
            "violations": list(violations),
            "codes": codes,
        },
        "result": result.to_dict(),
    }


def tree_from_manifest(manifest: Dict[str, Any]):
    """Rebuild a ledger run's champion tree: ``(tree, arch)``.

    Works on both manifest flavours the CLI and the evaluation service
    record: ``search`` manifests carry the champion's JSON genome
    ``encoding`` plus its tiling ``factors``; ``evaluate`` manifests
    carry the ``dataflow`` name.  Workload/arch come from the registry
    by name, cross-checked against the manifest's fingerprints so a
    drifted registry (different shapes than when the run was recorded)
    fails loudly instead of explaining the wrong mapping.
    """
    from .. import arch as arch_mod
    from .. import workloads as workloads_mod
    from ..dataflows import dataflow_for
    from ..engine.signature import (arch_fingerprint, digest,
                                    workload_fingerprint)
    from ..mapper.encoding import Genome, build_genome_tree
    from .ledger import LedgerError

    workload_info = dict(manifest.get("workload") or {})
    arch_info = dict(manifest.get("arch") or {})
    try:
        workload = workloads_mod.by_name(str(workload_info.get("name")))
    except KeyError as exc:
        raise LedgerError(f"manifest workload not in the registry: "
                          f"{exc.args[0] if exc.args else exc}")
    try:
        arch = arch_mod.by_name(str(arch_info.get("name")))
    except KeyError as exc:
        raise LedgerError(f"manifest arch not in the registry: "
                          f"{exc.args[0] if exc.args else exc}")
    for label, info, fp in (
            ("workload", workload_info,
             digest(workload_fingerprint(workload))),
            ("arch", arch_info, digest(arch_fingerprint(arch)))):
        recorded = info.get("fingerprint")
        if recorded is not None and recorded != fp:
            raise LedgerError(
                f"{label} {info.get('name')!r} has fingerprint {fp} in "
                f"this build but {recorded} in the manifest; the "
                f"registry shape has changed since the run was recorded")

    champion = dict(manifest.get("champion") or {})
    if champion.get("encoding") is not None:
        genome = Genome.from_encoding(champion["encoding"])
        factors = {str(k): int(v)
                   for k, v in dict(champion.get("factors") or {}).items()}
        return build_genome_tree(workload, arch, genome, factors), arch
    if champion.get("dataflow"):
        return dataflow_for(workload, str(champion["dataflow"]),
                            arch), arch
    raise LedgerError(
        f"run {manifest.get('run_id')!r} has no explainable champion: "
        f"the manifest carries neither a genome encoding nor a dataflow "
        f"name (recorded by an older build?)")


def render_explain(report: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`explain_tree` output."""
    lines: List[str] = [
        f"explain: tree {report['tree']!r} "
        f"(workload {report['workload']}, arch {report['arch']})",
        "",
        "== per-pass self-time (cold vs warm subtree cache) ==",
    ]
    cold = report["rounds"]["cold"]["pass_seconds"]
    warm = report["rounds"]["warm"]["pass_seconds"]
    names = [n for n in cold] + [n for n in warm if n not in cold]
    if names:
        lines.append(f"{'pass':16s} {'cold':>12s} {'warm':>12s} "
                     f"{'speedup':>8s}")
        for name in names:
            c, w = cold.get(name, 0.0), warm.get(name, 0.0)
            ratio = f"{c / w:7.2f}x" if w > 0 else "       -"
            lines.append(f"{name:16s} {c * 1e3:10.3f}ms {w * 1e3:10.3f}ms "
                         f"{ratio}")
    else:
        lines.append("  (no pass spans recorded)")

    lines.append("")
    lines.append("== artifact provenance ==")
    prov = report["provenance"]
    kinds = sorted(set(prov["cold"]) | set(prov["warm"]))
    if kinds:
        lines.append(f"{'kind':10s} {'cold hit/miss':>16s} "
                     f"{'warm hit/miss':>16s}")
        for kind in kinds:
            c = prov["cold"].get(kind, {})
            w = prov["warm"].get(kind, {})
            lines.append(
                f"{kind:10s} "
                f"{c.get('hits', 0):>7d}/{c.get('misses', 0):<8d} "
                f"{w.get('hits', 0):>7d}/{w.get('misses', 0):<8d}")
    lines.append(f"context-memo repeat lookups absorbed : "
                 f"{prov['context_memo_hits']}")

    lines.append("")
    pre = report["prescreen"]
    if pre["feasible"]:
        lines.append("prescreen: mapping passes every cheap bound")
    else:
        lines.append("prescreen: REJECTED — bounds that fired:")
        for code, text in zip(pre["codes"], pre["violations"]):
            lines.append(f"  [{code}] {text}")
    return "\n".join(lines)
