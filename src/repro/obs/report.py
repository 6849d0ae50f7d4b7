"""Profile reporting: aggregate spans + metrics into a summary.

The renderers are pure functions of ``(spans, metrics_snapshot)`` so the
live ``--profile`` path and the offline ``repro stats trace.jsonl``
replay produce byte-identical summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from .trace import SpanRecord, load_jsonl


@dataclass
class SpanStat:
    """Aggregate timing of all spans sharing one name."""

    name: str
    count: int
    total_s: float
    #: Total minus time spent in direct child spans.
    self_s: float
    min_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


def aggregate_spans(spans: Iterable[SpanRecord]) -> List[SpanStat]:
    """Per-name stats, sorted by self-time (descending)."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for record in spans:
        if record.parent_id is not None:
            child_time[record.parent_id] = (
                child_time.get(record.parent_id, 0.0) + record.duration_s)
    stats: Dict[str, List[float]] = {}
    selfs: Dict[str, float] = {}
    for record in spans:
        stats.setdefault(record.name, []).append(record.duration_s)
        selfs[record.name] = (selfs.get(record.name, 0.0)
                              + record.duration_s
                              - child_time.get(record.span_id, 0.0))
    out = [SpanStat(name=name, count=len(durs), total_s=sum(durs),
                    self_s=selfs[name], min_s=min(durs), max_s=max(durs))
           for name, durs in stats.items()]
    out.sort(key=lambda s: (-s.self_s, s.name))
    return out


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}us"


def engine_effectiveness(metrics: Optional[Mapping[str, Mapping[str, Any]]]
                         ) -> Optional[Dict[str, float]]:
    """Derived evaluation-engine rates from the ``engine.*`` counters.

    Returns None when the run never touched the engine.  Every
    candidate the engine sees ends in either a full evaluation or a
    pre-screen rejection; ``prescreen_reject_rate`` is the fraction the
    cheap pre-screen rejected before the full model ran.
    """
    def value(name: str) -> float:
        snap = (metrics or {}).get(name, {})
        return float(snap.get("value") or 0.0)

    rejects = value("engine.prescreen_rejects")
    evaluations = value("engine.evaluations")
    candidates = rejects + evaluations
    if candidates == 0:
        return None
    return {
        "candidates": candidates,
        "prescreen_rejects": rejects,
        "prescreen_reject_rate": rejects / candidates,
        "full_evaluations": evaluations,
    }


def incremental_effectiveness(metrics: Optional[Mapping[str, Mapping[str,
                                                                     Any]]]
                              ) -> Optional[Dict[str, float]]:
    """Derived incremental-analysis rates from the ``engine.*`` counters.

    Returns None when the run never touched the subtree artifact cache
    (no subtree cache, or no engine in the loop).
    ``subtree_hit_rate`` is the fraction of per-subtree artifact lookups
    (slice geometry, boundary-recursion volumes) served from the
    persistent cross-evaluation store instead of being recomputed.
    """
    def value(name: str) -> float:
        snap = (metrics or {}).get(name, {})
        return float(snap.get("value") or 0.0)

    hits = value("engine.subtree_hits")
    misses = value("engine.subtree_misses")
    evictions = value("engine.subtree_evictions")
    batched = value("engine.batched_evaluations")
    batch_fill = value("engine.batch_fill")
    lookups = hits + misses
    if lookups == 0 and batch_fill == 0:
        return None
    out: Dict[str, float] = {
        "subtree_hits": hits,
        "subtree_misses": misses,
        "subtree_hit_rate": hits / lookups if lookups else 0.0,
        "subtree_evictions": evictions,
        # Batched cohort sweeps: candidates priced by the array-native
        # kernels (committed / attempted) and members bounced back to
        # the scalar path.  ``batch_yield`` is committed over attempted.
        "batched_evaluations": batched,
        "batch_fill": batch_fill,
        "batch_fallbacks": value("engine.batch_fallbacks"),
        "batch_yield": batched / batch_fill if batch_fill else 0.0,
    }
    prefix = "engine.subtree_evictions."
    for name in sorted(metrics or {}):
        if name.startswith(prefix):
            out[f"evictions.{name[len(prefix):]}"] = value(name)
    return out


def render_profile(spans: Sequence[SpanRecord],
                   metrics: Optional[Mapping[str, Mapping[str, Any]]] = None,
                   top: int = 20) -> str:
    """Human-readable summary: top spans by self-time + metric tables."""
    lines: List[str] = []
    stats = aggregate_spans(spans)
    lines.append("== profile: spans by self-time ==")
    if stats:
        lines.append(f"{'span':32s} {'count':>7s} {'total':>10s} "
                     f"{'self':>10s} {'mean':>10s}")
        for stat in stats[:top]:
            lines.append(
                f"{stat.name:32s} {stat.count:7d} "
                f"{_fmt_seconds(stat.total_s)} {_fmt_seconds(stat.self_s)} "
                f"{_fmt_seconds(stat.mean_s)}")
        if len(stats) > top:
            lines.append(f"  ... {len(stats) - top} more span name(s)")
    else:
        lines.append("  (no spans recorded)")

    counters = {n: s for n, s in (metrics or {}).items()
                if s.get("kind") == "counter"}
    gauges = {n: s for n, s in (metrics or {}).items()
              if s.get("kind") == "gauge"}
    histograms = {n: s for n, s in (metrics or {}).items()
                  if s.get("kind") == "histogram"}
    if counters:
        lines.append("")
        lines.append("== counters ==")
        for name in sorted(counters):
            lines.append(f"{name:40s} {counters[name].get('value', 0):>12g}")
    if gauges:
        lines.append("")
        lines.append("== gauges (last / high-water) ==")
        for name in sorted(gauges):
            snap = gauges[name]
            value = snap.get("value")
            high = snap.get("max")
            lines.append(f"{name:40s} "
                         f"{'-' if value is None else format(value, '>12g')}"
                         f" / "
                         f"{'-' if high is None else format(high, 'g')}")
    if histograms:
        lines.append("")
        lines.append("== histograms (count / mean / max) ==")
        for name in sorted(histograms):
            snap = histograms[name]
            mean = snap.get("mean", 0.0)
            lines.append(f"{name:40s} {snap.get('count', 0):>8d} / "
                         f"{mean:g} / {snap.get('max')}")
    eng = engine_effectiveness(metrics)
    if eng is not None:
        lines.append("")
        lines.append("== evaluation engine ==")
        lines.append(
            f"{'prescreen rejection rate':40s} "
            f"{eng['prescreen_reject_rate'] * 100:11.1f}% "
            f"({eng['prescreen_rejects']:g} of {eng['candidates']:g} "
            f"candidates, {eng['full_evaluations']:g} full evaluations)")
    inc = incremental_effectiveness(metrics)
    if inc is not None:
        lines.append("")
        lines.append("== incremental analysis ==")
        lines.append(
            f"{'subtree artifact hit rate':40s} "
            f"{inc['subtree_hit_rate'] * 100:11.1f}% "
            f"({inc['subtree_hits']:g} of "
            f"{inc['subtree_hits'] + inc['subtree_misses']:g} lookups "
            f"served from the cross-evaluation cache)")
        if inc.get("subtree_evictions"):
            by_kind = ", ".join(
                f"{key[len('evictions.'):]}={inc[key]:g}"
                for key in sorted(inc) if key.startswith("evictions."))
            lines.append(
                f"{'subtree cache evictions':40s} "
                f"{inc['subtree_evictions']:>12g}"
                + (f"  ({by_kind})" if by_kind else ""))
        if inc.get("batch_fill"):
            lines.append(
                f"{'batched candidate pricing':40s} "
                f"{inc['batch_yield'] * 100:11.1f}% "
                f"({inc['batched_evaluations']:g} of "
                f"{inc['batch_fill']:g} swept candidates committed, "
                f"{inc['batch_fallbacks']:g} scalar fallbacks)")
    return "\n".join(lines)


def profile_dict(spans: Sequence[SpanRecord],
                 metrics: Optional[Mapping[str, Mapping[str, Any]]] = None
                 ) -> Dict[str, Any]:
    """Machine-readable profile (CLI ``stats --json``)."""
    payload: Dict[str, Any] = {
        "spans": [{"name": s.name, "count": s.count, "total_s": s.total_s,
                   "self_s": s.self_s, "mean_s": s.mean_s,
                   "min_s": s.min_s, "max_s": s.max_s}
                  for s in aggregate_spans(spans)],
        "metrics": {name: dict(snap)
                    for name, snap in sorted((metrics or {}).items())},
    }
    eng = engine_effectiveness(metrics)
    if eng is not None:
        payload["engine"] = eng
    inc = incremental_effectiveness(metrics)
    if inc is not None:
        payload["incremental"] = inc
    return payload


def summarize_trace_file(path: str, top: int = 20) -> str:
    """Replay a JSONL trace file into the same summary ``--profile`` prints."""
    spans, metrics = load_jsonl(path)
    return render_profile(spans, metrics, top=top)
