"""Profile reporting: fold a record stream into a summary.

The renderers are pure functions of the records, so the live
``--profile`` path and the offline ``repro stats trace.jsonl`` replay
produce byte-identical summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .events import Record


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


def aggregate_spans(records: Iterable[Record]) -> List[SpanStat]:
    """Per-name stats of the span records, sorted by self-time
    (descending)."""
    spans = [r for r in records if r.type == "span"]
    child_time: Dict[int, float] = {}
    for record in spans:
        parent = record.payload["parent"]
        if parent is not None:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + record.duration_s)
    stats: Dict[str, List[float]] = {}
    selfs: Dict[str, float] = {}
    for record in spans:
        stats.setdefault(record.name, []).append(record.duration_s)
        selfs[record.name] = (selfs.get(record.name, 0.0)
                              + record.duration_s
                              - child_time.get(record.payload["id"], 0.0))
    out = [SpanStat(name=name, count=len(durs), total_s=sum(durs),
                    self_s=selfs[name], min_s=min(durs), max_s=max(durs))
           for name, durs in stats.items()]
    out.sort(key=lambda s: (-s.self_s, s.name))
    return out


def fold_counts(records: Iterable[Record]) -> Dict[str, float]:
    """Totals of the count records, by name."""
    out: Dict[str, float] = {}
    for r in records:
        if r.type == "count":
            out[r.name] = out.get(r.name, 0) + r.payload["n"]
    return out


def fold_gauges(records: Iterable[Record]
                ) -> Dict[str, Tuple[float, float]]:
    """Gauge ``(last, high-water)`` values, by name."""
    out: Dict[str, Tuple[float, float]] = {}
    for r in records:
        if r.type == "gauge":
            value = r.payload["value"]
            high = out[r.name][1] if r.name in out else value
            out[r.name] = (value, max(high, value))
    return out


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f}ms"
    return f"{seconds * 1e6:8.1f}us"


def engine_effectiveness(counts: Optional[Mapping[str, float]]
                         ) -> Optional[Dict[str, float]]:
    """Derived evaluation-engine rates from the ``engine.*`` counters.

    Returns None when the run never touched the engine.  Every
    candidate the engine sees ends in either a full evaluation or a
    pre-screen rejection; ``prescreen_reject_rate`` is the fraction the
    cheap pre-screen rejected before the full model ran.
    """
    counts = counts or {}
    rejects = counts.get("engine.prescreen_rejects", 0)
    evaluations = counts.get("engine.evaluations", 0)
    candidates = rejects + evaluations
    if candidates == 0:
        return None
    return {
        "candidates": candidates,
        "prescreen_rejects": rejects,
        "prescreen_reject_rate": rejects / candidates,
        "full_evaluations": evaluations,
    }


def incremental_effectiveness(counts: Optional[Mapping[str, float]]
                              ) -> Optional[Dict[str, float]]:
    """Derived incremental-analysis rates from the ``engine.*`` counters.

    Returns None when the run never touched the subtree artifact cache
    (no subtree cache, or no engine in the loop).
    ``subtree_hit_rate`` is the fraction of per-subtree artifact lookups
    (slice geometry, boundary-recursion volumes) served from the
    persistent cross-evaluation store instead of being recomputed.
    """
    counts = counts or {}
    hits = counts.get("engine.subtree_hits", 0)
    misses = counts.get("engine.subtree_misses", 0)
    lookups = hits + misses
    if lookups == 0:
        return None
    out: Dict[str, float] = {
        "subtree_hits": hits,
        "subtree_misses": misses,
        "subtree_hit_rate": hits / lookups,
        "subtree_evictions": counts.get("engine.subtree_evictions", 0),
    }
    prefix = "engine.subtree_evictions."
    for name in sorted(counts):
        if name.startswith(prefix):
            out[f"evictions.{name[len(prefix):]}"] = counts[name]
    return out


def render_profile(records: Iterable[Record], top: int = 20) -> str:
    """Human-readable summary: top spans by self-time, counters, gauges
    and the derived engine rates."""
    records = list(records)
    lines: List[str] = []
    stats = aggregate_spans(records)
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

    counts = fold_counts(records)
    gauges = fold_gauges(records)
    if counts:
        lines.append("")
        lines.append("== counters ==")
        for name in sorted(counts):
            lines.append(f"{name:40s} {counts[name]:>12g}")
    if gauges:
        lines.append("")
        lines.append("== gauges (last / high-water) ==")
        for name in sorted(gauges):
            last, high = gauges[name]
            lines.append(f"{name:40s} {last:>12g} / {high:g}")
    eng = engine_effectiveness(counts)
    if eng is not None:
        lines.append("")
        lines.append("== evaluation engine ==")
        lines.append(
            f"{'prescreen rejection rate':40s} "
            f"{eng['prescreen_reject_rate'] * 100:11.1f}% "
            f"({eng['prescreen_rejects']:g} of {eng['candidates']:g} "
            f"candidates, {eng['full_evaluations']:g} full evaluations)")
    inc = incremental_effectiveness(counts)
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
    return "\n".join(lines)


def profile_dict(records: Iterable[Record]) -> Dict[str, Any]:
    """Machine-readable profile (CLI ``stats --json``)."""
    records = list(records)
    counts = fold_counts(records)
    payload: Dict[str, Any] = {
        "spans": [{"name": s.name, "count": s.count, "total_s": s.total_s,
                   "self_s": s.self_s, "mean_s": s.mean_s,
                   "min_s": s.min_s, "max_s": s.max_s}
                  for s in aggregate_spans(records)],
        "counts": dict(sorted(counts.items())),
        "gauges": {name: {"value": last, "max": high}
                   for name, (last, high)
                   in sorted(fold_gauges(records).items())},
    }
    eng = engine_effectiveness(counts)
    if eng is not None:
        payload["engine"] = eng
    inc = incremental_effectiveness(counts)
    if inc is not None:
        payload["incremental"] = inc
    return payload
