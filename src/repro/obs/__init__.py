"""Observability: one telemetry stream, its reports, and the run ledger.

One import point for instrumented code::

    from .. import obs

    with obs.span("model.evaluate"):
        obs.count("model.infeasible")
        ...

Spans, counts, gauges and typed events are all records on one
:class:`EventBus` (:mod:`repro.obs.events`).  Spans, counts and gauges
are recorded only while a global bus is installed with
``profiling=True`` (the CLI does this for ``--trace``/``--profile``);
otherwise ``obs.span`` returns a shared no-op object and the counter
helpers return after one module-global read, so the analytical
model's benchmark numbers are unaffected.

See ``docs/OBSERVABILITY.md`` for the record format and the
span/counter/event taxonomy.
"""

from __future__ import annotations

# NOTE: ``explain`` is deliberately NOT imported here — it depends on
# the evaluation engine, which imports this package (cycle); the CLI
# imports it lazily.
from . import events, export, ledger
from .events import (NOOP_SPAN, CallbackSink, EventBus, JsonlSink, Record,
                     RingSink, capture, count, gauge, jsonable_cost,
                     load_jsonl, span, traced)
from .events import is_profiling as is_enabled
from .export import chrome_trace, dump_chrome
from .ledger import RunLedger, build_manifest, diff_manifests
from .report import (SpanStat, aggregate_spans, engine_effectiveness,
                     fold_counts, fold_gauges,
                     incremental_effectiveness, profile_dict,
                     render_profile)

__all__ = [
    "span", "traced", "count", "gauge", "NOOP_SPAN", "is_enabled",
    "capture", "load_jsonl",
    "Record", "EventBus", "JsonlSink", "RingSink", "CallbackSink",
    "jsonable_cost", "events", "export", "ledger",
    "SpanStat", "aggregate_spans", "fold_counts", "fold_gauges",
    "render_profile", "profile_dict",
    "engine_effectiveness", "incremental_effectiveness",
    "chrome_trace", "dump_chrome",
    "RunLedger", "build_manifest", "diff_manifests",
]
