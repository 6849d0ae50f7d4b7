"""Trace exporters: render a record stream for external viewers.

:func:`chrome_trace` converts records into the Chrome Trace Event JSON
format, loadable in ``chrome://tracing`` and https://ui.perfetto.dev —
the CLI's ``--trace FILE --trace-format chrome`` path.  Spans become
``"X"`` complete events with their attributes as ``args``, and counter
totals ride along in ``otherData``.  The exporter is a pure function of
the records, so JSONL and Chrome outputs of the same run describe
identical timings.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, Union

from .events import Record
from .report import fold_counts


def chrome_trace(records: Iterable[Record],
                 process_name: str = "repro") -> Dict[str, Any]:
    """The Chrome Trace Event representation of a recorded session.

    Spans map to ``ph="X"`` complete events with microsecond
    timestamps relative to the earliest span start (Perfetto prefers
    small positive timestamps over raw ``perf_counter`` epochs).
    """
    records = list(records)
    spans = [r for r in records if r.type == "span"]
    t0 = min((s.t for s in spans), default=0.0)
    trace = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    for s in spans:
        args: Dict[str, Any] = {"span_id": s.payload["id"],
                                "depth": s.payload["depth"]}
        for key, value in s.payload["attrs"].items():
            args[key] = (value if isinstance(value, (int, float, str, bool))
                         or value is None else repr(value))
        trace.append({
            "name": s.name,
            "cat": s.cat or "default",
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": (s.t - t0) * 1e6,
            "dur": s.duration_s * 1e6,
            "args": args,
        })
    return {"traceEvents": trace, "displayTimeUnit": "ms",
            "otherData": dict(sorted(fold_counts(records).items()))}


def dump_chrome(path_or_file: Union[str, IO[str]],
                records: Iterable[Record]) -> None:
    """Write :func:`chrome_trace` output as one JSON document."""
    own = isinstance(path_or_file, str)
    fh = open(path_or_file, "w") if own else path_or_file
    try:
        json.dump(chrome_trace(records), fh)
        fh.write("\n")
    finally:
        if own:
            fh.close()
