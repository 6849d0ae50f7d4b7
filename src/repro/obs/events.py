"""The telemetry stream: one bus, one record type.

Every observation the program makes is a :class:`Record` on an
:class:`EventBus`, stamped with the bus's ``seq`` (one total order) and
read off one clock (:func:`time.perf_counter`):

* ``event`` — a typed fact, registered in :data:`EVENT_TYPES`: GA
  generation summaries, MCTS sample outcomes, pre-screen rejections
  with machine-readable reason codes, subtree-artifact-cache activity,
  and the ``run.start``/``run.end`` framing;
* ``span`` — one finished timed slice of work (``obs.span``);
* ``count`` — one counter increment (``obs.count``);
* ``gauge`` — one sampled value (``obs.gauge``).

The CLI's ``--trace FILE`` writes the stream, ``--profile`` and
``repro stats`` fold it (:mod:`repro.obs.report`), the Chrome exporter
renders it (:mod:`repro.obs.export`), and the evaluation service
streams each job's events to HTTP clients through a
:class:`CallbackSink`.

Two installation scopes: the process-global bus (the CLI's ``--trace``
/ ``--profile`` path) and a per-thread bus (``local=True``) that
shadows it in the installing thread only — the service gives each job
thread its own, so job streams never interleave.  Events go to the
active bus; spans, counts and gauges go only to a global bus installed
with ``profiling=True``, so a job stream carries nothing but ``run``,
``search`` and ``cache`` events while ``repro serve --trace`` still
records every job thread's spans.

Everything is **zero-cost when disabled**: :func:`span` returns a
shared no-op object and :func:`count`/:func:`gauge` return after one
module-global read, and instrumented sites guard event payload
construction behind :func:`is_enabled`.

Every record type and event kind has a JSON Schema (draft-07 subset),
generated by :func:`event_schema`, checked in at
``tests/data/event_schema.json`` and enforced by CI on smoke-run trace
files (``python -m repro.obs --validate trace.jsonl --schema
tests/data/event_schema.json``).

Determinism contract (property-tested in
``tests/property/test_prop_engine.py``): events in the ``search``
category are a pure function of the search trajectory, so a serial run
and a ``--workers N`` run of the same seed emit the *same sequence* of
search events.  Pool workers record their task's records on a private
bus and ship them back as one list; the parent replays each task's list
in submission order.  ``cache`` events describe per-process cache
effectiveness and legitimately differ with the worker count.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (IO, Any, Callable, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple, Union)

#: Bumped whenever a record type, event kind or payload field changes
#: shape.
EVENT_SCHEMA_VERSION = 2

#: Event categories: ``search`` events are worker-count deterministic,
#: ``cache`` events are per-process effectiveness detail, ``run``
#: events frame a CLI/service invocation.
CATEGORIES = ("run", "search", "cache")

#: kind -> (category, {payload field: JSON type}).  ``cost`` is the
#: pseudo-type of a search objective: a finite number, or null for
#: infeasible (JSON has no Infinity).
EVENT_TYPES: Dict[str, Tuple[str, Dict[str, str]]] = {
    "run.start": ("run", {"command": "string", "label": "string"}),
    "run.end": ("run", {"command": "string", "outcome": "string",
                        "wall_s": "number"}),
    "search.progress": ("search", {"phase": "string", "step": "integer",
                                   "total": "integer", "best_cost": "cost"}),
    "ga.generation": ("search", {"generation": "integer",
                                 "best_cost": "cost", "mean_cost": "cost",
                                 "evaluated": "integer",
                                 "reused": "integer"}),
    "mcts.sample": ("search", {"sample": "integer", "cost": "cost",
                               "best_cost": "cost"}),
    "prescreen.reject": ("search", {"mapping": "string", "codes": "array"}),
    "engine.subtree": ("cache", {"kind": "string", "hits": "integer",
                                 "misses": "integer",
                                 "evictions": "integer"}),
}

#: Record type -> {JSON field: JSON type} beyond ``type`` and ``seq``.
#: ``number|null``/``integer|null`` admit null; event payloads are
#: checked per kind against :data:`EVENT_TYPES`.
RECORD_FIELDS: Dict[str, Dict[str, str]] = {
    "event": {"t": "number", "kind": "string", "cat": "string",
              "payload": "object"},
    "span": {"t0": "number", "t1": "number", "name": "string",
             "cat": "string", "id": "integer", "parent": "integer|null",
             "depth": "integer", "attrs": "object"},
    "count": {"t": "number", "name": "string", "n": "number"},
    "gauge": {"t": "number", "name": "string", "value": "number"},
}


def jsonable_cost(cost: Optional[float]) -> Optional[float]:
    """Map a search cost to strict JSON: infinities/NaN become null."""
    if cost is None:
        return None
    cost = float(cost)
    if cost != cost or cost in (float("inf"), float("-inf")):
        return None
    return cost


class Record:
    """One entry of the stream.

    ``name`` is the event kind for ``event`` records and the span,
    counter or gauge name otherwise; ``t`` is the record's time (a
    span's start).  ``payload`` holds the type's own fields: an event's
    payload, a span's ``{id, parent, depth, t1, attrs}``, a count's
    ``{n}``, a gauge's ``{value}``.
    """

    __slots__ = ("type", "name", "cat", "t", "seq", "payload")

    def __init__(self, type: str, name: str, cat: Optional[str], t: float,
                 seq: int, payload: Dict[str, Any]):
        self.type = type
        self.name = name
        self.cat = cat
        self.t = t
        self.seq = seq
        self.payload = payload

    @property
    def duration_s(self) -> float:
        """A span's wall time (spans only)."""
        return self.payload["t1"] - self.t

    def to_json(self) -> Dict[str, Any]:
        if self.type == "event":
            return {"type": "event", "seq": self.seq, "t": self.t,
                    "kind": self.name, "cat": self.cat,
                    "payload": self.payload}
        if self.type == "span":
            return {"type": "span", "seq": self.seq, "t0": self.t,
                    "name": self.name, "cat": self.cat, **self.payload}
        return {"type": self.type, "seq": self.seq, "t": self.t,
                "name": self.name, **self.payload}

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "Record":
        kind = obj.get("type")
        if kind == "event":
            return cls("event", obj["kind"], obj["cat"], obj["t"],
                       obj["seq"], dict(obj["payload"]))
        if kind == "span":
            return cls("span", obj["name"], obj["cat"], obj["t0"],
                       obj["seq"],
                       {key: obj[key] for key in
                        ("id", "parent", "depth", "t1", "attrs")})
        if kind in ("count", "gauge"):
            field = "n" if kind == "count" else "value"
            return cls(kind, obj["name"], None, obj["t"], obj["seq"],
                       {field: obj[field]})
        raise ValueError(f"unknown record type {kind!r}")


# ---------------------------------------------------------------------------
# Sinks.

class Sink:
    """Receives every published record; subclasses override
    :meth:`handle`."""

    def handle(self, record: Record) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by :meth:`EventBus.close`."""


class JsonlSink(Sink):
    """Appends one JSON object per record to a file (or open stream)."""

    def __init__(self, path_or_file: Union[str, IO[str]]):
        self._own = isinstance(path_or_file, str)
        self._fh = (open(path_or_file, "w") if self._own
                    else path_or_file)

    def handle(self, record: Record) -> None:
        self._fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.flush()
        if self._own:
            self._fh.close()


class RingSink(Sink):
    """Bounded in-memory buffer of the most recent records.

    ``capacity=None`` keeps everything (the profile, test capture,
    worker-side recording); a bound makes it a live "recent activity"
    window a server can surface without unbounded growth.
    """

    def __init__(self, capacity: Optional[int] = 4096):
        self.records: "deque[Record]" = deque(maxlen=capacity)
        self.dropped = 0

    def handle(self, record: Record) -> None:
        if (self.records.maxlen is not None
                and len(self.records) == self.records.maxlen):
            self.dropped += 1
        self.records.append(record)


class CallbackSink(Sink):
    """Invokes ``fn(record)`` per record — the streaming hook a server
    subscribes to.  Exceptions are swallowed after ``max_errors``
    strikes (a broken subscriber must not kill the search)."""

    def __init__(self, fn: Callable[[Record], None], max_errors: int = 3):
        self.fn = fn
        self.errors = 0
        self.max_errors = max_errors

    def handle(self, record: Record) -> None:
        if self.errors >= self.max_errors:
            return
        try:
            self.fn(record)
        except Exception:
            self.errors += 1


# ---------------------------------------------------------------------------
# Spans.

class _NoopSpan:
    """Shared do-nothing span used whenever profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class _Span:
    """Live span handle; published as one ``span`` record on exit."""

    __slots__ = ("_bus", "name", "cat", "attrs", "id", "parent", "depth",
                 "t0")

    def __init__(self, bus: "EventBus", name: str, cat: str,
                 attrs: Dict[str, Any]):
        self._bus = bus
        self.name = name
        self.cat = cat
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes to the span while it is running."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        bus = self._bus
        stack = bus._stack()
        self.parent = stack[-1].id if stack else None
        self.depth = len(stack)
        self.id = next(bus._ids)
        stack.append(self)
        self.t0 = bus.clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        bus = self._bus
        t1 = bus.clock()
        stack = bus._stack()
        if stack and stack[-1] is self:
            stack.pop()
        bus._publish("span", self.name, self.cat, self.t0,
                     {"id": self.id, "parent": self.parent,
                      "depth": self.depth, "t1": t1, "attrs": self.attrs})
        return False


# ---------------------------------------------------------------------------
# The bus.

class EventBus:
    """Fans published records out to its sinks, stamping a total order.

    ``seq`` is assigned and sinks are called under one lock, so a bus
    gives one total order, and every sink sees it, even with threaded
    publishers.  Spans nest through a per-thread stack.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(self, sinks: Sequence[Sink] = (),
                 clock: Callable[[], float] = time.perf_counter):
        self._sinks: List[Sink] = list(sinks)
        self._lock = threading.Lock()
        self._seq = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.clock = clock

    def add_sink(self, sink: Sink) -> Sink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        with self._lock:
            self._sinks.remove(sink)

    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _publish(self, type: str, name: str, cat: Optional[str], t: float,
                 payload: Dict[str, Any]) -> Record:
        with self._lock:
            record = Record(type, name, cat, t, self._seq, payload)
            self._seq += 1
            for sink in self._sinks:
                sink.handle(record)
        return record

    def emit(self, _kind: str, _t: Optional[float] = None,
             **payload: Any) -> Record:
        """Publish one typed event."""
        # Positional-style first parameter (``_kind``) so payload fields
        # may themselves be named ``kind`` (e.g. ``engine.subtree``).
        try:
            category = EVENT_TYPES[_kind][0]
        except KeyError:
            raise ValueError(f"unknown event kind {_kind!r}; register it in "
                             f"EVENT_TYPES") from None
        return self._publish("event", _kind, category,
                             self.clock() if _t is None else _t, payload)

    def span(self, name: str, cat: str = "", **attrs: Any) -> _Span:
        """A context manager timing one named slice of work."""
        return _Span(self, name, cat, attrs)

    def count(self, name: str, n: float = 1) -> Record:
        return self._publish("count", name, None, self.clock(), {"n": n})

    def gauge(self, name: str, value: float) -> Record:
        return self._publish("gauge", name, None, self.clock(),
                             {"value": value})

    def replay(self, records: Iterable[Record]) -> int:
        """Re-publish records another bus recorded (a pool worker's).

        Original times are kept; fresh ``seq`` numbers place the records
        deterministically in this bus's order, and span ids are
        renumbered into this bus's id space (a span whose parent is not
        in ``records`` becomes a root).
        """
        records = list(records)
        ids = {r.payload["id"]: next(self._ids)
               for r in records if r.type == "span"}
        for r in records:
            payload = r.payload
            if r.type == "span":
                payload = dict(payload, id=ids[payload["id"]],
                               parent=ids.get(payload["parent"]))
            self._publish(r.type, r.name, r.cat, r.t, payload)
        return len(records)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


# ---------------------------------------------------------------------------
# Module-level installation + the zero-cost entry points.

_bus: Optional[EventBus] = None
#: The global bus when it takes spans, counts and gauges, else None.
_profiler: Optional[EventBus] = None
_local = threading.local()


def enable(bus: Optional[EventBus] = None,
           sinks: Sequence[Sink] = (), *, local: bool = False,
           profiling: bool = False) -> EventBus:
    """Install ``bus`` (or a fresh one over ``sinks``) as the active bus.

    ``local=True`` scopes the installation to the calling thread; a
    thread-local bus shadows the global one for that thread's events.
    ``profiling=True`` makes the global bus take spans, counts and
    gauges too (from every thread).
    """
    global _bus, _profiler
    if local and profiling:
        raise ValueError("profiling records go to the process-global bus")
    installed = bus if bus is not None else EventBus(sinks)
    if local:
        _local.bus = installed
    else:
        _bus = installed
        _profiler = installed if profiling else None
    return installed


def disable(*, local: bool = False) -> Optional[EventBus]:
    """Remove the active (global or thread-local) bus; returns it."""
    global _bus, _profiler
    if local:
        bus = getattr(_local, "bus", None)
        _local.bus = None
        return bus
    bus, _bus, _profiler = _bus, None, None
    return bus


def active() -> Optional[EventBus]:
    bus = getattr(_local, "bus", None)
    return bus if bus is not None else _bus


def is_enabled() -> bool:
    """Whether events are being recorded on this thread."""
    return (_bus is not None
            or getattr(_local, "bus", None) is not None)


def is_profiling() -> bool:
    """Whether spans, counts and gauges are being recorded."""
    return _profiler is not None


@contextmanager
def capture() -> Iterator[RingSink]:
    """Collect every record published inside the block.

    Adds an unbounded :class:`RingSink` to the profiling bus, installing
    one (and restoring the previous global bus afterwards) when none is.
    """
    sink = RingSink(capacity=None)
    bus = _profiler
    if bus is not None:
        bus.add_sink(sink)
        try:
            yield sink
        finally:
            bus.remove_sink(sink)
        return
    previous = _bus
    enable(sinks=[sink], profiling=True)
    try:
        yield sink
    finally:
        disable()
        if previous is not None:
            enable(previous)


def emit(_kind: str, **payload: Any) -> Optional[Record]:
    """Emit against the active bus; no-op (returns None) when disabled.

    Hot paths should guard with ``if events.is_enabled():`` *before*
    building the payload so disabled-mode cost stays at one call+branch.
    """
    bus = active()
    if bus is None:
        return None
    return bus.emit(_kind, **payload)


def span(name: str, cat: str = "", **attrs: Any):
    """Timed span on the profiling bus; the shared no-op when off."""
    bus = _profiler
    if bus is None:
        return NOOP_SPAN
    return _Span(bus, name, cat, attrs)


def traced(name: Optional[str] = None, category: str = ""):
    """Decorator wrapping a callable in a span (zero-cost when off).

    Used by the experiment drivers so every figure/table regeneration
    records one top-level span named ``experiment.<function>``.
    """
    def decorate(fn: Callable) -> Callable:
        label = name or f"experiment.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            bus = _profiler
            if bus is None:
                return fn(*args, **kwargs)
            with _Span(bus, label, category, {}):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def count(name: str, n: float = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op unless profiling)."""
    bus = _profiler
    if bus is not None:
        bus.count(name, n)


def gauge(name: str, value: float) -> None:
    """Sample gauge ``name`` (no-op unless profiling)."""
    bus = _profiler
    if bus is not None:
        bus.gauge(name, value)


def replay(records: Iterable[Record]) -> int:
    """Replay a pool worker's records in order: events into the active
    bus, spans, counts and gauges into the profiling bus.  Returns the
    number of records published."""
    records = list(records)
    bus, profiler = active(), _profiler
    if bus is profiler:
        return bus.replay(records) if bus is not None else 0
    n = 0
    if bus is not None:
        n += bus.replay(r for r in records if r.type == "event")
    if profiler is not None:
        n += profiler.replay(r for r in records if r.type != "event")
    return n


# ---------------------------------------------------------------------------
# Trace files.

def load_jsonl(path_or_file: Union[str, IO[str]]) -> List[Record]:
    """Read a ``--trace`` JSONL file back into its records.

    Raises ``ValueError`` (``json.JSONDecodeError`` included) on a line
    that is not a record.
    """
    own = isinstance(path_or_file, str)
    fh = open(path_or_file) if own else path_or_file
    records: List[Record] = []
    try:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            try:
                records.append(Record.from_json(obj))
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise ValueError(f"line {lineno}: not a trace record "
                                 f"({type(exc).__name__}: {exc})") from None
    finally:
        if own:
            fh.close()
    return records


# ---------------------------------------------------------------------------
# Schema generation + validation (CI gate).

def _field_schema(ftype: str) -> Dict[str, Any]:
    if ftype == "cost":
        return {"type": ["number", "null"]}
    if "|" in ftype:
        return {"type": ftype.split("|")}
    return {"type": ftype}


def event_schema() -> Dict[str, Any]:
    """The JSON Schema (draft-07 subset) of one trace-file line.

    Generated from :data:`RECORD_FIELDS` and :data:`EVENT_TYPES`; the
    checked-in copy at ``tests/data/event_schema.json`` must match
    (``tests/unit/test_events.py`` enforces it).
    """
    kinds = []
    for kind in sorted(EVENT_TYPES):
        category, fields = EVENT_TYPES[kind]
        kinds.append({
            "if": {"properties": {"kind": {"const": kind}}},
            "then": {"properties": {
                "cat": {"const": category},
                "payload": {
                    "type": "object",
                    "required": sorted(fields),
                    "properties": {name: _field_schema(ftype)
                                   for name, ftype in sorted(fields.items())},
                    "additionalProperties": False,
                }}},
        })
    branches = []
    for rtype in sorted(RECORD_FIELDS):
        fields = dict(RECORD_FIELDS[rtype])
        properties = {name: _field_schema(ftype)
                      for name, ftype in sorted(fields.items())}
        properties["type"] = {"const": rtype}
        properties["seq"] = {"type": "integer", "minimum": 0}
        then: Dict[str, Any] = {
            "required": sorted(set(fields) | {"type", "seq"}),
            "properties": properties,
            "additionalProperties": False,
        }
        if rtype == "event":
            properties["kind"] = {"enum": sorted(EVENT_TYPES)}
            properties["cat"] = {"enum": sorted(CATEGORIES)}
            then["allOf"] = kinds
        branches.append({"if": {"properties": {"type": {"const": rtype}}},
                         "then": then})
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "repro telemetry stream (one record per line)",
        "version": EVENT_SCHEMA_VERSION,
        "type": "object",
        "required": ["type", "seq"],
        "properties": {"type": {"enum": sorted(RECORD_FIELDS)}},
        "allOf": branches,
    }


_JSON_TYPES = {
    "string": str, "integer": int, "number": (int, float),
    "boolean": bool, "array": list, "object": dict,
}


def _is_a(value: Any, ftype: str) -> bool:
    if ftype == "cost":
        ftype = "number|null"
    return any(value is None if t == "null"
               else (isinstance(value, _JSON_TYPES[t])
                     and not (t in ("integer", "number")
                              and isinstance(value, bool)))
               for t in ftype.split("|"))


def _check_fields(label: str, obj: Mapping[str, Any],
                  fields: Mapping[str, str], extra_ok: Sequence[str] = ()
                  ) -> List[str]:
    problems: List[str] = []
    for name, ftype in fields.items():
        if name not in obj:
            problems.append(f"{label}: missing field {name!r}")
        elif not _is_a(obj[name], ftype):
            problems.append(f"{label}: field {name!r} = {obj[name]!r} "
                            f"is not a {ftype}")
    extra = sorted(set(obj) - set(fields) - set(extra_ok))
    if extra:
        problems.append(f"{label}: unexpected fields {extra}")
    return problems


def validate_record(obj: Mapping[str, Any]) -> List[str]:
    """Problems with one decoded trace line; empty means valid.

    The same contract :func:`event_schema` renders as JSON Schema,
    enforced without a third-party validator dependency.
    """
    rtype = obj.get("type")
    fields = RECORD_FIELDS.get(rtype)  # type: ignore[arg-type]
    if fields is None:
        return [f"unknown record type {rtype!r}"]
    seq = obj.get("seq")
    problems = ([] if _is_a(seq, "integer") and seq >= 0
                else [f"seq {seq!r} is not a non-negative integer"])
    problems += _check_fields(rtype, obj, fields, extra_ok=("type", "seq"))
    if rtype != "event" or problems:
        return problems
    kind = obj["kind"]
    spec = EVENT_TYPES.get(kind)
    if spec is None:
        return [f"unknown event kind {kind!r}"]
    category, payload_fields = spec
    if obj["cat"] != category:
        problems.append(f"{kind}: cat {obj['cat']!r} != {category!r}")
    return problems + _check_fields(f"{kind} payload", obj["payload"],
                                    payload_fields)


def validate_jsonl(path_or_file: Union[str, IO[str]]) -> List[str]:
    """Validate a whole trace JSONL file; returns all problems."""
    own = isinstance(path_or_file, str)
    fh = open(path_or_file) if own else path_or_file
    problems: List[str] = []
    try:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not JSON ({exc})")
                continue
            problems.extend(f"line {lineno}: {p}"
                            for p in validate_record(obj))
    finally:
        if own:
            fh.close()
    return problems


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """CI entry point: ``python -m repro.obs --validate F [...]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="validate trace JSONL files / print the schema")
    parser.add_argument("--validate", nargs="*", default=None,
                        metavar="FILE", help="trace files to validate")
    parser.add_argument("--schema", default=None, metavar="FILE",
                        help="checked-in schema that must match the "
                             "generated one")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the generated JSON Schema and exit")
    args = parser.parse_args(argv)
    if args.print_schema:
        print(json.dumps(event_schema(), indent=2, sort_keys=True))
        return 0
    rc = 0
    if args.schema is not None:
        with open(args.schema) as fh:
            checked_in = json.load(fh)
        if checked_in != event_schema():
            print(f"{args.schema} does not match the generated schema; "
                  f"regenerate with --print-schema")
            rc = 1
        else:
            print(f"{args.schema}: matches the record registry")
    for path in args.validate or ():
        problems = validate_jsonl(path)
        if problems:
            rc = 1
            for p in problems:
                print(f"{path}: {p}")
        else:
            print(f"{path}: OK")
    return rc


if __name__ == "__main__":  # pragma: no cover
    import sys
    sys.exit(main())
