"""Structured event bus: typed, subscribable search/engine telemetry.

Spans (:mod:`repro.obs.trace`) answer *where does time go* and metrics
(:mod:`repro.obs.metrics`) answer *how much*; events answer *what
happened, in order*: GA generation summaries, MCTS sample outcomes,
pre-screen rejections with machine-readable reason codes, and
subtree-artifact-cache activity.  A long-lived
evaluation server streams search progress by subscribing a callback
sink to this bus; the CLI writes the same stream to a JSONL file
(``--events FILE``).

Like the rest of ``repro.obs`` the bus is **zero-cost when disabled**:
instrumented sites guard payload construction behind
:func:`is_enabled` (a single module-global read), so with no bus
installed a hot path pays one function call and one branch per site.

Every event kind is registered in :data:`EVENT_TYPES` with its payload
field types; :func:`event_schema` renders the registry as a JSON Schema
(draft-07 subset) that is checked in at ``tests/data/event_schema.json``
and enforced by CI on a smoke run (``python -m repro.obs.events
--validate events.jsonl --schema tests/data/event_schema.json``).

Determinism contract (property-tested in
``tests/property/test_prop_engine.py``): events in the ``search``
category are a pure function of the search trajectory, so a serial run
and a ``--workers N`` run of the same seed emit the *same sequence* of
search events — worker processes record their events locally and the
parent replays each task's stream in submission order.  ``cache``
events describe per-process cache effectiveness and legitimately differ
with the worker count (each worker owns private caches).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import (IO, Any, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple, Union)

#: Bumped whenever an event kind or payload field changes shape.
EVENT_SCHEMA_VERSION = 1

#: Event categories: ``search`` events are worker-count deterministic,
#: ``cache`` events are per-process effectiveness detail, ``run``
#: events frame a CLI/service invocation (and carry wall-clock).
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


def jsonable_cost(cost: Optional[float]) -> Optional[float]:
    """Map a search cost to strict JSON: infinities/NaN become null."""
    if cost is None:
        return None
    cost = float(cost)
    if cost != cost or cost in (float("inf"), float("-inf")):
        return None
    return cost


class Event:
    """One emitted event: a kind, a deterministic payload, a timestamp."""

    __slots__ = ("kind", "category", "payload", "t", "seq")

    def __init__(self, kind: str, category: str, payload: Dict[str, Any],
                 t: float, seq: int):
        self.kind = kind
        self.category = category
        self.payload = payload
        self.t = t
        self.seq = seq

    def to_json(self) -> Dict[str, Any]:
        return {"type": "event", "seq": self.seq, "t": self.t,
                "kind": self.kind, "cat": self.category,
                "payload": self.payload}

    def __repr__(self) -> str:
        return f"Event({self.kind!r}, seq={self.seq}, {self.payload!r})"


# ---------------------------------------------------------------------------
# Sinks.

class Sink:
    """Receives every emitted event; subclasses override :meth:`handle`."""

    def handle(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; called by :func:`disable`."""


class JsonlSink(Sink):
    """Appends one JSON object per event to a file (or open stream)."""

    def __init__(self, path_or_file: Union[str, IO[str]]):
        self._own = isinstance(path_or_file, str)
        self._fh = (open(path_or_file, "w") if self._own
                    else path_or_file)

    def handle(self, event: Event) -> None:
        self._fh.write(json.dumps(event.to_json(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.flush()
        if self._own:
            self._fh.close()


class RingSink(Sink):
    """Bounded in-memory buffer of the most recent events.

    ``capacity=None`` keeps everything (test capture, worker-side
    recording); a bound makes it a live "recent activity" window a
    server can surface without unbounded growth.
    """

    def __init__(self, capacity: Optional[int] = 4096):
        self.events: "deque[Event]" = deque(maxlen=capacity)
        self.dropped = 0

    def handle(self, event: Event) -> None:
        if (self.events.maxlen is not None
                and len(self.events) == self.events.maxlen):
            self.dropped += 1
        self.events.append(event)


class CallbackSink(Sink):
    """Invokes ``fn(event)`` per event — the streaming hook a server
    subscribes to.  Exceptions are swallowed after ``max_errors``
    strikes (a broken subscriber must not kill the search)."""

    def __init__(self, fn: Callable[[Event], None], max_errors: int = 3):
        self.fn = fn
        self.errors = 0
        self.max_errors = max_errors

    def handle(self, event: Event) -> None:
        if self.errors >= self.max_errors:
            return
        try:
            self.fn(event)
        except Exception:
            self.errors += 1


# ---------------------------------------------------------------------------
# The bus.

class EventBus:
    """Fans emitted events out to its sinks, stamping a global order.

    ``seq`` is assigned under a lock at emit time, so one bus gives one
    total order even with threaded emitters; :meth:`replay` re-emits
    worker-recorded events through the same stamping, which is how
    cross-process runs keep a deterministic parent-side order.
    """

    def __init__(self, sinks: Sequence[Sink] = ()):
        self._sinks: List[Sink] = list(sinks)
        self._lock = threading.Lock()
        self._seq = 0
        self.emitted = 0

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        self._sinks.remove(sink)

    def emit(self, _kind: str, _t: Optional[float] = None,
             **payload: Any) -> Event:
        # Positional-style first parameter (``_kind``) so payload fields
        # may themselves be named ``kind`` (e.g. ``engine.subtree``).
        try:
            category = EVENT_TYPES[_kind][0]
        except KeyError:
            raise ValueError(f"unknown event kind {_kind!r}; register it in "
                             f"EVENT_TYPES") from None
        with self._lock:
            seq = self._seq
            self._seq += 1
            self.emitted += 1
        event = Event(_kind, category, payload,
                      time.time() if _t is None else _t, seq)
        for sink in self._sinks:
            sink.handle(event)
        return event

    def replay(self, records: Iterable[Tuple[str, Dict[str, Any], float]]
               ) -> int:
        """Re-emit worker-recorded ``(kind, payload, t)`` tuples in order.

        Original timestamps are preserved; fresh ``seq`` numbers place
        the replayed events deterministically in the parent's stream.
        """
        n = 0
        for kind, payload, t in records:
            self.emit(kind, _t=t, **payload)
            n += 1
        return n

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


# ---------------------------------------------------------------------------
# Module-level enable/disable + the zero-cost emit guard.
#
# Two installation scopes: the process-global bus (the CLI's ``--events``
# path) and a per-thread bus (``local=True``) that takes precedence in
# the installing thread only.  The evaluation service runs concurrent
# jobs on worker threads, each with its own local bus, so job event
# streams never interleave; code emitting events is oblivious to the
# distinction.

_bus: Optional[EventBus] = None
_local = threading.local()


def enable(bus: Optional[EventBus] = None,
           sinks: Sequence[Sink] = (), *, local: bool = False) -> EventBus:
    """Install ``bus`` (or a fresh one over ``sinks``) as the active bus.

    ``local=True`` scopes the installation to the calling thread; a
    thread-local bus shadows the global one for that thread.
    """
    installed = bus if bus is not None else EventBus(sinks)
    if local:
        _local.bus = installed
    else:
        global _bus
        _bus = installed
    return installed


def disable(*, local: bool = False) -> Optional[EventBus]:
    """Remove the active (global or thread-local) bus; returns it."""
    if local:
        bus = getattr(_local, "bus", None)
        _local.bus = None
        return bus
    global _bus
    bus, _bus = _bus, None
    return bus


def active() -> Optional[EventBus]:
    bus = getattr(_local, "bus", None)
    return bus if bus is not None else _bus


def is_enabled() -> bool:
    return (_bus is not None
            or getattr(_local, "bus", None) is not None)


def emit(_kind: str, **payload: Any) -> Optional[Event]:
    """Emit against the active bus; no-op (returns None) when disabled.

    Hot paths should guard with ``if events.is_enabled():`` *before*
    building the payload so disabled-mode cost stays at one call+branch.
    """
    bus = active()
    if bus is None:
        return None
    return bus.emit(_kind, **payload)


def record(records: Iterable[Tuple[str, Dict[str, Any], float]]) -> int:
    """Replay worker-recorded events into the active bus (0 if disabled)."""
    bus = active()
    if bus is None:
        return 0
    return bus.replay(records)


def as_records(events: Iterable[Event]
               ) -> List[Tuple[str, Dict[str, Any], float]]:
    """Picklable ``(kind, payload, t)`` tuples for cross-process shipping."""
    return [(e.kind, dict(e.payload), e.t) for e in events]


# ---------------------------------------------------------------------------
# Schema generation + validation (CI gate).

def event_schema() -> Dict[str, Any]:
    """The JSON Schema (draft-07 subset) of one event-stream line.

    Generated from :data:`EVENT_TYPES`; the checked-in copy at
    ``tests/data/event_schema.json`` must match byte-for-byte
    (``tests/unit/test_events.py`` enforces it).
    """
    def field_schema(ftype: str) -> Dict[str, Any]:
        if ftype == "cost":
            return {"type": ["number", "null"]}
        return {"type": ftype}

    conditionals = []
    for kind in sorted(EVENT_TYPES):
        _category, fields = EVENT_TYPES[kind]
        conditionals.append({
            "if": {"properties": {"kind": {"const": kind}}},
            "then": {"properties": {"payload": {
                "type": "object",
                "required": sorted(fields),
                "properties": {name: field_schema(ftype)
                               for name, ftype in sorted(fields.items())},
                "additionalProperties": False,
            }}},
        })
    return {
        "$schema": "http://json-schema.org/draft-07/schema#",
        "title": "repro structured event stream (one object per line)",
        "version": EVENT_SCHEMA_VERSION,
        "type": "object",
        "required": ["type", "seq", "t", "kind", "cat", "payload"],
        "properties": {
            "type": {"const": "event"},
            "seq": {"type": "integer", "minimum": 0},
            "t": {"type": "number"},
            "kind": {"enum": sorted(EVENT_TYPES)},
            "cat": {"enum": sorted(set(c for c, _ in EVENT_TYPES.values()))},
            "payload": {"type": "object"},
        },
        "additionalProperties": False,
        "allOf": conditionals,
    }


_JSON_TYPES = {
    "string": str, "integer": int, "number": (int, float),
    "boolean": bool, "array": list, "object": dict,
}


def validate_record(obj: Mapping[str, Any]) -> List[str]:
    """Problems with one decoded event line against :data:`EVENT_TYPES`.

    An empty list means the record is valid.  This is the same contract
    :func:`event_schema` renders as JSON Schema, enforced without a
    third-party validator dependency.
    """
    problems: List[str] = []
    for field in ("type", "seq", "t", "kind", "cat", "payload"):
        if field not in obj:
            problems.append(f"missing field {field!r}")
    if problems:
        return problems
    if obj["type"] != "event":
        problems.append(f"type is {obj['type']!r}, expected 'event'")
    if not isinstance(obj["seq"], int) or isinstance(obj["seq"], bool) \
            or obj["seq"] < 0:
        problems.append(f"seq {obj['seq']!r} is not a non-negative integer")
    if not isinstance(obj["t"], (int, float)) or isinstance(obj["t"], bool):
        problems.append(f"t {obj['t']!r} is not a number")
    kind = obj["kind"]
    spec = EVENT_TYPES.get(kind)
    if spec is None:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    category, fields = spec
    if obj["cat"] != category:
        problems.append(f"{kind}: cat {obj['cat']!r} != {category!r}")
    payload = obj["payload"]
    if not isinstance(payload, dict):
        problems.append(f"{kind}: payload is not an object")
        return problems
    for name, ftype in fields.items():
        if name not in payload:
            problems.append(f"{kind}: payload missing {name!r}")
            continue
        value = payload[name]
        if ftype == "cost":
            ok = value is None or (isinstance(value, (int, float))
                                   and not isinstance(value, bool))
        else:
            ok = (isinstance(value, _JSON_TYPES[ftype])
                  and not (ftype in ("integer", "number")
                           and isinstance(value, bool)))
        if not ok:
            problems.append(f"{kind}: payload field {name!r} = {value!r} "
                            f"is not a {ftype}")
    extra = sorted(set(payload) - set(fields))
    if extra:
        problems.append(f"{kind}: unexpected payload fields {extra}")
    return problems


def validate_jsonl(path_or_file: Union[str, IO[str]]) -> List[str]:
    """Validate a whole ``--events`` JSONL file; returns all problems."""
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
    """CI entry point: ``python -m repro.obs.events --validate F [...]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="validate --events JSONL files / print the schema")
    parser.add_argument("--validate", nargs="*", default=None,
                        metavar="FILE", help="event files to validate")
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
            print(f"{args.schema}: matches EVENT_TYPES")
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
