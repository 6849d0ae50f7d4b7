"""Job model and queue for the evaluation service.

A *job* is one unit of submitted work (``evaluate`` / ``search`` /
``sweep``) moving through a strict state machine::

    queued ──claim──> running ──finish──> done
      │                  └──────fail────> failed
      └───cancel──> cancelled   (queued jobs only)

:class:`JobQueue` owns every transition under one lock, so observers
(HTTP handlers, the stats endpoint) always see a consistent state, and
enforces the service's backpressure bound: submissions beyond
``max_queue`` pending jobs raise :class:`QueueFull` (the API maps this
to HTTP 429), submissions after :meth:`close` raise
:class:`QueueClosed` (503 + ``Retry-After`` while draining).

Each job also buffers its own event stream (the per-job
:class:`~repro.obs.events.CallbackSink` appends here) guarded by a
condition variable, which is what ``GET /jobs/<id>/events`` long-polls
to stream NDJSON progress while the job runs.  The buffer keeps the
first :data:`MAX_JOB_EVENTS` events and then only ``run.end``; the rest
are counted as ``events_dropped``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

JOB_KINDS = ("evaluate", "search", "sweep")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: Events one job buffers before it drops all but ``run.end``: a search
#: at CLI defaults emits about 1,000, while the largest search
#: ``validate_spec`` admits emits over 8 million ``mcts.sample`` events,
#: about 500 bytes each.
MAX_JOB_EVENTS = 20_000


class QueueFull(Exception):
    """Backpressure: the pending queue is at its ``max_queue`` bound."""


class QueueClosed(Exception):
    """The service is draining and accepts no further submissions."""


class UnknownJob(KeyError):
    """No job with the requested id."""


class InvalidTransition(Exception):
    """A state-machine move that the job's current state forbids."""


class Job:
    """One submitted unit of work plus its buffered event stream."""

    def __init__(self, job_id: str, kind: str, spec: Dict[str, Any]):
        self.id = job_id
        self.kind = kind
        self.spec = dict(spec)
        self.state = QUEUED
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        #: Ledger run id of the job's result (``runs/<id>/``): its own
        #: run, or for a repeat evaluate job its slot's first run.
        self.run_id: Optional[str] = None
        #: The job's event stream (JSON-safe dicts, emission order): the
        #: first :data:`MAX_JOB_EVENTS` events, then only ``run.end``.
        self.events: List[Dict[str, Any]] = []
        #: Events not buffered because the stream was over the cap.
        self.events_dropped = 0
        self._cond = threading.Condition()

    # -- event stream ----------------------------------------------------
    def append_event(self, event: Dict[str, Any]) -> None:
        with self._cond:
            if (len(self.events) < MAX_JOB_EVENTS
                    or event.get("kind") == "run.end"):
                self.events.append(event)
            else:
                self.events_dropped += 1
            self._cond.notify_all()

    def wait_events(self, since: int, timeout: Optional[float] = 0.5
                    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past index ``since`` plus a "stream over" flag.

        Blocks up to ``timeout`` seconds for new events; the flag is
        True once the job is terminal *and* everything buffered has been
        returned — the streaming handler's stop condition.
        """
        with self._cond:
            if len(self.events) <= since and self.state not in \
                    TERMINAL_STATES:
                self._cond.wait(timeout)
            fresh = self.events[since:]
            done = (self.state in TERMINAL_STATES
                    and since + len(fresh) >= len(self.events))
            return fresh, done

    def _mark(self, state: str) -> None:
        """Set a terminal/running state and wake event stream waiters."""
        with self._cond:
            self.state = state
            self._cond.notify_all()

    # -- views -----------------------------------------------------------
    def to_dict(self, verbose: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "id": self.id, "kind": self.kind, "state": self.state,
            "created": self.created, "started": self.started,
            "finished": self.finished, "events": len(self.events),
            "events_dropped": self.events_dropped, "run_id": self.run_id,
        }
        if self.error is not None:
            out["error"] = self.error
        if verbose:
            out["spec"] = dict(self.spec)
            if self.result is not None:
                out["result"] = self.result
        return out


class JobQueue:
    """FIFO pending queue + registry of every job ever submitted.

    All transitions happen under one lock; worker threads block in
    :meth:`claim` until a job is pending (or the queue closes).
    Terminal jobs stay inspectable; beyond ``max_jobs`` retained jobs
    the oldest terminal ones are pruned.
    """

    def __init__(self, max_queue: int = 64, max_jobs: int = 1024):
        self.max_queue = int(max_queue)
        self.max_jobs = int(max_jobs)
        self._lock = threading.Lock()
        self._pending_cond = threading.Condition(self._lock)
        self._jobs: "Dict[str, Job]" = {}
        self._order: List[str] = []
        self._pending: "deque[Job]" = deque()
        self._closed = False
        self._counter = 0
        self.rejected_full = 0
        self.rejected_closed = 0

    # -- submission ------------------------------------------------------
    def submit(self, kind: str, spec: Dict[str, Any]) -> Job:
        if kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {kind!r}; choose from "
                             f"{JOB_KINDS}")
        with self._lock:
            if self._closed:
                self.rejected_closed += 1
                raise QueueClosed("service is draining; resubmit later")
            if len(self._pending) >= self.max_queue:
                self.rejected_full += 1
                raise QueueFull(
                    f"queue is at its bound ({self.max_queue} pending)")
            self._counter += 1
            job = Job(f"job-{self._counter:06d}", kind, spec)
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._pending.append(job)
            self._prune_locked()
            self._pending_cond.notify()
            return job

    def close(self) -> None:
        """Stop accepting submissions; :meth:`claim` returns None once
        the pending queue is empty (workers then exit)."""
        with self._lock:
            self._closed = True
            self._pending_cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- worker side -----------------------------------------------------
    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the oldest pending job and mark it running.

        Blocks until a job is available; returns None when the queue is
        closed and drained (worker shutdown) or ``timeout`` elapses.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._lock:
            while not self._pending:
                if self._closed:
                    return None
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return None
                self._pending_cond.wait(remaining)
            job = self._pending.popleft()
            job.started = time.time()
            job._mark(RUNNING)
            return job

    def finish(self, job: Job, result: Dict[str, Any]) -> None:
        self._terminate(job, RUNNING, DONE)
        job.result = result

    def fail(self, job: Job, error: str) -> None:
        self._terminate(job, RUNNING, FAILED)
        job.error = str(error)

    def _terminate(self, job: Job, expected: str, state: str) -> None:
        with self._lock:
            if job.state != expected:
                raise InvalidTransition(
                    f"job {job.id} is {job.state}, not {expected}")
            job.finished = time.time()
            job._mark(state)

    # -- cancellation ----------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a *queued* job; running/terminal jobs return False."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            if job.state != QUEUED:
                return False
            self._pending.remove(job)
            job.finished = time.time()
            job._mark(CANCELLED)
            return True

    # -- inspection ------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[jid] for jid in self._order
                    if jid in self._jobs]

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def by_state(self) -> Dict[str, int]:
        out = {state: 0 for state in STATES}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def drained(self) -> bool:
        """True when nothing is pending or running (drain completion)."""
        with self._lock:
            return not self._pending and not any(
                j.state == RUNNING for j in self._jobs.values())

    def _prune_locked(self) -> None:
        if len(self._jobs) <= self.max_jobs:
            return
        for jid in list(self._order):
            if len(self._jobs) <= self.max_jobs:
                break
            job = self._jobs.get(jid)
            if job is not None and job.state in TERMINAL_STATES:
                del self._jobs[jid]
                self._order.remove(jid)
