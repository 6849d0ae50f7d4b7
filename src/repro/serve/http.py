"""Stdlib HTTP front-end for :class:`~repro.serve.service.EvaluationService`.

Routes (all JSON unless noted)::

    GET    /healthz             liveness: {"status": "ok"|"draining"}
    GET    /stats               queue / engine / shared-cache counters
    GET    /jobs                all jobs (summaries)
    POST   /jobs                submit {"kind": ..., "spec": {...}}
    GET    /jobs/<id>           one job's status + result
    GET    /jobs/<id>/events    NDJSON event stream (?since=N&follow=0|1)
    DELETE /jobs/<id>           cancel (queued jobs only)
    POST   /admin/drain         begin graceful drain
    POST   /admin/cache/clear   empty the shared artifact cache
                                (body optional: {"reset_counters": true})

Status codes: 400 malformed body/kind/spec, 404 unknown job or path,
409 cancel of a non-queued job, 411 missing Content-Length, 413 body
over the configured cap, 429 queue full (backpressure), 503 +
``Retry-After`` while draining.

Built on :class:`http.server.ThreadingHTTPServer` with HTTP/1.0
connection-per-request semantics: the events endpoint streams NDJSON
lines as the job produces them and signals completion by closing the
connection — no chunked encoding, readable with bare ``urllib``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .jobs import QueueClosed, QueueFull, UnknownJob
from .service import EvaluationService, SpecError

#: Default request-body cap (job specs are small; a runaway body must
#: not balloon the server).
DEFAULT_MAX_BODY = 64 * 1024
#: Seconds a draining server advertises in ``Retry-After``.
RETRY_AFTER_S = 5


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`EvaluationService`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 service: EvaluationService,
                 max_body: int = DEFAULT_MAX_BODY):
        if max_body < 1:  # a 0-byte cap answers every POST with 413
            raise ValueError(f"max_body must be >= 1, got {max_body}")
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.max_body = int(max_body)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    # Connection-close semantics: streamed responses end at EOF.
    protocol_version = "HTTP/1.0"
    server: ServiceHTTPServer

    # -- plumbing --------------------------------------------------------
    def log_message(self, fmt: str, *args: Any) -> None:
        """Quiet by default; the CLI owns user-facing output."""

    @property
    def service(self) -> EvaluationService:
        return self.server.service

    def _send_json(self, code: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True,
                           allow_nan=False) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object, or None after an error response."""
        length = self.headers.get("Content-Length")
        if length is None:
            self._error(411, "Content-Length required")
            return None
        try:
            n = int(length)
        except ValueError:
            n = -1
        if n < 0:  # rfile.read(-1) would block until the client closes
            self._error(400, f"bad Content-Length {length!r}")
            return None
        if n > self.server.max_body:
            self._error(413, f"request body over the "
                             f"{self.server.max_body} byte cap")
            return None
        raw = self.rfile.read(n)
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._error(400, f"body is not valid JSON: {exc}")
            return None
        if not isinstance(obj, dict):
            self._error(400, "body must be a JSON object")
            return None
        return obj

    # -- routing ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts == ["healthz"]:
            status = "draining" if self.service.draining else "ok"
            self._send_json(200 if status == "ok" else 503,
                            {"status": status})
        elif parts == ["stats"]:
            self._send_json(200, self.service.stats())
        elif parts == ["jobs"]:
            self._send_json(200, {"jobs": [
                job.to_dict(verbose=False)
                for job in self.service.queue.jobs()]})
        elif len(parts) == 2 and parts[0] == "jobs":
            self._get_job(parts[1])
        elif (len(parts) == 3 and parts[0] == "jobs"
              and parts[2] == "events"):
            self._stream_events(parts[1], parse_qs(url.query))
        else:
            self._error(404, f"no route {url.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts == ["jobs"]:
            self._submit_job()
        elif parts == ["admin", "drain"]:
            self.service.begin_drain()
            self._send_json(202, {"status": "draining"})
        elif parts == ["admin", "cache", "clear"]:
            self._clear_cache()
        else:
            self._error(404, f"no route {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if len(parts) == 2 and parts[0] == "jobs":
            try:
                cancelled = self.service.queue.cancel(parts[1])
            except UnknownJob:
                self._error(404, f"no job {parts[1]!r}")
                return
            if cancelled:
                self._send_json(200, {"id": parts[1],
                                      "state": "cancelled"})
            else:
                job = self.service.queue.get(parts[1])
                self._error(409, f"job {parts[1]} is {job.state}; only "
                                 f"queued jobs can be cancelled")
        else:
            self._error(404, f"no route {self.path!r}")

    # -- handlers --------------------------------------------------------
    def _submit_job(self) -> None:
        if self.service.draining:
            self._error(503, "service is draining; resubmit later",
                        {"Retry-After": str(RETRY_AFTER_S)})
            return
        body = self._read_body()
        if body is None:
            return
        kind = body.get("kind")
        spec = body.get("spec")
        try:
            job = self.service.submit(str(kind), spec
                                      if isinstance(spec, dict) else {})
        except (SpecError, ValueError) as exc:
            self._error(400, str(exc))
        except QueueFull as exc:
            self._error(429, str(exc))
        except QueueClosed as exc:
            self._error(503, str(exc),
                        {"Retry-After": str(RETRY_AFTER_S)})
        else:
            self._send_json(202, job.to_dict(verbose=False))

    def _clear_cache(self) -> None:
        """Drain-then-clear the shared artifact cache.  The body is
        optional (unlike job submission — there is nothing required to
        say), so a missing or zero Content-Length means an empty
        options object, not a 411."""
        payload: Dict[str, Any] = {}
        if self.headers.get("Content-Length", "0").strip() not in ("", "0"):
            body = self._read_body()
            if body is None:
                return
            payload = body
        outcome = self.service.clear_cache(
            reset_counters=bool(payload.get("reset_counters")))
        self._send_json(200 if outcome.get("cleared") else 503, outcome)

    def _get_job(self, job_id: str) -> None:
        try:
            job = self.service.queue.get(job_id)
        except UnknownJob:
            self._error(404, f"no job {job_id!r}")
            return
        self._send_json(200, job.to_dict())

    def _stream_events(self, job_id: str, query: Dict[str, Any]) -> None:
        try:
            job = self.service.queue.get(job_id)
        except UnknownJob:
            self._error(404, f"no job {job_id!r}")
            return
        try:
            since = max(0, int(query.get("since", ["0"])[0]))
        except ValueError:
            self._error(400, "query parameter 'since' must be an integer")
            return
        follow = query.get("follow", ["1"])[0] not in ("0", "false")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        try:
            while True:
                fresh, done = job.wait_events(
                    since, timeout=0.5 if follow else 0)
                for event in fresh:
                    self.wfile.write(
                        (json.dumps(event, sort_keys=True,
                                    allow_nan=False) + "\n").encode())
                since += len(fresh)
                if fresh:
                    self.wfile.flush()
                if done or not follow:
                    return
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-stream


def make_server(host: str, port: int, service: EvaluationService,
                max_body: int = DEFAULT_MAX_BODY) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP server; ``port=0`` picks an
    ephemeral port (tests) — read it back from ``server_address``."""
    return ServiceHTTPServer((host, port), service, max_body=max_body)
