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

Status codes: 400 a malformed request line or header line (folded, no
colon, or a bad name), malformed body/kind/spec or a
``Content-Length`` that is not one run of ASCII digits (or repeats with
differing values), 404 unknown job or path, 409 cancel of a non-queued
job, 411 missing Content-Length, 413 body over the configured cap, 414
a request line over 65,536 bytes, 429 queue full (backpressure), 431
100 header lines or more (the stdlib's count, which takes in the blank
line that ends the head) or a header line over 65,536 bytes, 501 any
``Transfer-Encoding``, 503 + ``Retry-After`` while draining.  A request
sent with ``Expect: 100-continue`` gets ``100 Continue`` only once its
body is accepted; one refused before that gets just its final status.
A connection is closed without a response when a request's line,
headers and body have not all arrived :data:`SOCKET_TIMEOUT_S` after
the previous response (or the connect), which also closes a kept-alive
connection left idle that long, or when one write stalls that long (an
events reader that stops reading).

Built on :class:`http.server.ThreadingHTTPServer` speaking HTTP/1.1: a
client's requests share one kept-alive connection and its handler
thread.  The handler parses the request line itself and reads the
headers with :func:`~repro.serve.wire.read_headers`, the reader the
client uses for responses, not the stdlib's ``email.parser``: it is
faster, and it refuses a bad header line where that parser ends the
headers, which would hide a ``Content-Length`` after it.  The
connection closes after any error response, and after any request
whose body the handler did not read to its end (the unread
bytes must never parse as the next request).  The events endpoint
streams NDJSON lines as the job produces them; a kept-alive HTTP/1.1
connection gets them in chunked framing, ended by the last chunk, and
an HTTP/1.0 or ``Connection: close`` client gets a stream that ends
when the server closes the connection, readable with bare ``urllib``.
While the job is quiet the stream checks every half second whether its
client has closed the connection, and ends if so.

Each JSON response goes out in one socket write (status line, headers
and body together), and the events stream sends each batch of fresh
events in one write, the first batch together with the headers: every
write is a syscall the handler thread makes without the GIL and must
then wait to get back.  Nagle's algorithm is off, so a small write is
not held back waiting for the client's delayed ACK of the previous one.
"""

from __future__ import annotations

import io
import json
import re
import select
import socket
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .jobs import QueueClosed, QueueFull, UnknownJob
from .service import EvaluationService, SpecError
from .wire import LineTooLong, MalformedHeader, TooManyHeaders, read_headers

#: Default request-body cap (job specs are small; a runaway body must
#: not balloon the server).
DEFAULT_MAX_BODY = 64 * 1024
#: Seconds a draining server advertises in ``Retry-After``.
RETRY_AFTER_S = 5
#: Seconds a request (line, headers and body together) may take to
#: arrive, counted from the end of the previous request on the
#: connection, and any one socket write may stall, before the handler
#: drops the connection (the stdlib's ``handle_one_request`` closes it
#: on ``TimeoutError``): an idle kept-alive connection, or a client that
#: sends fewer body bytes than its ``Content-Length``, or sends them a
#: byte at a time, would otherwise pin a handler thread.
SOCKET_TIMEOUT_S = 30.0

_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _DeadlineReader(io.RawIOBase):
    """A connection's reads under a deadline, ``seconds`` after the last
    :meth:`restart`.

    Each ``recv`` waits at most for the time left, so a request that
    trickles in is dropped when the deadline passes, however often a
    byte arrives.  The socket's own timeout, the stall bound of each
    write, is restored after every read.
    """

    def __init__(self, sock: socket.socket, seconds: float):
        self._sock = sock
        self._seconds = seconds
        self.restart()

    def restart(self) -> None:
        self._deadline = time.monotonic() + self._seconds

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise socket.timeout("request not received in time")
        self._sock.settimeout(left)
        try:
            return self._sock.recv_into(buffer)
        finally:
            self._sock.settimeout(self._seconds)


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
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = SOCKET_TIMEOUT_S
    server: ServiceHTTPServer

    # -- plumbing --------------------------------------------------------
    def setup(self) -> None:
        super().setup()
        # The request line, the headers and the body share one deadline.
        self.rfile.close()
        self._reader = _DeadlineReader(self.connection, self.timeout)
        self.rfile = io.BufferedReader(self._reader)

    def handle_one_request(self) -> None:
        self._reader.restart()
        #: A body the request announced and the handler has not read.
        self._body_unread = False
        #: ``Expect: 100-continue`` awaits its interim response.
        self._expect_continue = False
        super().handle_one_request()

    def parse_request(self) -> bool:
        """Parse the request line and read the head with
        :func:`~repro.serve.wire.read_headers`; False after an error
        response.

        The outcomes are the stdlib's: 400 for a bad request line or
        version, 505 for HTTP/2 and later, 431 for a header line over
        the limit or too many headers.  A malformed header line gets
        400.  ``Expect: 100-continue`` is deferred until
        :meth:`_read_body` accepts the body.
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:  # enough to determine the version
            version = _VERSION.fullmatch(words[-1])
            if version is None:
                self.send_error(HTTPStatus.BAD_REQUEST,
                                f"Bad request version ({words[-1]!r})")
                return False
            number = int(version[1]), int(version[2])
            if number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                f"Invalid HTTP version "
                                f"({words[-1][5:]})")
                return False
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad request syntax ({self.requestline!r})")
            return False
        if len(words) == 2 and words[0] != "GET":
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad HTTP/0.9 request type ({words[0]!r})")
            return False
        self.command, self.path = words[:2]
        try:
            self.headers = read_headers(self.rfile)
        except LineTooLong as exc:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Line too long", str(exc))
            return False
        except TooManyHeaders as exc:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Too many headers", str(exc))
            return False
        except MalformedHeader as exc:
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line",
                            str(exc))
            return False
        # Keep-alive only for HTTP/1.1, and only if not asked to close.
        self.close_connection = (
            self.request_version != "HTTP/1.1"
            or (self.headers.get("Connection") or "").lower() == "close")
        self._expect_continue = (
            self.request_version >= "HTTP/1.1"
            and (self.headers.get("Expect") or "").lower()
            == "100-continue")
        self._body_unread = (
            self.headers.get("Transfer-Encoding") is not None
            or any(v != "0"
                   for v in self.headers.get_all("Content-Length", ())))
        return True

    def _keep_alive(self, code: int = 200) -> bool:
        """Whether the connection stays open after this response; an
        error, a request body left unread, or a request that did not ask
        for keep-alive closes it, and the response's headers say so."""
        if code >= 400 or self._body_unread or self.close_connection:
            self.send_header("Connection", "close")
        return not self.close_connection

    def _client_gone(self) -> bool:
        """Whether the client has closed its end of the connection: a
        quiet events stream writes nothing, so only a read can tell."""
        readable, _, _ = select.select([self.connection], [], [], 0)
        return bool(readable) and not self.connection.recv(
            1, socket.MSG_PEEK)

    def log_message(self, fmt: str, *args: Any) -> None:
        """Quiet by default; the CLI owns user-facing output."""

    @property
    def service(self) -> EvaluationService:
        return self.server.service

    def _end_headers_with(self, body: bytes) -> None:
        """:meth:`end_headers`, sending ``body`` in the same write."""
        if self.request_version != "HTTP/0.9":  # 0.9 has no headers
            body = b"".join(self._headers_buffer) + b"\r\n" + body
            self._headers_buffer = []
        if body:
            self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = (json.dumps(payload, sort_keys=True,
                           allow_nan=False) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self._keep_alive(code)
        self._end_headers_with(body)

    def _error(self, code: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def _body_length(self, required: bool = True) -> Optional[int]:
        """The request body's byte count, or None after an error
        response.

        The length comes from one ``Content-Length`` of ASCII digits;
        repeats must carry the same value.  A request with any
        ``Transfer-Encoding`` gets 501 (bodies are read by length only),
        one without a length 411 when a body is ``required`` (else its
        length is 0), a malformed or conflicting length 400 and one over
        the cap 413 — all before any body byte is read.
        """
        if self.headers.get("Transfer-Encoding") is not None:
            self._error(501, "Transfer-Encoding is not supported; send "
                             "the body with a Content-Length")
            return None
        values = {v.strip() for v in self.headers.get_all("Content-Length",
                                                          ())}
        if not values:
            if required:
                self._error(411, "Content-Length required")
                return None
            return 0
        if len(values) > 1:
            self._error(400, f"conflicting Content-Length headers "
                             f"{sorted(values)!r}")
            return None
        length = values.pop()
        # int() would also take "+16", "1_6" and non-ASCII digits.
        if not (length.isascii() and length.isdigit()):
            self._error(400, f"bad Content-Length {length!r}")
            return None
        n = int(length)
        if n > self.server.max_body:
            self._error(413, f"request body over the "
                             f"{self.server.max_body} byte cap")
            return None
        return n

    def _read_body(self, required: bool = True
                   ) -> Optional[Dict[str, Any]]:
        """The request's JSON object, or None after an error response;
        an optional body (``required=False``) that is absent or empty
        reads as ``{}``."""
        n = self._body_length(required)
        if n is None:
            return None
        if n == 0 and not required:
            return {}
        if self._expect_continue:
            self.send_response_only(100)
            self.end_headers()
        raw = self.rfile.read(n)
        self._body_unread = False
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad syntax and integer
            # literals over the int-conversion digit limit;
            # RecursionError, arrays/objects nested past the stack.
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
        payload = self._read_body(required=False)
        if payload is None:
            return
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
        chunked = self._keep_alive()
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        head_sent = False
        try:
            while True:
                fresh, done = job.wait_events(
                    since, timeout=0.5 if follow else 0)
                batch = "".join(json.dumps(event, sort_keys=True,
                                           allow_nan=False) + "\n"
                                for event in fresh).encode()
                since += len(fresh)
                last = done or not follow
                if chunked:  # an empty chunk would end the stream
                    batch = ((b"%x\r\n%s\r\n" % (len(batch), batch)
                              if batch else b"")
                             + (b"0\r\n\r\n" if last else b""))
                if not head_sent:
                    self._end_headers_with(batch)
                    head_sent = True
                elif batch:
                    self.wfile.write(batch)
                if last:
                    return
                if not fresh and self._client_gone():
                    self.close_connection = True
                    return
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away mid-stream


def make_server(host: str, port: int, service: EvaluationService,
                max_body: int = DEFAULT_MAX_BODY) -> ServiceHTTPServer:
    """Bind (but do not start) the HTTP server; ``port=0`` picks an
    ephemeral port (tests) — read it back from ``server_address``."""
    return ServiceHTTPServer((host, port), service, max_body=max_body)
