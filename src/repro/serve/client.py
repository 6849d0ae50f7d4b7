"""Keep-alive HTTP/1.1 client for the evaluation service.

:class:`ServiceClient` wraps the HTTP API in plain method calls —
``repro client submit|status|watch|result|stats`` is built on it, and
tests/benchmarks drive servers through it.  Error responses surface as
:class:`ServiceError` carrying the HTTP status and the server's JSON
``error`` message.

Stdlib only, without :mod:`http.client`: a connection is a socket with
``TCP_NODELAY`` set (wrapped by :mod:`ssl` for an ``https`` URL) and a
buffered reader over it.  A request goes out in one write, head and
body together; a response's head is read with
:func:`~repro.serve.wire.read_headers`, the reader the server uses for
requests, and its body by ``Content-Length``, chunk by chunk (the event
stream), or to the end of the connection.

Requests reuse idle connections, so a client's jobs (submit, event
stream, status) normally travel over one connection.  Threads may share
one client: each request takes a connection off a lock-guarded stack of
idle ones (or opens a new one) and puts it back only once its response
has been read to the end.
"""

from __future__ import annotations

import json
import socket
import ssl
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from .jobs import TERMINAL_STATES
from .wire import MAX_LINE, HeadError, LineTooLong, read_headers


class ServiceError(Exception):
    """An HTTP error response from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class _Connection:
    """One connection to the service: its socket and a buffered reader
    over it."""

    __slots__ = ("sock", "rfile")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class _Response:
    """One response: its status and headers, then its body, read once
    through :meth:`pieces` or :meth:`read`."""

    __slots__ = ("status", "reason", "headers", "will_close", "done",
                 "_rfile", "_chunked", "_length")

    def __init__(self, status_line: bytes, rfile):
        try:
            version, status, *reason = status_line.split(None, 2)
            self.status = int(status)
            if not version.startswith(b"HTTP/") or self.status < 100:
                raise ValueError
        except ValueError:
            raise HeadError(f"bad status line {status_line!r}") from None
        self.reason = reason[0].strip().decode("latin-1") if reason else ""
        self.headers = read_headers(rfile)
        self._rfile = rfile
        self._chunked = ((self.headers.get("Transfer-Encoding") or "")
                         .lower() == "chunked")
        length = self.headers.get("Content-Length")
        if self._chunked or length is None:
            self._length = None
        elif length.isascii() and length.isdigit():
            self._length = int(length)
        else:
            raise HeadError(f"bad Content-Length {length!r}")
        #: The server closes the connection after this response.
        self.will_close = (
            version != b"HTTP/1.1"
            or (self.headers.get("Connection") or "").lower() == "close"
            or (not self._chunked and self._length is None))
        #: The body has been read to its end.
        self.done = False

    def pieces(self) -> Iterator[bytes]:
        """The body, piece by piece as it arrives: one chunk of a
        chunked body, all of a ``Content-Length`` body, or what one read
        returns of a body that ends with the connection."""
        rfile = self._rfile
        if self._chunked:
            while True:
                line = rfile.readline(MAX_LINE + 1)
                try:
                    size = int(line.split(b";", 1)[0], 16)
                except ValueError:
                    raise HeadError(f"bad chunk size line {line!r}") from None
                if size == 0:
                    read_headers(rfile)  # the trailer, up to its blank line
                    break
                data = rfile.read(size + 2)
                if len(data) < size + 2:
                    raise ConnectionResetError("connection closed mid-chunk")
                yield data[:size]
        elif self._length is not None:
            data = rfile.read(self._length)
            if len(data) < self._length:
                raise ConnectionResetError("connection closed mid-body")
            yield data
        else:
            while True:
                data = rfile.read1(65536)
                if not data:
                    break
                yield data
        self.done = True

    def read(self) -> bytes:
        """The whole body."""
        return b"".join(self.pieces())


class ServiceClient:
    """One evaluation-service endpoint (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"not an http(s)://host[:port] URL: "
                             f"{base_url!r}")
        self._address = (url.hostname,
                         url.port or (443 if url.scheme == "https" else 80))
        self._tls = (ssl.create_default_context()
                     if url.scheme == "https" else None)
        self._host = url.netloc
        self._prefix = url.path
        self._idle: List[_Connection] = []
        self._lock = threading.Lock()

    # -- transport -------------------------------------------------------
    def _connect(self, timeout: float) -> _Connection:
        sock = socket.create_connection(self._address, timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(
                    sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def _message(self, method: str, path: str,
                 body: Optional[bytes]) -> bytes:
        """The request, head and body, as the bytes of one write."""
        target = self._prefix + path
        if not (target.isascii() and target.isprintable()) or " " in target:
            raise ValueError(f"bad request target {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
        if body is None:
            return (head + "\r\n").encode()
        return (head + f"Content-Type: application/json\r\n"
                       f"Content-Length: {len(body)}\r\n\r\n"
                ).encode() + body

    def _send(self, method: str, path: str, body: Optional[bytes],
              timeout: float) -> Tuple[_Connection, _Response]:
        """Send one request; returns its connection and the response,
        whose body the caller reads.

        A reused connection the server has closed meanwhile (it drops
        idle ones) fails before the status line arrives: the request is
        then sent once more, on a fresh connection.
        """
        message = self._message(method, path, body)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        while True:
            status_line = b""
            try:
                if conn is None:
                    conn = self._connect(timeout)
                else:
                    conn.sock.settimeout(timeout)
                conn.sock.sendall(message)
                status_line = conn.rfile.readline(MAX_LINE + 1)
                if not status_line:
                    raise ConnectionResetError(
                        "connection closed before the status line")
                if len(status_line) > MAX_LINE:
                    raise LineTooLong("status line")
                return conn, _Response(status_line, conn.rfile)
            except ConnectionError:
                if conn is not None:
                    conn.close()
                if not reused or status_line:
                    raise
                conn, reused = None, False
            except BaseException:
                if conn is not None:
                    conn.close()
                raise

    def _release(self, conn: _Connection, resp: _Response) -> None:
        """Keep ``conn`` for reuse if ``resp`` was read to its end and
        the server left the connection open; else close it."""
        if resp.done and not resp.will_close:
            with self._lock:
                self._idle.append(conn)
        else:
            conn.close()

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        data = json.dumps(body).encode() if body is not None else None
        conn, resp = self._send(method, path, data, self.timeout
                                if timeout is None else timeout)
        try:
            raw = resp.read()
        except BaseException:
            conn.close()
            raise
        self._release(conn, resp)
        if resp.status >= 400:
            raise ServiceError(resp.status,
                               self._error_message(raw, resp.reason))
        return json.loads(raw)

    @staticmethod
    def _error_message(raw: bytes, reason: str) -> str:
        try:
            return str(json.loads(raw.decode()).get("error", ""))
        except Exception:  # noqa: BLE001 - non-JSON error body
            return reason or "request failed"

    def close(self) -> None:
        """Close the connections that are idle now."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- API -------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/stats")

    def jobs(self) -> Dict[str, Any]:
        return self._request("GET", "/jobs")

    def submit(self, kind: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job; returns its summary (with the assigned id)."""
        return self._request("POST", "/jobs",
                             {"kind": kind, "spec": spec})

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def drain(self) -> Dict[str, Any]:
        return self._request("POST", "/admin/drain", {})

    def clear_cache(self, reset_counters: bool = False) -> Dict[str, Any]:
        """Drain-then-clear the service's shared artifact cache."""
        return self._request("POST", "/admin/cache/clear",
                             {"reset_counters": bool(reset_counters)})

    def result(self, job_id: str, timeout: float = 120.0
               ) -> Dict[str, Any]:
        """Block until the job is terminal; returns its full status.

        Follows the job's event stream to its end (which the server
        sends when the job is terminal), then fetches the status once.
        Raises :class:`TimeoutError` if the job is still live after
        ``timeout`` seconds and :class:`ServiceError` on HTTP errors.
        """
        try:
            for _ in self._events(job_id, 0, True,
                                  time.monotonic() + timeout):
                pass
        except TimeoutError:
            pass  # the deadline passed first; the status says how far
        status = self.status(job_id)
        if status.get("state") in TERMINAL_STATES:
            return status
        raise TimeoutError(f"job {job_id} still {status.get('state')!r} "
                           f"after {timeout}s")

    def watch(self, job_id: str, since: int = 0,
              follow: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield the job's events as decoded dicts.

        With ``follow`` (default) the stream tracks the job live and
        ends when the job reaches a terminal state; ``follow=False``
        returns only what is already buffered.  A generator left before
        the end of its stream closes its connection.
        """
        return self._events(job_id, since, follow)

    def _events(self, job_id: str, since: int, follow: bool,
                deadline: Optional[float] = None
                ) -> Iterator[Dict[str, Any]]:
        """The event stream; with a ``deadline`` (a :func:`time.monotonic`
        value) each read waits only for the time left, and
        :class:`TimeoutError` is raised once it has passed, however
        often events arrive."""
        def time_left() -> float:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"events of job {job_id}: deadline "
                                   "passed")
            return left

        conn, resp = self._send(
            "GET", f"/jobs/{job_id}/events?since={since}"
                   f"&follow={'1' if follow else '0'}", None,
            self.timeout if deadline is None else time_left())
        try:
            if resp.status >= 400:
                raise ServiceError(resp.status, self._error_message(
                    resp.read(), resp.reason))
            pieces = resp.pieces()
            tail = b""  # a line that the next piece goes on with
            while True:
                if deadline is not None:
                    conn.sock.settimeout(time_left())
                piece = next(pieces, None)
                if piece is None:
                    break
                *lines, tail = (tail + piece).split(b"\n")
                for line in lines:
                    if line.strip():
                        yield json.loads(line)
            if tail.strip():
                yield json.loads(tail)
        except BaseException:
            conn.close()
            raise
        self._release(conn, resp)
