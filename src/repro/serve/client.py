"""Keep-alive HTTP/1.1 client for the evaluation service.

:class:`ServiceClient` wraps the HTTP API in plain method calls —
``repro client submit|status|watch|result|stats`` is built on it, and
tests/benchmarks drive servers through it.  Stdlib only
(:mod:`http.client`); error responses surface as :class:`ServiceError`
carrying the HTTP status and the server's JSON ``error`` message.

Requests reuse idle connections, so a client's jobs (submit, event
stream, status) normally travel over one connection.  Threads may share
one client: each request takes a connection off a lock-guarded stack of
idle ones (or opens a new one) and puts it back only once its response
has been read to the end.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from .jobs import TERMINAL_STATES


class ServiceError(Exception):
    """An HTTP error response from the service."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """One evaluation-service endpoint (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._host = url.netloc
        self._prefix = url.path
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    # -- transport -------------------------------------------------------
    def _send(self, method: str, path: str, body: Optional[bytes],
              timeout: float
              ) -> Tuple[http.client.HTTPConnection,
                         http.client.HTTPResponse]:
        """Send one request; returns its connection and the response,
        whose body the caller reads.

        A reused connection the server has closed meanwhile (it drops
        idle ones) fails before any response byte arrives: the request
        is then sent once more, on a fresh connection.
        """
        headers = ({"Content-Type": "application/json"}
                   if body is not None else {})
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connection_class(self._host, timeout=timeout)
        while True:
            reused = conn.sock is not None
            if reused:
                conn.sock.settimeout(timeout)
            else:
                conn.timeout = timeout
            try:
                conn.request(method, self._prefix + path, body, headers)
                return conn, conn.getresponse()
            except ConnectionError:
                conn.close()
                if not reused:
                    raise
            except BaseException:
                conn.close()
                raise

    def _release(self, conn: http.client.HTTPConnection,
                 resp: http.client.HTTPResponse) -> None:
        """Keep ``conn`` for reuse if ``resp`` was read to its end and
        the server left the connection open; else close it."""
        if resp.isclosed() and conn.sock is not None:
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
        return json.loads(raw.decode())

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
        sock = conn.sock  # None when the response owns it (no keep-alive)
        try:
            if resp.status >= 400:
                raise ServiceError(resp.status, self._error_message(
                    resp.read(), resp.reason))
            while True:
                if deadline is not None:
                    left = time_left()
                    if sock is not None:
                        sock.settimeout(left)
                line = resp.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        except BaseException:
            resp.close()
            conn.close()
            raise
        self._release(conn, resp)
