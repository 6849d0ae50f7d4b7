"""HTTP/1.1 message heads, read the same way by the service's server
(:mod:`repro.serve.http`) and its client (:mod:`repro.serve.client`).

A head is a start line, header lines and a blank line.  Each end reads
its own start line; :func:`read_headers` reads the header lines under
the stdlib's limits (a line of at most :data:`MAX_LINE` bytes, at most
:data:`MAX_HEADERS` lines with the blank one) and refuses every line
RFC 9112 does not allow: a folded continuation (obs-fold), a line with
no colon, and a name that is not a token (empty, or with whitespace
before the colon).  A parser that lets such a line end the headers
(``email.feedparser`` does) hides the headers after it, a
``Content-Length`` among them, so the body would be read as the next
request on the connection.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

#: Longest head line, line ending included.
MAX_LINE = 65536
#: Most lines after the start line, the blank line that ends the head
#: included (as :mod:`http.client` counts them).
MAX_HEADERS = 100

_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")


class HeadError(ValueError):
    """A message head that breaks a limit or the grammar."""


class LineTooLong(HeadError):
    """A head line over :data:`MAX_LINE` bytes."""


class TooManyHeaders(HeadError):
    """More than :data:`MAX_HEADERS` header lines."""


class MalformedHeader(HeadError):
    """A header line that is folded, has no colon, or a bad name."""


class Headers:
    """A head's header fields in arrival order; names match
    case-insensitively and repeated fields are all kept."""

    __slots__ = ("_values",)

    def __init__(self, pairs: List[Tuple[str, str]]):
        self._values: Dict[str, List[str]] = {}
        for name, value in pairs:
            self._values.setdefault(name.lower(), []).append(value)

    def get(self, name: str, default: Optional[str] = None
            ) -> Optional[str]:
        """The first value of field ``name``."""
        values = self._values.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str, default=None):
        """Every value of field ``name``, in arrival order."""
        values = self._values.get(name.lower())
        return list(values) if values else default


def read_headers(rfile) -> Headers:
    """Read header lines from the binary file ``rfile`` through the
    blank line that ends the head (or the end of the stream).

    Raises :class:`LineTooLong`, :class:`TooManyHeaders` or
    :class:`MalformedHeader`; values lose their surrounding whitespace.
    """
    pairs: List[Tuple[str, str]] = []
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise LineTooLong(f"got more than {MAX_LINE} bytes when "
                              f"reading header line")
        if len(pairs) >= MAX_HEADERS:
            raise TooManyHeaders(f"got more than {MAX_HEADERS} headers")
        if line in (b"\r\n", b"\n", b""):
            return Headers(pairs)
        if line[0] in (0x20, 0x09):
            raise MalformedHeader(f"folded header line {line!r}")
        name, colon, value = line.partition(b":")
        if not colon or _TOKEN.fullmatch(name) is None:
            raise MalformedHeader(f"bad header line {line!r}")
        pairs.append((name.decode("ascii"),
                      value.strip(b" \t\r\n").decode("latin-1")))
