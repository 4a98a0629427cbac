"""HTTP/1.1 message model, serializer, and parser.

Mobile traces carry HTTP requests as bytes inside TCP payloads inside
PCAP files; website traces carry them as HAR entries.  Both converge on
:class:`HttpRequest` / :class:`HttpResponse`, the common currency of
the post-processing pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.url import Url, UrlError, parse_url
from repro.obs.metrics import REGISTRY

_REQUESTS = REGISTRY.counter("repro_http_requests_total")


class HttpParseError(ValueError):
    """Raised when bytes cannot be parsed as an HTTP/1.1 message."""


@dataclass(frozen=True)
class Header:
    """A single header field; name comparisons are case-insensitive."""

    name: str
    value: str

    def matches(self, name: str) -> bool:
        return self.name.lower() == name.lower()


@dataclass
class HttpRequest:
    """An outgoing HTTP request observed in a trace."""

    method: str
    url: Url
    headers: list[Header] = field(default_factory=list)
    body: bytes = b""
    http_version: str = "HTTP/1.1"
    timestamp: float = 0.0

    def header(self, name: str) -> str | None:
        """First header value with the given name, or None."""
        for header in self.headers:
            if header.matches(name):
                return header.value
        return None

    def cookies(self) -> list[tuple[str, str]]:
        """Parsed ``Cookie`` header pairs (empty list when absent)."""
        raw = self.header("Cookie")
        if not raw:
            return []
        pairs: list[tuple[str, str]] = []
        for piece in raw.split(";"):
            piece = piece.strip()
            if not piece:
                continue
            name, _, value = piece.partition("=")
            pairs.append((name.strip(), value.strip()))
        return pairs

    @property
    def content_type(self) -> str:
        value = self.header("Content-Type") or ""
        return value.split(";")[0].strip().lower()

    def to_bytes(self) -> bytes:
        """Serialize as an HTTP/1.1 on-the-wire request."""
        target = self.url.path + (f"?{self.url.query}" if self.url.query else "")
        lines = [f"{self.method} {target} {self.http_version}"]
        names = {header.name.lower() for header in self.headers}
        if "host" not in names:
            lines.append(f"Host: {self.url.host}")
        for header in self.headers:
            lines.append(f"{header.name}: {header.value}")
        if self.body and "content-length" not in names:
            lines.append(f"Content-Length: {len(self.body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


def _parse_head(head: bytes) -> tuple[str, str, str, list[Header], str, int]:
    """Parse a request head (no body, no trailing separator).

    Returns ``(method, target, version, headers, host, body_length)``
    so stream walking parses each head exactly once — the framing
    fields fall out of the same pass that builds the header list.  The
    first Content-Length frames the body (0 when absent); one that is
    not a non-negative decimal integer makes the head malformed, like
    any other unparseable field.
    """
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise HttpParseError(f"bad request line: {lines[0]!r}") from exc
    headers: list[Header] = []
    host = ""
    body_length: int | None = None
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpParseError(f"bad header line: {line!r}")
        header = Header(name=name.strip(), value=value.strip())
        headers.append(header)
        lowered = header.name.lower()
        if lowered == "host":
            host = header.value  # last Host wins, as before
        if body_length is None and lowered == "content-length":
            if not header.value.isdecimal():
                raise HttpParseError(f"bad Content-Length: {header.value!r}")
            body_length = int(header.value)  # first Content-Length frames
    if not host:
        raise HttpParseError("request missing Host header")
    return method, target, version, headers, host, body_length or 0


def scan_request_stream(
    data: bytes, scheme: str = "https"
) -> tuple[list[HttpRequest], int, bool]:
    """Walk as many complete requests as ``data`` currently holds.

    Connection reuse puts several requests back to back on one TCP
    flow; this walks a client→server stream using Content-Length
    framing, parsing each head once and slicing bodies straight out of
    the stream.  Returns ``(requests, consumed, broken)`` where
    ``consumed`` is how many bytes of complete requests were parsed (an
    incremental caller drops that prefix and retries when more bytes
    arrive; a trailing partial request of a finished flow is dropped,
    as Wireshark-based pipelines drop incomplete flows) and ``broken``
    means a head failed to parse or its Host did not form a URL — the
    walk stops for good at that point, so callers must stop emitting
    too.  Requests carry ``timestamp=0.0``; callers stamp them.
    """
    requests: list[HttpRequest] = []
    position = 0
    stream_length = len(data)
    while position < stream_length:
        separator = data.find(b"\r\n\r\n", position)
        if separator == -1:
            break
        try:
            method, target, version, headers, host, body_length = _parse_head(
                data[position:separator]
            )
            end = separator + 4 + body_length
            if end > stream_length:
                break  # truncated trailing request
            # A Host that does not form a URL is as malformed as a
            # head that does not parse.
            url = parse_url(f"{scheme}://{host}{target}")
        except (HttpParseError, UrlError):
            return requests, position, True
        requests.append(
            HttpRequest(
                method=method,
                url=url,
                headers=headers,
                body=data[separator + 4 : end],
                http_version=version,
            )
        )
        _REQUESTS.inc()
        position = end
    return requests, position, False


def pending_request_need(data) -> int:
    """How long ``data`` must grow before another scan can make progress.

    Companion to :func:`scan_request_stream` for incremental feeds:
    after a scan leaves an unconsumed remainder, this reports the
    minimum total length at which re-scanning could complete the
    pending request — a partial body's framing is read once instead of
    re-walked (and re-copied) on every arriving segment.  A remainder
    whose head cannot parse returns its current length, so the next
    scan runs immediately and flags the stream broken.
    """
    separator = data.find(b"\r\n\r\n")  # bytes and bytearray alike
    if separator == -1:
        return len(data) + 1  # no complete head yet
    try:
        *_, body_length = _parse_head(bytes(data[:separator]))
    except HttpParseError:
        return len(data)
    return separator + 4 + body_length


@dataclass
class HttpResponse:
    """A response; DiffAudit only audits *outgoing* data, so responses
    exist mainly to make HAR files well-formed."""

    status: int = 200
    status_text: str = "OK"
    headers: list[Header] = field(default_factory=list)
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    def header(self, name: str) -> str | None:
        for header in self.headers:
            if header.matches(name):
                return header.value
        return None

    def to_bytes(self) -> bytes:
        lines = [f"{self.http_version} {self.status} {self.status_text}"]
        for header in self.headers:
            lines.append(f"{header.name}: {header.value}")
        names = {header.name.lower() for header in self.headers}
        if "content-length" not in names:
            lines.append(f"Content-Length: {len(self.body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body
