"""HAR 1.2 reader/writer (website and desktop traces).

Chrome DevTools and Proxyman export HTTP Archive files; the paper's
pipeline converts them to JSON and extracts outgoing requests
(§3.1.2, §3.2).  This module models the subset of the HAR 1.2 spec the
pipeline consumes — request method/URL/headers/cookies/query/postData —
and round-trips it losslessly for the fields we care about.
"""

from __future__ import annotations

import base64
import datetime as _dt
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable

from repro.fsutil import atomic_write_text
from repro.net.http import Header, HttpRequest, HttpResponse
from repro.net.url import parse_url


class HarError(ValueError):
    """Raised for malformed HAR documents."""


@dataclass
class HarEntry:
    """One request/response pair plus timing metadata."""

    request: HttpRequest
    response: HttpResponse = field(default_factory=HttpResponse)
    started: float = 0.0  # epoch seconds
    time_ms: float = 0.0
    server_ip: str = ""
    connection: str = ""
    page_ref: str = ""


@dataclass
class Har:
    """A HAR log: creator metadata plus ordered entries."""

    entries: list[HarEntry] = field(default_factory=list)
    creator_name: str = "repro-diffaudit"
    creator_version: str = "1.0"
    comment: str = ""

    def outgoing_requests(self) -> list[HttpRequest]:
        """All requests in trace order — the pipeline's input."""
        return [entry.request for entry in self.entries]


def _epoch_to_iso(epoch: float) -> str:
    # HAR wants ISO 8601; we render UTC with microsecond precision so
    # epoch → ISO → epoch round-trips without drift (millisecond
    # rendering floored away sub-ms bits, which broke replay parity
    # checks on archived artifacts).
    stamp = _dt.datetime.fromtimestamp(epoch, tz=_dt.timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%S.") + f"{stamp.microsecond:06d}Z"


def _iso_to_epoch(text: str) -> float:
    stamp = _dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        # Timezone-naive stamps (some exporters omit the offset) are
        # UTC per the capture hosts' convention; interpreting them in
        # local time skewed timestamps by the machine's UTC offset.
        stamp = stamp.replace(tzinfo=_dt.timezone.utc)
    return stamp.timestamp()


def _request_to_json(request: HttpRequest) -> dict:
    post_data = {}
    if request.body:
        content_type = request.header("Content-Type") or "application/octet-stream"
        try:
            text = request.body.decode("utf-8")
            post_data = {"mimeType": content_type, "text": text}
        except UnicodeDecodeError:
            post_data = {
                "mimeType": content_type,
                "text": base64.b64encode(request.body).decode("ascii"),
                "encoding": "base64",
            }
    return {
        "method": request.method,
        "url": str(request.url),
        "httpVersion": request.http_version,
        "headers": [{"name": h.name, "value": h.value} for h in request.headers],
        "cookies": [{"name": n, "value": v} for n, v in request.cookies()],
        "queryString": [
            {"name": n, "value": v} for n, v in request.url.query_pairs()
        ],
        "headersSize": -1,
        "bodySize": len(request.body),
        **({"postData": post_data} if post_data else {}),
    }


def _response_to_json(response: HttpResponse) -> dict:
    return {
        "status": response.status,
        "statusText": response.status_text,
        "httpVersion": response.http_version,
        "headers": [{"name": h.name, "value": h.value} for h in response.headers],
        "cookies": [],
        "content": {
            "size": len(response.body),
            "mimeType": response.header("Content-Type") or "application/octet-stream",
            "text": response.body.decode("utf-8", errors="replace"),
        },
        "redirectURL": "",
        "headersSize": -1,
        "bodySize": len(response.body),
    }


def har_to_json(har: Har) -> dict:
    """Render a :class:`Har` as a HAR 1.2 JSON document."""
    return {
        "log": {
            "version": "1.2",
            "creator": {"name": har.creator_name, "version": har.creator_version},
            "comment": har.comment,
            "entries": [
                {
                    "startedDateTime": _epoch_to_iso(entry.started),
                    "time": entry.time_ms,
                    "request": _request_to_json(entry.request),
                    "response": _response_to_json(entry.response),
                    "cache": {},
                    "timings": {"send": 0, "wait": entry.time_ms, "receive": 0},
                    "serverIPAddress": entry.server_ip,
                    "connection": entry.connection,
                    **({"pageref": entry.page_ref} if entry.page_ref else {}),
                }
                for entry in har.entries
            ],
        }
    }


def _request_from_json(obj: dict, started: float) -> HttpRequest:
    headers = [Header(h["name"], h["value"]) for h in obj.get("headers", [])]
    body = b""
    post = obj.get("postData")
    if post and post.get("text"):
        if post.get("encoding") == "base64":
            body = base64.b64decode(post["text"])
        else:
            body = post["text"].encode("utf-8")
    return HttpRequest(
        method=obj["method"],
        url=parse_url(obj["url"]),
        headers=headers,
        body=body,
        http_version=obj.get("httpVersion", "HTTP/1.1"),
        timestamp=started,
    )


def _response_from_json(obj: dict) -> HttpResponse:
    headers = [Header(h["name"], h["value"]) for h in obj.get("headers", [])]
    content = obj.get("content", {})
    body = (content.get("text") or "").encode("utf-8")
    return HttpResponse(
        status=obj.get("status", 0),
        status_text=obj.get("statusText", ""),
        headers=headers,
        body=body,
        http_version=obj.get("httpVersion", "HTTP/1.1"),
    )


def har_from_json(doc: dict) -> Har:
    """Parse a HAR 1.2 JSON document; raises :class:`HarError` when the
    required structure is missing."""
    try:
        log = doc["log"]
        raw_entries = log["entries"]
    except (KeyError, TypeError) as exc:
        raise HarError("document missing log.entries") from exc
    creator = log.get("creator", {})
    har = Har(
        creator_name=creator.get("name", "unknown"),
        creator_version=creator.get("version", "0"),
        comment=log.get("comment", ""),
    )
    for raw in raw_entries:
        try:
            started = _iso_to_epoch(raw["startedDateTime"])
            request = _request_from_json(raw["request"], started)
        except (KeyError, ValueError) as exc:
            raise HarError(f"malformed HAR entry: {exc}") from exc
        har.entries.append(
            HarEntry(
                request=request,
                response=_response_from_json(raw.get("response", {})),
                started=started,
                time_ms=raw.get("time", 0.0),
                server_ip=raw.get("serverIPAddress", ""),
                connection=raw.get("connection", ""),
                page_ref=raw.get("pageref", ""),
            )
        )
    return har


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _write_json(value: Any, newline: str, out: Callable[[str], Any]) -> None:
    """Append ``value``'s JSON text to ``out``, piece by piece; a
    container's closing bracket starts a line at ``newline``."""
    kind = type(value)
    if kind is dict:
        if not value:
            out("{}")
            return
        inner = newline + " "
        separator, comma = "{" + inner, "," + inner
        for key, item in value.items():
            out(separator)
            out(encode_basestring_ascii(key))
            out(": ")
            if type(item) is str:
                out(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, out)
            separator = comma
        out(newline + "}")
    elif kind is list:
        if not value:
            out("[]")
            return
        inner = newline + " "
        separator, comma = "[" + inner, "," + inner
        for item in value:
            out(separator)
            if type(item) is str:
                out(encode_basestring_ascii(item))
            else:
                _write_json(item, inner, out)
            separator = comma
        out(newline + "]")
    elif kind is str:
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif kind is int:
        out(int.__repr__(value))
    elif kind is float:
        out(_float_text(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def har_text(doc: dict) -> str:
    """The text of a HAR file: exactly ``json.dumps(doc, indent=1)``.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, a
    generator per nesting level and a yield per token; this appends
    the same pieces to one list and joins it once, and escapes strings
    with the C encoder's own ``encode_basestring_ascii``.  Values are
    the JSON types exactly (``dict`` with ``str`` keys, ``list``,
    ``str``, ``int``, ``float``, ``bool`` and ``None``); anything else
    raises :class:`TypeError`.
    """
    pieces: list[str] = []
    _write_json(doc, "\n", pieces.append)
    return "".join(pieces)


def write_har(har: Har, path: str | Path) -> None:
    """Write a HAR file to disk (UTF-8 JSON, one-space indent)."""
    atomic_write_text(Path(path), har_text(har_to_json(har)))


def read_har(path: str | Path) -> Har:
    """Read a HAR file from disk."""
    return har_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
