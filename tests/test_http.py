"""Unit and property tests for the HTTP message model."""

import pytest
from hypothesis import given, strategies as st

from repro.net.http import (
    Header,
    HttpRequest,
    HttpResponse,
    pending_request_need,
    scan_request_stream,
)
from repro.net.url import parse_url


def make_request(body: bytes = b"", **kwargs) -> HttpRequest:
    defaults = dict(
        method="POST",
        url=parse_url("https://api.example.com/v1/data?x=1"),
        headers=[Header("User-Agent", "test"), Header("Content-Type", "application/json")],
        body=body,
    )
    defaults.update(kwargs)
    return HttpRequest(**defaults)


def parse_requests(data: bytes, scheme: str = "https") -> list[HttpRequest]:
    requests, _, _ = scan_request_stream(data, scheme=scheme)
    return requests


class TestHeaders:
    def test_case_insensitive_lookup(self):
        request = make_request()
        assert request.header("user-agent") == "test"
        assert request.header("USER-AGENT") == "test"

    def test_missing_header_is_none(self):
        assert make_request().header("X-Missing") is None

    def test_content_type_strips_params(self):
        request = make_request(
            headers=[Header("Content-Type", "application/json; charset=utf-8")]
        )
        assert request.content_type == "application/json"


class TestCookies:
    def test_no_cookie_header(self):
        assert make_request().cookies() == []

    def test_cookie_parsing(self):
        request = make_request(
            headers=[Header("Cookie", "session=abc; theme=dark ;empty=")]
        )
        assert request.cookies() == [
            ("session", "abc"),
            ("theme", "dark"),
            ("empty", ""),
        ]


class TestSerialization:
    def test_round_trip(self):
        original = make_request(body=b'{"a": 1}')
        (parsed,) = parse_requests(original.to_bytes())
        assert parsed.method == "POST"
        assert str(parsed.url) == str(original.url)
        assert parsed.body == original.body
        assert parsed.header("User-Agent") == "test"

    def test_host_header_injected(self):
        wire = make_request().to_bytes()
        assert b"Host: api.example.com" in wire

    def test_content_length_injected(self):
        wire = make_request(body=b"12345").to_bytes()
        assert b"Content-Length: 5" in wire

    def test_scheme_comes_from_caller(self):
        wire = make_request().to_bytes()
        assert parse_requests(wire, scheme="http")[0].url.scheme == "http"

    @pytest.mark.parametrize(
        "data",
        [
            b"GET /\r\n\r\n",  # bad request line (missing version)
            b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",  # bad header
            b"GET / HTTP/1.1\r\nAccept: */*\r\n\r\n",  # missing Host
            b"garbage",  # no separator
            # Content-Length must be a non-negative decimal integer.
            b"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: -56\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: ten\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: +4\r\n\r\nbody",
            b"GET / HTTP/1.1\r\nHost: a\r\nContent-Length:\r\n\r\n",
            # A Host that does not form a URL.
            b"GET / HTTP/1.1\r\nHost: a:99999\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: [::1\r\n\r\n",
        ],
    )
    def test_parse_errors(self, data):
        # A complete but malformed head breaks the walk for good; a head
        # still missing its separator is incomplete and waits.
        requests, consumed, broken = scan_request_stream(data)
        assert requests == []
        assert consumed == 0
        assert broken == (b"\r\n\r\n" in data)
        assert pending_request_need(data) == (
            len(data) if broken else len(data) + 1
        )

    @given(st.binary(max_size=200))
    def test_body_round_trip_property(self, body):
        original = make_request(body=body)
        (parsed,) = parse_requests(original.to_bytes())
        assert parsed.body == body


class TestRequestStream:
    def test_single_request(self):
        stream = make_request(body=b"hello").to_bytes()
        requests = parse_requests(stream)
        assert len(requests) == 1
        assert requests[0].body == b"hello"

    def test_pipelined_requests(self):
        first = make_request(body=b"first")
        second = make_request(
            body=b"", method="GET", url=parse_url("https://api.example.com/other")
        )
        third = make_request(body=b"third-body")
        stream = first.to_bytes() + second.to_bytes() + third.to_bytes()
        requests = parse_requests(stream)
        assert [r.method for r in requests] == ["POST", "GET", "POST"]
        assert requests[2].body == b"third-body"

    def test_truncated_trailing_request_dropped(self):
        full = make_request(body=b"complete").to_bytes()
        partial = make_request(body=b"this-will-be-cut").to_bytes()[:-5]
        requests = parse_requests(full + partial)
        assert len(requests) == 1
        assert requests[0].body == b"complete"

    def test_garbage_stream_yields_nothing(self):
        assert parse_requests(b"\x00\x01\x02 not http") == []

    def test_empty_stream(self):
        assert parse_requests(b"") == []

    @given(st.lists(st.binary(max_size=64), min_size=1, max_size=5))
    def test_n_requests_round_trip(self, bodies):
        stream = b"".join(make_request(body=body).to_bytes() for body in bodies)
        requests = parse_requests(stream)
        assert [r.body for r in requests] == bodies


class TestResponse:
    def test_serialization(self):
        response = HttpResponse(
            status=204,
            status_text="No Content",
            headers=[Header("Content-Type", "text/plain")],
        )
        wire = response.to_bytes()
        assert wire.startswith(b"HTTP/1.1 204 No Content\r\n")
        assert b"Content-Length: 0" in wire

    def test_header_lookup(self):
        response = HttpResponse(headers=[Header("X-Test", "1")])
        assert response.header("x-test") == "1"
        assert response.header("other") is None
