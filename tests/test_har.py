"""Unit tests for the HAR 1.2 reader/writer."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.net.har import (
    Har,
    HarEntry,
    HarError,
    _epoch_to_iso,
    _iso_to_epoch,
    har_from_json,
    har_text,
    har_to_json,
    read_har,
    write_har,
)
from repro.net.http import Header, HttpRequest, HttpResponse
from repro.net.url import parse_url


def make_har() -> Har:
    request = HttpRequest(
        method="POST",
        url=parse_url("https://api.example.com/v1/events?k=v"),
        headers=[
            Header("Content-Type", "application/json"),
            Header("Cookie", "session=abc"),
        ],
        body=b'{"event": "click"}',
        timestamp=1_697_364_000.5,
    )
    response = HttpResponse(
        status=200, headers=[Header("Content-Type", "application/json")], body=b"{}"
    )
    har = Har(creator_name="WebInspector", comment="test-trace")
    har.entries.append(
        HarEntry(
            request=request,
            response=response,
            started=request.timestamp,
            time_ms=12.5,
            server_ip="34.1.2.3",
            connection="100001",
            page_ref="page_1",
        )
    )
    return har


class TestRoundTrip:
    def test_json_round_trip(self):
        original = make_har()
        parsed = har_from_json(har_to_json(original))
        assert len(parsed.entries) == 1
        entry = parsed.entries[0]
        assert entry.request.method == "POST"
        assert str(entry.request.url) == "https://api.example.com/v1/events?k=v"
        assert entry.request.body == b'{"event": "click"}'
        assert entry.request.cookies() == [("session", "abc")]
        assert entry.server_ip == "34.1.2.3"
        assert entry.connection == "100001"
        assert entry.page_ref == "page_1"
        assert abs(entry.started - 1_697_364_000.5) < 0.001

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.har"
        write_har(make_har(), path)
        parsed = read_har(path)
        assert parsed.creator_name == "WebInspector"
        assert parsed.comment == "test-trace"
        assert len(parsed.entries) == 1

    def test_spec_shape(self):
        doc = har_to_json(make_har())
        log = doc["log"]
        assert log["version"] == "1.2"
        entry = log["entries"][0]
        assert entry["startedDateTime"].endswith("Z")
        assert entry["request"]["queryString"] == [{"name": "k", "value": "v"}]
        assert entry["request"]["cookies"] == [{"name": "session", "value": "abc"}]
        assert entry["request"]["postData"]["mimeType"] == "application/json"

    def test_binary_body_base64(self):
        har = make_har()
        har.entries[0].request.body = b"\xff\xfe\x00binary"
        parsed = har_from_json(har_to_json(har))
        assert parsed.entries[0].request.body == b"\xff\xfe\x00binary"

    def test_outgoing_requests(self):
        assert len(make_har().outgoing_requests()) == 1


class TestTimestamps:
    """Round-trip fidelity of the ISO 8601 conversion the replay path
    depends on: sub-millisecond drift or timezone skew would break the
    generate → replay parity guarantee on archived artifacts."""

    def test_microsecond_precision_survives(self):
        epoch = 1_697_364_000.123456
        assert abs(_iso_to_epoch(_epoch_to_iso(epoch)) - epoch) < 1e-6

    def test_naive_timestamp_is_utc(self):
        # Some exporters omit the offset; interpreting those stamps in
        # local time skewed epochs by the machine's UTC offset.
        assert _iso_to_epoch("2023-10-15T10:00:00.000000") == _iso_to_epoch(
            "2023-10-15T10:00:00.000000Z"
        )

    def test_explicit_offset_respected(self):
        assert _iso_to_epoch("2023-10-15T03:00:00.000000-07:00") == _iso_to_epoch(
            "2023-10-15T10:00:00.000000Z"
        )

    @given(st.floats(min_value=0, max_value=2**31, allow_nan=False))
    def test_round_trip_within_microsecond(self, epoch):
        assert abs(_iso_to_epoch(_epoch_to_iso(epoch)) - epoch) < 1e-6

    @given(st.floats(min_value=0, max_value=2**31, allow_nan=False))
    def test_round_trip_idempotent(self, epoch):
        # One pass quantizes to microseconds; after that, the
        # conversion must be a fixed point — this is what makes
        # replaying an already-archived HAR byte-stable.
        once = _iso_to_epoch(_epoch_to_iso(epoch))
        assert _iso_to_epoch(_epoch_to_iso(once)) == once


_METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE"])
_HEADER_NAMES = st.sampled_from(
    ["User-Agent", "Accept", "X-Custom", "Content-Language"]
)
_HEADER_VALUES = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20
)


class TestReplayFieldFidelity:
    """Property tests: har_from_json(har_to_json(h)) preserves every
    field the replay path consumes."""

    @given(
        method=_METHODS,
        headers=st.lists(st.tuples(_HEADER_NAMES, _HEADER_VALUES), max_size=4),
        body=st.binary(max_size=64),
        connection=st.sampled_from(["", "100001", "conn-9"]),
        started=st.floats(min_value=1e9, max_value=2e9, allow_nan=False),
    )
    def test_request_fields_preserved(self, method, headers, body, connection, started):
        started = _iso_to_epoch(_epoch_to_iso(started))  # microsecond-aligned
        request = HttpRequest(
            method=method,
            url=parse_url("https://api.example.com/v1/events?k=v"),
            headers=[Header(n, v) for n, v in headers],
            body=body,
            timestamp=started,
        )
        har = Har()
        har.entries.append(
            HarEntry(request=request, started=started, connection=connection)
        )
        parsed = har_from_json(har_to_json(har))
        assert len(parsed.entries) == 1
        entry = parsed.entries[0]
        assert entry.request.method == method
        assert str(entry.request.url) == str(request.url)
        assert entry.request.headers == request.headers
        assert entry.request.body == body
        assert entry.request.http_version == request.http_version
        assert entry.request.timestamp == started
        assert entry.started == started
        assert entry.connection == connection

    def test_serialized_form_is_a_fixed_point(self):
        # to_json ∘ from_json must be the identity on our own output:
        # replaying a written artifact re-serializes identically.
        doc = har_to_json(make_har())
        assert har_to_json(har_from_json(doc)) == doc


class TestErrors:
    def test_missing_log_raises(self):
        with pytest.raises(HarError):
            har_from_json({"nope": 1})

    def test_missing_entries_raises(self):
        with pytest.raises(HarError):
            har_from_json({"log": {"version": "1.2"}})

    def test_malformed_entry_raises(self):
        doc = har_to_json(make_har())
        del doc["log"]["entries"][0]["request"]["url"]
        with pytest.raises(HarError):
            har_from_json(doc)

    def test_serialized_is_valid_json(self, tmp_path):
        path = tmp_path / "x.har"
        write_har(make_har(), path)
        json.loads(path.read_text())


# JSON values of every kind json.dumps writes: strings with non-ASCII,
# control and lone-surrogate characters, floats json spells its own
# way, and containers nested to any depth, empty ones included.
_JSON_STRINGS = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\u2028", "é"]),
    )
)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([-0.0, 1e16, float("inf"), float("-inf"), float("nan")])
    | _JSON_STRINGS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_STRINGS, children, max_size=4),
    max_leaves=30,
)


class TestHarText:
    @given(_JSON_VALUES)
    def test_equals_json_dumps_with_indent_1(self, value):
        assert har_text(value) == json.dumps(value, indent=1)

    def test_non_json_value_raises(self):
        with pytest.raises(TypeError):
            har_text({"when": object()})
