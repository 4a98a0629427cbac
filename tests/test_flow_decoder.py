"""The flow decoder, alone and under both packet walks.

``repro.capture.decrypt.FlowDecoder`` is the only code that turns a
client→server byte stream into requests, an opaque contact or an
undecryptable count.  The batch walk feeds it each reassembled flow
whole and the streaming decoder feeds it each chunk as it drains, so
its outcome must not depend on the chunking: that invariant is what
makes batch ≡ stream hold at the flow layer by construction.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.decrypt import FlowDecoder, decrypt_mobile_artifact
from repro.net.http import Header, HttpRequest
from repro.net.pcap import PcapFile, PcapPacket, PcapReader
from repro.net.tcp import FlowId, segment_request
from repro.net.tls import KeyLog, TlsSession, encrypt_stream, wrap_with_hello
from repro.net.url import parse_url
from repro.stream.incremental import IncrementalTraceDecoder

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SESSION = TlsSession.derive(b"flow-decoder")
MISSING = TlsSession.derive(b"flow-decoder-pinned")  # never in the key log
KEYLOG = KeyLog()
KEYLOG.record(SESSION)

BROKEN_HEAD = b"NOT A REQUEST\r\n\r\n"
# A record header promising more bytes than the flow carries.
PARTIAL_RECORD = b"\x17\x03\x03\x00\x40" + b"\x00" * 10
BAD_VERSION_RECORD = b"\x17\x03\x01\x00\x02ab"


def wire_request(index: int, body: bytes) -> bytes:
    return HttpRequest(
        method="POST",
        url=parse_url(f"https://api.example.com/v{index}"),
        headers=[Header("User-Agent", "test")],
        body=body,
    ).to_bytes()


def decode(chunks) -> tuple:
    decoder = FlowDecoder(KEYLOG)
    for chunk in chunks:
        decoder.feed(chunk)
    outcome = decoder.finalize()
    return outcome.kind, [r.to_bytes() for r in outcome.requests], outcome.sni


_BODIES = st.one_of(
    st.binary(max_size=48),
    # Large enough to span TLS records and many TCP segments.
    st.integers(0, 20_000).map(lambda size: b"b" * size),
)

_CORRUPTIONS = {
    "tls": [None, "truncated-hello", "bad-version", "partial-record", "broken-head"],
    "tls-missing": [None, "truncated-hello", "bad-version"],
    "records": [None, "bad-version", "partial-record"],
    "plain": [None, "broken-head"],
}


@st.composite
def flows(draw):
    """A flow's bytes, plus the kind and requests it must decode to."""
    pieces = [
        wire_request(index, body)
        for index, body in enumerate(draw(st.lists(_BODIES, min_size=1, max_size=3)))
    ]
    shape = draw(st.sampled_from(sorted(_CORRUPTIONS)))
    corruption = draw(st.sampled_from(_CORRUPTIONS[shape]))
    sni = draw(st.sampled_from(["api.example.com", "", "bücher.example"]))
    expected = pieces
    if corruption == "broken-head":
        cut = draw(st.integers(0, len(pieces)))
        expected = pieces[:cut]
        pieces = pieces[:cut] + [BROKEN_HEAD] + pieces[cut:]
    plaintext = b"".join(pieces)
    if shape == "plain":
        return plaintext, "requests", expected, ""
    session = SESSION if shape == "tls" else MISSING
    records = encrypt_stream(plaintext, session)
    if corruption == "bad-version":
        records += BAD_VERSION_RECORD + encrypt_stream(b"after", session)
    elif corruption == "partial-record":
        records += PARTIAL_RECORD
    if shape == "records":
        return records, "undecryptable", [], ""
    flow = wrap_with_hello(records, session, sni)
    if corruption == "truncated-hello":
        hello_length = len(flow) - len(records)
        flow = flow[: draw(st.integers(2, hello_length - 1))]
        return flow, "undecryptable", [], ""
    if shape == "tls-missing":
        return flow, "opaque", [], sni
    if corruption in ("bad-version", "partial-record"):
        return flow, "undecryptable", [], ""
    return flow, "requests", expected, ""


class TestChunkingInvariance:
    @settings(max_examples=150, deadline=None)
    @given(flows(), st.lists(st.integers(min_value=0), max_size=12))
    def test_outcome_independent_of_chunking(self, flow, cuts):
        data, kind, requests, sni = flow
        whole = decode([data])
        assert whole == (kind, requests, sni)
        points = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
        random_split = [data[a:b] for a, b in zip(points, points[1:])]
        assert decode(random_split) == whole
        assert decode([data[i : i + 1] for i in range(len(data))]) == whole

    def test_short_flows(self):
        assert decode([]) == ("requests", [], "")
        # Under five bytes and no hello magic: too short to be TLS.
        assert decode([b"\x16"]) == ("requests", [], "")
        assert decode([b"\x17\x03\x03\x00"]) == ("requests", [], "")
        assert decode([b"\x17\x03\x03\x00\x00"]) == ("undecryptable", [], "")
        assert decode([b"\x16", b"\x03"]) == ("undecryptable", [], "")
        assert decode([b"GET"]) == ("requests", [], "")
        hello_only = wrap_with_hello(b"", SESSION, "api.example.com")
        assert decode([hello_only]) == ("requests", [], "")


# -- both packet walks over hand-built captures -----------------------------


def capture(*flows: tuple[int, bytes]) -> bytes:
    """A PCAP holding one client→server TCP flow per (port, payload)."""
    pcap = PcapFile()
    for index, (port, payload) in enumerate(flows):
        flow = FlowId("10.0.0.1", 40000 + index, "93.184.216.34", port)
        for frame in segment_request(payload, flow, timestamp=1.0 + index):
            pcap.append(PcapPacket(timestamp=frame.timestamp, data=frame.to_bytes()))
    return pcap.to_bytes()


def stream_decode(blob: bytes, keylog: KeyLog):
    decoder = IncrementalTraceDecoder(keylog)
    with PcapReader(blob) as reader:
        for record in reader.iter_packets():
            decoder.feed(record.timestamp, record.data)
    return decoder.finish()


def summary(decryption) -> dict:
    return {
        "requests": [r.request.to_bytes().decode("latin-1") for r in decryption.requests],
        "opaque": [contact.host for contact in decryption.opaque],
        "flows": decryption.flow_count,
        "undecryptable": decryption.undecryptable_flows,
    }


def decode_both(blob: bytes, keylog: KeyLog) -> list[dict]:
    """The batch and the streaming walk's summaries of one capture."""
    return [
        summary(decrypt_mobile_artifact(blob, keylog)),
        summary(stream_decode(blob, keylog)),
    ]


# Runs decode_both on the capture given on stdin, under a memory limit.
_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from test_flow_decoder import decode_both
from repro.net.tls import KeyLog
print(json.dumps(decode_both(sys.stdin.buffer.read(), KeyLog())))
"""


class TestMalformedHead:
    """A Content-Length that is not a non-negative decimal integer, or a
    Host that does not form a URL, makes its head malformed: the flow's
    request walk stops there."""

    @pytest.mark.parametrize(
        "head",
        [
            # Minus the request's own length: the walk never advanced.
            b"GET / HTTP/1.1\r\nHost: a.example\r\nContent-Length: -56\r\n\r\n",
            # Negative: a bogus request, then a walk from inside its head.
            b"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: -40\r\n\r\n",
            # Non-numeric: int() raised out of the decoder.
            b"GET / HTTP/1.1\r\nHost: a\r\nContent-Length: 12abc\r\n\r\n",
            # Host does not form a URL: UrlError raised out of the decoder.
            b"GET / HTTP/1.1\r\nHost: a:99999\r\n\r\n",
            b"GET / HTTP/1.1\r\nHost: [::1\r\n\r\n",
        ],
    )
    def test_walk_stops_at_the_head(self, head):
        good = wire_request(0, b"kept")
        blob = capture((80, good + head + wire_request(1, b"lost")))
        # A child process with a time and memory limit: a walk that
        # never advances must fail the test, not hang the suite.
        completed = subprocess.run(
            [sys.executable, "-c", _CHILD, str(TESTS)],
            input=blob,
            capture_output=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert completed.returncode == 0, completed.stderr.decode()
        batch, streamed = json.loads(completed.stdout)
        assert batch == streamed
        assert batch["requests"] == [good.decode("latin-1")]
        assert batch["flows"] == 1
        assert batch["undecryptable"] == 0


class TestNonIdnaSni:
    def test_only_its_own_flow_is_undecryptable(self):
        other = TlsSession.derive(b"flow-decoder-bad-sni")
        keylog = KeyLog()
        keylog.record(SESSION)
        keylog.record(other)
        request = wire_request(0, b"payload")
        healthy = wrap_with_hello(encrypt_stream(request, SESSION), SESSION, "api.example.com")
        bad_sni = (
            b"\x16\x03" + other.client_random + b"\x00\x03\xff\xfe\xfd"
            + encrypt_stream(request, other)
        )
        blob = capture((443, healthy), (443, bad_sni))
        batch, streamed = decode_both(blob, keylog)
        assert batch == streamed
        assert batch == {
            "requests": [request.decode("latin-1")],
            "opaque": [],
            "flows": 2,
            "undecryptable": 1,
        }
