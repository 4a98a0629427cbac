"""Keylog-based PCAP decryption — the ``editcap`` + Wireshark stand-in.

The study embedded TLS keys into the PCAP with ``editcap
--inject-secrets`` and let Wireshark produce decrypted traffic (§3.2).
This module does the equivalent: reassemble TCP flows from the PCAP,
look each flow's client random up in the key log, decrypt what it can,
and parse the plaintext into HTTP requests.  Flows whose secret is
missing (certificate-pinned) surface as *opaque contacts*: destination
(from the SNI) and frame count only — the paper keeps encrypted
traffic in its packet/domain accounting (§3.1.1).

Decoding has two layers.  :class:`FlowDecoder` turns one flow's
client→server byte stream into requests, an opaque contact or an
undecryptable count, whatever the chunking of its input; it is the
only code that makes those decisions.  Around it sit two packet
walks: :func:`decrypt_mobile_artifact` reassembles every flow and
then feeds each one whole, and the streaming
``repro.stream.incremental.IncrementalTraceDecoder`` feeds each flow's
bytes as they arrive and evicts flows by policy.  Both build their
:class:`MobileDecryption` through :func:`assemble_decryption`.

The batch walk is zero-copy up to reassembly: raw bytes (or an
mmap-backed on-disk file, via a :class:`~repro.net.pcap.PcapReader`)
are walked record by record, and each frame's TCP payload is a view
into the capture buffer until it is copied into the flow reassembly
buffer.  Passing an eager :class:`~repro.net.pcap.PcapFile` takes the
identical code path over its in-memory packets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.net.http import HttpRequest, pending_request_need, scan_request_stream
from repro.net.packet import PacketError, parse_tcp_segment
from repro.net.pcap import PcapFile, PcapReader
from repro.net.tcp import TcpReassembler
from repro.net.tls import (
    RECORD_TYPE_APPDATA,
    STREAM_HELLO,
    STREAM_PLAIN,
    STREAM_RECORDS,
    KeyLog,
    TlsError,
    decrypt_record,
    scan_hello,
    scan_records,
    sniff_stream,
)


@dataclass(frozen=True)
class OpaqueContact:
    """A flow we could not decrypt: destination knowledge only."""

    host: str
    first_timestamp: float
    frame_count: int


@dataclass
class DecryptedRequest:
    """One recovered outgoing request with its flow identity."""

    request: HttpRequest
    flow: str  # canonical flow id string


@dataclass
class MobileDecryption:
    """Everything recoverable from one mobile artifact."""

    requests: list[DecryptedRequest] = field(default_factory=list)
    opaque: list[OpaqueContact] = field(default_factory=list)
    packet_count: int = 0
    flow_count: int = 0
    undecryptable_flows: int = 0


class FlowOutcome(NamedTuple):
    """What one finalized flow contributed."""

    kind: str  # "requests" | "opaque" | "undecryptable"
    requests: list[HttpRequest]
    sni: str


# FlowDecoder stages.
_SNIFF = 0  # too few bytes to route the flow yet
_PLAIN = 1  # plaintext HTTP straight off the wire
_TLS_HELLO = 2  # TLS magic seen, waiting for the whole pseudo-hello
_TLS_BODY = 3  # session known, decrypting records as they complete
_OPAQUE = 4  # no secret in the key log: destination knowledge only
_UNDECRYPTABLE = 5  # hello-less records or a TLS framing error


class FlowDecoder:
    """One flow's pseudo-hello → TLS records → HTTP stage machine.

    The only code that turns a client→server byte stream into
    requests, an opaque contact or an undecryptable count.  The batch
    walk feeds each reassembled flow whole; the streaming decoder feeds
    each newly contiguous chunk as it arrives.  The outcome does not
    depend on that chunking: each stage acts only on a complete hello,
    record or request (the wire-format scanners in ``repro.net.tls``
    and ``repro.net.http`` report how much they consumed), and
    consumed bytes are released at once, so the decoder holds only a
    partial hello, record or request plus the requests recovered so
    far.

    A TLS flow is all-or-nothing: a framing error anywhere, or a
    partial record at the end, makes it undecryptable and discards
    every request it produced.  An HTTP head that fails to parse stops
    the flow's request walk for good; the requests before it stand.
    """

    __slots__ = (
        "_keylog",
        "_stage",
        "_buffer",
        "_plain",
        "_session",
        "_record_index",
        "_http_broken",
        "_http_need",
        "_requests",
        "_sni",
    )

    def __init__(self, keylog: KeyLog) -> None:
        self._keylog = keylog
        self._stage = _SNIFF
        self._buffer = bytearray()  # received bytes not yet consumed
        self._plain = bytearray()  # decrypted bytes not yet parsed
        self._session = None
        self._record_index = 0
        self._http_broken = False
        self._http_need = 0
        self._requests: list[HttpRequest] = []
        self._sni = ""

    @property
    def buffered(self) -> int:
        """Unconsumed bytes this decoder is holding."""
        return len(self._buffer) + len(self._plain)

    def feed(self, chunk) -> None:
        """Consume the flow's next contiguous bytes."""
        if not chunk or self._stage >= _OPAQUE:
            return  # nothing more is recoverable; drop the bytes
        self._buffer += chunk
        if self._stage == _SNIFF:
            kind = sniff_stream(self._buffer)
            if kind == STREAM_HELLO:
                self._stage = _TLS_HELLO
            elif kind == STREAM_PLAIN:
                self._stage = _PLAIN
            elif kind == STREAM_RECORDS:
                self._give_up()  # records with no hello: no key to look up
                return
        if self._stage == _TLS_HELLO:
            self._read_hello()
        if self._stage == _TLS_BODY:
            self._decrypt_records()
        elif self._stage == _PLAIN:
            self._parse_http(self._buffer, "http")

    def _read_hello(self) -> None:
        try:
            hello = scan_hello(self._buffer)
        except TlsError:
            self._give_up()
            return
        if hello is None:
            return  # wait for the rest of the hello
        client_random, self._sni, consumed = hello
        self._session = self._keylog.lookup(client_random)
        if self._session is None:
            self._stage = _OPAQUE
            self._buffer.clear()
            return
        del self._buffer[:consumed]
        self._stage = _TLS_BODY

    def _decrypt_records(self) -> None:
        try:
            records, consumed = scan_records(self._buffer)
        except TlsError:
            self._give_up()
            return
        if not consumed:
            return
        for record_type, body in records:
            # The keystream offset counts every record, not only the
            # application-data ones.
            if record_type == RECORD_TYPE_APPDATA:
                self._plain += decrypt_record(body, self._session, self._record_index)
            self._record_index += 1
        del self._buffer[:consumed]
        self._parse_http(self._plain, "https")

    def _parse_http(self, source: bytearray, scheme: str) -> None:
        if self._http_broken:
            source.clear()  # the walk stopped at a bad head for good
            return
        if len(source) < self._http_need:
            # A pending request's framing already told us how many
            # bytes it needs; don't re-copy and re-scan the buffer for
            # every arriving segment of a large body.
            return
        requests, consumed, broken = scan_request_stream(bytes(source), scheme=scheme)
        self._requests.extend(requests)
        del source[:consumed]
        if broken:
            self._http_broken = True
            source.clear()
            return
        self._http_need = pending_request_need(source) if source else 0

    def _give_up(self) -> None:
        self._stage = _UNDECRYPTABLE
        self._requests.clear()
        self._buffer.clear()
        self._plain.clear()

    def finalize(self) -> FlowOutcome:
        """Close the flow and say what it contributed.

        A flow too short to route (under five bytes, no TLS magic) is
        plaintext that holds no request.  A truncated hello, like a
        partial trailing record, makes a TLS flow undecryptable.
        """
        stage = self._stage
        if stage == _OPAQUE:
            return FlowOutcome("opaque", [], self._sni)
        if stage == _TLS_HELLO or stage == _UNDECRYPTABLE or (
            stage == _TLS_BODY and self._buffer
        ):
            return FlowOutcome("undecryptable", [], "")
        return FlowOutcome("requests", self._requests, "")


def assemble_decryption(
    packet_count: int, flows: Iterable[tuple[str, float, int, FlowOutcome]]
) -> MobileDecryption:
    """The :class:`MobileDecryption` of a trace's finalized flows.

    ``flows`` yields ``(flow id, first timestamp, frame count,
    outcome)`` in first-seen order.  Requests are stamped with their
    flow's first timestamp, and every opaque or undecryptable flow
    counts as undecryptable.
    """
    result = MobileDecryption(packet_count=packet_count)
    for flow_id, first_timestamp, frames, outcome in flows:
        result.flow_count += 1
        if outcome.kind == "requests":
            for request in outcome.requests:
                request.timestamp = first_timestamp
                result.requests.append(DecryptedRequest(request=request, flow=flow_id))
            continue
        result.undecryptable_flows += 1
        if outcome.kind == "opaque":
            result.opaque.append(
                OpaqueContact(
                    host=outcome.sni,
                    first_timestamp=first_timestamp,
                    frame_count=frames,
                )
            )
    return result


def decrypt_mobile_artifact(
    pcap: "PcapFile | bytes | bytearray | memoryview | str | Path",
    keylog: KeyLog | str,
) -> MobileDecryption:
    """Recover plaintext requests from a PCAP + key-log pair.

    ``pcap`` may be raw capture bytes (decoded zero-copy in place), a
    filesystem path (memory-mapped, never fully read into Python
    bytes), or an eager :class:`PcapFile`.
    """
    if isinstance(keylog, str):
        keylog = KeyLog.from_text(keylog)
    if isinstance(pcap, (str, Path)):
        with PcapReader.open(pcap) as reader:
            return _decrypt_packets(
                ((r.timestamp, r.data) for r in reader.iter_packets()), keylog
            )
    if isinstance(pcap, PcapFile):
        return _decrypt_packets(
            ((p.timestamp, p.data) for p in pcap.packets), keylog
        )
    reader = PcapReader(pcap)
    return _decrypt_packets(
        ((r.timestamp, r.data) for r in reader.iter_packets()), keylog
    )


def _decrypt_packets(
    packets: Iterable[tuple[float, "bytes | memoryview"]], keylog: KeyLog
) -> MobileDecryption:
    """The batch packet walk: reassemble every flow, then decode each whole."""
    reassembler = TcpReassembler()
    packet_count = 0
    for timestamp, data in packets:
        packet_count += 1
        try:
            segment = parse_tcp_segment(data, timestamp)
        # repro-lint: disable=X-SWALLOW — non-TCP noise is skipped by design, as Wireshark display filters would
        except PacketError:
            continue
        reassembler.add_segment(segment)
    decoded = []
    for flow in reassembler.flows():
        decoder = FlowDecoder(keylog)
        decoder.feed(flow.data)
        decoded.append(
            (str(flow.flow), flow.first_timestamp, flow.frames, decoder.finalize())
        )
    return assemble_decryption(packet_count, decoded)
