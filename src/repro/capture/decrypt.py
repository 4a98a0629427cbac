"""Keylog-based PCAP decryption — the ``editcap`` + Wireshark stand-in.

The study embedded TLS keys into the PCAP with ``editcap
--inject-secrets`` and let Wireshark produce decrypted traffic (§3.2).
This module does the equivalent: reassemble TCP flows from the PCAP,
look each flow's client random up in the key log, decrypt what it can,
and parse the plaintext into HTTP requests.  Flows whose secret is
missing (certificate-pinned) surface as *opaque contacts*: destination
(from the SNI) and frame count only — the paper keeps encrypted
traffic in its packet/domain accounting (§3.1.1).

Decoding is streaming and zero-copy: raw bytes (or an mmap-backed
on-disk file, via a :class:`~repro.net.pcap.PcapReader`) are walked
record by record, each frame's TCP payload is a view into the capture
buffer, and payload bytes are copied exactly once — into the flow
reassembly buffer.  Passing an eager :class:`~repro.net.pcap.PcapFile`
still works and takes the identical code path over its in-memory
packets, which is what the streaming-vs-eager parity tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.net.http import HttpRequest, parse_request_stream
from repro.net.packet import PacketError, parse_tcp_segment
from repro.net.pcap import PcapFile, PcapReader
from repro.net.tcp import TcpReassembler
from repro.net.tls import KeyLog, TlsError, decrypt_stream, looks_like_tls, unwrap_hello


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
    """The shared streaming core: frames → flows → TLS → HTTP."""
    result = MobileDecryption()
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
    result.packet_count = packet_count

    flows = reassembler.flows()
    result.flow_count = len(flows)
    for flow in flows:
        flow_id = str(flow.flow)
        if not flow.data:
            continue
        if not looks_like_tls(flow.data):
            # Plaintext HTTP straight off the wire (rare, port 80).
            for request in parse_request_stream(
                flow.data, scheme="http", timestamp=flow.first_timestamp
            ):
                result.requests.append(DecryptedRequest(request=request, flow=flow_id))
            continue
        try:
            hello, records = unwrap_hello(flow.data)
        except TlsError:
            result.undecryptable_flows += 1
            continue
        if hello is None:
            result.undecryptable_flows += 1
            continue
        session = keylog.lookup(hello.client_random)
        if session is None:
            result.undecryptable_flows += 1
            result.opaque.append(
                OpaqueContact(
                    host=hello.sni,
                    first_timestamp=flow.first_timestamp,
                    frame_count=flow.frames,
                )
            )
            continue
        try:
            plaintext = decrypt_stream(records, session)
        except TlsError:
            result.undecryptable_flows += 1
            continue
        for request in parse_request_stream(
            plaintext, scheme="https", timestamp=flow.first_timestamp
        ):
            result.requests.append(DecryptedRequest(request=request, flow=flow_id))
    return result
