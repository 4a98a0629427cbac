"""PCAPdroid capture simulation (paper §3.1.1).

The study ran PCAPdroid on a rooted Pixel 6: it captures each app's
traffic through a local VPN, writes a PCAP, and logs TLS secrets to an
NSS key-log file for later Wireshark decryption.  This module performs
the same transformation on generated traces:

* each connection becomes one TCP flow from the VPN client address,
  carrying a TLS-encrypted byte stream of its pipelined HTTP requests;
* decryptable connections get their secret recorded in the key log;
  pinned connections do not (their plaintext is unrecoverable);
* every frame is packed straight to its wire bytes, and the frames
  are serialized into a genuine binary PCAP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.capture.base import CaptureArtifact, TraceMeta
from repro.net.pcap import PcapFile, PcapPacket
from repro.net.tcp import FlowId, segment_request_wire
from repro.net.tls import KeyLog, TlsSession, encrypt_stream, wrap_with_hello
from repro.services.generator import RawTrace, ip_for

VPN_CLIENT_IP = "10.215.173.1"  # PCAPdroid's VPN-interface address
_BASE_CLIENT_PORT = 40_000


@dataclass
class MobileArtifact(CaptureArtifact):
    """What PCAPdroid leaves on device storage after a trace."""

    pcap: PcapFile = field(default_factory=PcapFile)
    keylog: KeyLog = field(default_factory=KeyLog)

    @property
    def packet_count(self) -> int:
        return len(self.pcap)

    def pcap_bytes(self) -> bytes:
        return self.pcap.to_bytes()

    def keylog_text(self) -> str:
        return self.keylog.to_text()


@dataclass
class PcapdroidCapture:
    """Capture engine: :class:`RawTrace` → :class:`MobileArtifact`."""

    mss: int = 1400

    def capture(self, trace: RawTrace) -> MobileArtifact:
        meta = TraceMeta(
            service=trace.service,
            platform=trace.platform,
            kind=trace.kind,
            age=trace.age,
        )
        artifact = MobileArtifact(meta=meta)

        # Group requests by connection, preserving request order.
        connections: dict[str, list] = {}
        for traced in trace.requests:
            connections.setdefault(traced.connection, []).append(traced)

        frames: list[tuple[float, bytes]] = []
        for index, (connection_id, traced_requests) in enumerate(connections.items()):
            host = traced_requests[0].request.url.host
            payload = b"".join(t.request.to_bytes() for t in traced_requests)
            session = TlsSession.derive(
                f"{meta.name}|{connection_id}".encode("utf-8")
            )
            stream = wrap_with_hello(
                encrypt_stream(payload, session), session, sni=host
            )
            pinned = any(t.pinned for t in traced_requests)
            if not pinned:
                artifact.keylog.record(session)
            flow = FlowId(
                client_ip=VPN_CLIENT_IP,
                client_port=_BASE_CLIENT_PORT + index,
                server_ip=ip_for(host),
                server_port=443,
            )
            frames.extend(
                segment_request_wire(
                    stream,
                    flow,
                    timestamp=traced_requests[0].request.timestamp,
                    mss=self.mss,
                )
            )

        frames.sort(key=itemgetter(0))  # stable: ties keep flow order
        artifact.pcap.packets = [
            PcapPacket(timestamp=timestamp, data=data) for timestamp, data in frames
        ]
        return artifact
