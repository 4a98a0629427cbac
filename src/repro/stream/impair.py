"""Seeded network-impairment injector (drop / reorder / duplicate /
jitter / IP-fragment).

The related chaos-testing repos treat messy network conditions as
first-class (ovs-container-lab injects loss, reordering and
duplication at the switch; cross-dc-simulator shapes latency per
link).  This module brings that to the simulated capture path: an
:class:`ImpairmentInjector` deterministically perturbs a packet
sequence under a named
:class:`~repro.services.config.ImpairmentProfile` (the presets live
with the corpus config, which validates them), so adversarial corpora
are reproducible from ``(profile, seed)`` alone.

Impairments split into two classes:

* **recoverable** — reordering and duplication.  Displaced packets
  keep their capture timestamps and duplicated packets are bit-exact
  copies, so TCP reassembly (first-copy-wins, seq-ordered) produces
  byte-identical flows; an audit of a reorder-impaired capture equals
  the audit of the clean one.
* **lossy** — drop, jitter and IP fragmentation.  Dropped packets
  leave holes, jitter moves capture clocks, and fragmented packets
  are rejected by the TCP-only decoder (the Wireshark stand-in does
  not reassemble IP fragments), so these change what the audit can
  recover — which is the point: they exercise the incomplete-flow
  accounting.

Both the streaming and the batch path consume the impaired sequence
identically, so stream-vs-batch parity holds under *every* profile;
only the recoverable ones additionally preserve parity against the
clean capture.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator

from repro.net.packet import ETHERTYPE_IPV4, _U16, internet_checksum
from repro.net.pcap import PcapFile, PcapPacket
from repro.services.config import ImpairmentProfile

Packet = tuple[float, bytes]


def trace_impair_seed(seed: int, trace_name: str) -> int:
    """The injector seed for one trace unit.

    Derived from the corpus seed and the trace identity, so the live
    streaming source and the batch ``generate --impair`` path perturb
    each trace identically — which is what lets an in-memory impaired
    audit stay byte-identical to a replay of its archived artifacts.
    """
    digest = hashlib.sha256(f"impair|{seed}|{trace_name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fragment_ipv4(data: bytes, rng: random.Random) -> list[bytes] | None:
    """Split one Ethernet/IPv4 packet into two valid IP fragments.

    Returns None when the packet cannot be fragmented (not IPv4, no
    room to split).  Fragment offsets are 8-byte aligned and both
    headers carry recomputed checksums, so the fragments are
    wire-valid — the decoder rejects them *because they are
    fragments*, not because they are malformed.
    """
    if len(data) < 14 + 20:
        return None
    (ethertype,) = _U16.unpack(data[12:14])
    if ethertype != ETHERTYPE_IPV4:
        return None
    eth = data[:14]
    ip = data[14:]
    version_ihl = ip[0]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    (total_length,) = _U16.unpack(ip[2:4])
    payload = bytes(ip[ihl:total_length])
    if len(payload) < 16:
        return None  # too small to split into two non-empty fragments
    # Split point: an 8-byte-aligned cut strictly inside the payload.
    blocks = len(payload) // 8
    cut = 8 * rng.randint(1, blocks - 1)

    def rebuild(chunk: bytes, flags_fragment: int) -> bytes:
        header = bytearray(ip[:ihl])
        header[2:4] = _U16.pack(ihl + len(chunk))
        header[6:8] = _U16.pack(flags_fragment)
        header[10:12] = b"\x00\x00"
        header[10:12] = _U16.pack(internet_checksum(bytes(header)))
        return bytes(eth) + bytes(header) + chunk

    first = rebuild(payload[:cut], 0x2000)  # MF set, offset 0
    second = rebuild(payload[cut:], cut // 8)  # offset in 8-byte blocks
    return [first, second]


class ImpairmentInjector:
    """Deterministically impair a packet sequence.

    One injector instance covers one capture: the RNG is seeded once
    and consumed in strict input order, so the output sequence is a
    pure function of ``(profile, seed, input packets)``.
    """

    def __init__(self, profile: ImpairmentProfile, seed: int) -> None:
        self.profile = profile
        self._rng = random.Random(seed)

    def apply(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        """Yield the impaired packet sequence."""
        profile = self.profile
        rng = self._rng
        # Packets displaced by the reorder roll: [countdown, ts, data],
        # released (in holdback order) as later packets pass them.
        held: list[list] = []

        def release_after_emit() -> Iterator[Packet]:
            ready: list[list] = []
            remaining: list[list] = []
            for entry in held:
                entry[0] -= 1
                (ready if entry[0] <= 0 else remaining).append(entry)
            held[:] = remaining
            for _, ts, data in ready:
                yield ts, data

        def emit(ts: float, data: bytes) -> Iterator[Packet]:
            if profile.reorder and rng.random() < profile.reorder:
                held.append([rng.randint(1, profile.reorder_depth), ts, data])
                return
            yield ts, data
            yield from release_after_emit()

        for timestamp, data in packets:
            data = bytes(data)
            if profile.drop and rng.random() < profile.drop:
                continue
            if profile.jitter_s:
                timestamp = max(
                    0.0,
                    timestamp + rng.uniform(-profile.jitter_s, profile.jitter_s),
                )
            copies = [(timestamp, data)]
            if profile.fragment and rng.random() < profile.fragment:
                fragments = _fragment_ipv4(data, rng)
                if fragments is not None:
                    copies = [(timestamp, fragment) for fragment in fragments]
            if profile.duplicate and rng.random() < profile.duplicate:
                copies = copies + copies  # bit-exact retransmit
            for ts, chunk in copies:
                yield from emit(ts, chunk)
        # End of input: flush everything still held back, in order.
        for _, ts, data in held:
            yield ts, data


def impair_pcap(pcap: PcapFile, profile: ImpairmentProfile, seed: int) -> PcapFile:
    """Apply a profile to an in-memory capture, preserving metadata.

    The workhorse behind ``repro generate --impair`` and the live
    streaming source: both derive the seed with
    :func:`trace_impair_seed`, so they produce identical impaired
    captures for the same trace.
    """
    if profile.name == "clean":
        return pcap
    injector = ImpairmentInjector(profile, seed)
    out = PcapFile(linktype=pcap.linktype, snaplen=pcap.snaplen)
    for timestamp, data in injector.apply(
        (packet.timestamp, packet.data) for packet in pcap.packets
    ):
        out.append(PcapPacket(timestamp=timestamp, data=data))
    return out
