"""Binary codecs for Ethernet II, IPv4, IPv6, and TCP headers.

Mobile traces are PCAP files whose packets must be decoded down to TCP
payloads before HTTP extraction (paper §3.2).  The codecs here
implement genuine wire formats, including the IPv4 header checksum and
the TCP pseudo-header checksum, so the PCAP round-trip exercises a real
parser rather than a shortcut.

Capture writes each packet with one encoder, :func:`pack_tcp_frame`,
which goes from a segment's fields straight to its wire bytes; the
header dataclasses and :class:`Frame` build unusual frames for tests
and are the reference those bytes are checked against.  Decoding reads
packets through one parser, :func:`parse_tcp_segment`, which goes from
link-layer bytes straight to a :class:`TcpSegment`.  The decode path
is zero-copy: it accepts any buffer-protocol object (``bytes``,
``bytearray``, ``memoryview``) and the payload is a *view* into it,
so a full PCAP decode copies each payload byte exactly once (into the
TCP reassembly buffer).  All struct formats are precompiled at module
level, and the MAC/IPv4 string codecs are memoized — addresses repeat
constantly inside a capture, so rendering each distinct one once is
enough.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
IPPROTO_TCP = 6
IPPROTO_UDP = 17

# Precompiled wire formats — one compile per process, not per call.
_U16 = struct.Struct("!H")
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")
_IPV6_FIXED = struct.Struct("!IHBB")
_IPV6_GROUP = struct.Struct("!H")
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
# Ports, seq, ack, data-offset byte, flags: what a segment needs.
_TCP_SEGMENT = struct.Struct("!HHIIBB")
_TCP_PSEUDO = struct.Struct("!BBH")


class PacketError(ValueError):
    """Raised when bytes do not decode as the expected protocol layer."""


@lru_cache(maxsize=65536)
def ipv4_to_bytes(address: str) -> bytes:
    parts = address.split(".")
    if len(parts) != 4:
        raise PacketError(f"bad IPv4 address {address!r}")
    try:
        return bytes(int(p) for p in parts)
    except ValueError as exc:
        raise PacketError(f"bad IPv4 address {address!r}") from exc


@lru_cache(maxsize=65536)
def ipv4_to_str(raw: bytes) -> str:
    if len(raw) != 4:
        raise PacketError("IPv4 address must be 4 bytes")
    return ".".join(str(b) for b in raw)


@lru_cache(maxsize=4096)
def mac_to_bytes(mac: str) -> bytes:
    parts = mac.split(":")
    if len(parts) != 6:
        raise PacketError(f"bad MAC address {mac!r}")
    return bytes(int(p, 16) for p in parts)


@lru_cache(maxsize=4096)
def mac_to_str(raw: bytes) -> str:
    return ":".join(f"{b:02x}" for b in raw)


def internet_checksum(data) -> int:
    """RFC 1071 ones'-complement checksum over any bytes-like buffer.

    The end-around-carry sum of 16-bit words is congruent to the
    buffer's big-endian integer value mod 0xFFFF (2**16 ≡ 1 there), so
    the whole summation is one C-level ``int.from_bytes`` — the fold
    only needs the zero-vs-multiple-of-0xFFFF distinction restored
    (folding a nonzero sum never yields zero).
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    return _checksum_of(int.from_bytes(data, "big"))


def _checksum_of(value: int) -> int:
    """The checksum of a buffer whose big-endian value is ``value``.

    Any ``value`` congruent to it mod 0xFFFF serves, provided it is
    zero only when the buffer is: the checksum depends on nothing else.
    """
    total = value % 0xFFFF
    if total == 0 and value:
        total = 0xFFFF
    return (~total) & 0xFFFF


@dataclass(frozen=True)
class EthernetHeader:
    dst_mac: str = "aa:bb:cc:00:00:01"
    src_mac: str = "aa:bb:cc:00:00:02"
    ethertype: int = ETHERTYPE_IPV4

    def to_bytes(self) -> bytes:
        return (
            mac_to_bytes(self.dst_mac)
            + mac_to_bytes(self.src_mac)
            + _U16.pack(self.ethertype)
        )


@dataclass(frozen=True)
class Ipv4Header:
    src: str
    dst: str
    protocol: int = IPPROTO_TCP
    identification: int = 0
    ttl: int = 64
    total_length: int = 0  # filled during encode when 0

    SIZE = 20

    def to_bytes(self, payload_length: int) -> bytes:
        total = self.total_length or (self.SIZE + payload_length)
        header = _IPV4_HEADER.pack(
            (4 << 4) | 5,  # version + IHL
            0,  # DSCP/ECN
            total,
            self.identification,
            0x4000,  # flags: don't fragment
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            ipv4_to_bytes(self.src),
            ipv4_to_bytes(self.dst),
        )
        checksum = internet_checksum(header)
        return header[:10] + _U16.pack(checksum) + header[12:]


def ipv6_to_bytes(address: str) -> bytes:
    """Encode an IPv6 address, supporting one ``::`` compression."""
    if address.count("::") > 1:
        raise PacketError(f"bad IPv6 address {address!r}")
    if "::" in address:
        head, _, tail = address.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise PacketError(f"bad IPv6 address {address!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = address.split(":")
    if len(groups) != 8:
        raise PacketError(f"bad IPv6 address {address!r}")
    try:
        return b"".join(_IPV6_GROUP.pack(int(group or "0", 16)) for group in groups)
    except ValueError as exc:
        raise PacketError(f"bad IPv6 address {address!r}") from exc


def ipv6_to_str(raw: bytes) -> str:
    """Render 16 bytes as a canonical-ish IPv6 string (no compression)."""
    if len(raw) != 16:
        raise PacketError("IPv6 address must be 16 bytes")
    return ":".join(f"{int.from_bytes(raw[i:i + 2], 'big'):x}" for i in range(0, 16, 2))


@dataclass(frozen=True)
class Ipv6Header:
    """Fixed IPv6 header (RFC 8200), no extension headers."""

    src: str
    dst: str
    next_header: int = IPPROTO_TCP
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    SIZE = 40

    def to_bytes(self, payload_length: int) -> bytes:
        first_word = (
            (6 << 28) | (self.traffic_class << 20) | (self.flow_label & 0xFFFFF)
        )
        return (
            _IPV6_FIXED.pack(
                first_word, payload_length, self.next_header, self.hop_limit
            )
            + ipv6_to_bytes(self.src)
            + ipv6_to_bytes(self.dst)
        )

    @classmethod
    def from_bytes(cls, data) -> tuple["Ipv6Header", "memoryview | bytes"]:
        if len(data) < cls.SIZE:
            raise PacketError("truncated IPv6 header")
        (first_word, payload_length, next_header, hop_limit) = _IPV6_FIXED.unpack(
            data[:8]
        )
        if first_word >> 28 != 6:
            raise PacketError("not an IPv6 packet")
        header = cls(
            src=ipv6_to_str(bytes(data[8:24])),
            dst=ipv6_to_str(bytes(data[24:40])),
            next_header=next_header,
            hop_limit=hop_limit,
            traffic_class=(first_word >> 20) & 0xFF,
            flow_label=first_word & 0xFFFFF,
        )
        return header, data[cls.SIZE : cls.SIZE + payload_length]


@dataclass(frozen=True)
class TcpHeader:
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0x18  # PSH|ACK
    window: int = 65535

    SIZE = 20
    FLAG_FIN = 0x01
    FLAG_SYN = 0x02
    FLAG_RST = 0x04
    FLAG_PSH = 0x08
    FLAG_ACK = 0x10

    def to_bytes(self, payload: bytes, src_ip: str, dst_ip: str) -> bytes:
        header = _TCP_HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            (5 << 4),  # data offset, no options
            self.flags,
            self.window,
            0,  # checksum placeholder
            0,  # urgent pointer
        )
        pseudo = (
            ipv4_to_bytes(src_ip)
            + ipv4_to_bytes(dst_ip)
            + _TCP_PSEUDO.pack(0, IPPROTO_TCP, len(header) + len(payload))
        )
        checksum = internet_checksum(pseudo + header + payload)
        return header[:16] + _U16.pack(checksum) + header[18:] + payload


class TcpSegment(NamedTuple):
    """The decode path's view of one TCP packet — just the fields flow
    reassembly consumes, no per-layer header objects.

    ``payload`` may be a zero-copy view into the capture buffer; the
    view stays valid only while the backing buffer does (for
    mmap-backed reads, until the :class:`repro.net.pcap.PcapReader` is
    closed).  Consumers that outlive the buffer must take ``bytes()``.
    """

    timestamp: float
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    seq: int
    flags: int
    payload: "bytes | memoryview"


def parse_tcp_segment(data, timestamp: float = 0.0) -> TcpSegment:
    """Parse Ethernet/IPv4/TCP layers straight into a :class:`TcpSegment`.

    The one IPv4 packet decoder, for batch and streaming decode alike.
    Raises :class:`PacketError` on a truncated Ethernet, IPv4 or TCP
    header, a non-IPv4 ethertype, a bad IP version or IHL, a non-TCP
    protocol, a fragment, an IPv4 header checksum mismatch and a bad
    TCP data offset.  No header dataclass is built — that dominated
    per-packet cost: each header is one ``unpack_from`` at its offset
    into ``data``, and the payload is the only slice taken.
    """
    # Ethernet II
    size = len(data)
    if size < 14:
        raise PacketError("truncated Ethernet header")
    (ethertype,) = _U16.unpack_from(data, 12)
    if ethertype != ETHERTYPE_IPV4:
        raise PacketError(f"unsupported ethertype 0x{ethertype:04x}")
    # IPv4, at offset 14
    if size - 14 < Ipv4Header.SIZE:
        raise PacketError("truncated IPv4 header")
    (
        version_ihl, _tos, total_length, _ident, flags_fragment,
        _ttl, protocol, _checksum, src, dst,
    ) = _IPV4_HEADER.unpack_from(data, 14)
    if version_ihl >> 4 != 4:
        raise PacketError("not an IPv4 packet")
    ihl = (version_ihl & 0x0F) * 4
    if ihl < Ipv4Header.SIZE or size - 14 < ihl:
        raise PacketError("bad IPv4 IHL")
    if protocol != IPPROTO_TCP:
        raise PacketError(f"unsupported IP protocol {protocol}")
    if flags_fragment & 0x3FFF:  # MF set or nonzero fragment offset
        raise PacketError("fragmented IPv4 packet")
    if internet_checksum(data[14 : 14 + ihl]) != 0:
        raise PacketError("IPv4 header checksum mismatch")
    # TCP, from the end of the IPv4 header to the end of the IP datagram
    # (or of the captured bytes, if shorter)
    start = 14 + ihl
    end = min(14 + total_length, size)
    if end - start < TcpHeader.SIZE:
        raise PacketError("truncated TCP header")
    src_port, dst_port, seq, _ack, offset_byte, flags = _TCP_SEGMENT.unpack_from(
        data, start
    )
    offset = (offset_byte >> 4) * 4
    if offset < TcpHeader.SIZE or end - start < offset:
        raise PacketError("bad TCP data offset")
    # Positional: keyword construction of a NamedTuple costs twice as much.
    return TcpSegment(
        timestamp,
        ipv4_to_str(src),
        src_port,
        ipv4_to_str(dst),
        dst_port,
        seq,
        flags,
        data[start + offset : end],
    )


# Ethernet II, IPv4 and TCP headers as capture writes them.
_FRAME_HEADERS = struct.Struct("!6s6sH BBHHHBBH4s4s HHIIBBHHH")
_FRAME_MACS = (
    mac_to_bytes(EthernetHeader.dst_mac),
    mac_to_bytes(EthernetHeader.src_mac),
)
# The IPv4 header's fixed 16-bit words: version/IHL, flags (don't
# fragment), TTL 64 with the protocol.
_IPV4_FIXED_WORDS = 0x4500 + 0x4000 + (64 << 8 | IPPROTO_TCP)


def pack_tcp_frame(
    src: bytes,
    dst: bytes,
    src_port: int,
    dst_port: int,
    seq: int,
    flags: int,
    payload: "bytes | memoryview",
) -> bytes:
    """One Ethernet/IPv4/TCP frame's wire bytes, straight from its fields.

    The encode-side twin of :func:`parse_tcp_segment`: capture packs
    every frame here, and the bytes are exactly those of a
    :class:`Frame` of default headers (``src``/``dst`` are the packed
    IPv4 addresses), with no header object built.  The two checksums
    are sums of field values: 2**16 ≡ 1 (mod 0xFFFF), so a buffer of
    16-bit words is congruent to the sum of its fields' values, and
    only the payload is read as one big integer (shifted one byte left
    when odd, the pad byte RFC 1071 appends).
    """
    length = len(payload)
    seq &= 0xFFFFFFFF
    addresses = int.from_bytes(src + dst, "big")
    data = int.from_bytes(payload, "big") << ((length & 1) * 8)
    return _FRAME_HEADERS.pack(
        *_FRAME_MACS,
        ETHERTYPE_IPV4,
        # IPv4: version/IHL, DSCP/ECN, total length, identification,
        # flags, TTL, protocol, checksum, addresses
        0x45, 0, 40 + length, 0, 0x4000, 64, IPPROTO_TCP,
        _checksum_of(_IPV4_FIXED_WORDS + 40 + length + addresses),
        src,
        dst,
        # TCP: ports, seq, ack, data offset, flags, window, checksum
        # (over the pseudo-header, the header and the payload), urgent
        src_port, dst_port, seq, 0, 5 << 4, flags, 65535,
        _checksum_of(
            addresses + IPPROTO_TCP + 20 + length
            + src_port + dst_port + seq + (5 << 12 | flags) + 65535 + data
        ),
        0,
    ) + payload


@dataclass
class Frame:
    """One packet built layer by layer; :meth:`to_bytes` writes it on
    the wire.  Tests build unusual frames with it, and it is the
    reference :func:`pack_tcp_frame`'s bytes are checked against;
    capture packs through that, and decoding goes through
    :func:`parse_tcp_segment`."""

    timestamp: float
    eth: EthernetHeader
    ip: Ipv4Header
    tcp: TcpHeader
    payload: "bytes | memoryview" = b""

    def to_bytes(self) -> bytes:
        tcp_bytes = self.tcp.to_bytes(bytes(self.payload), self.ip.src, self.ip.dst)
        ip_bytes = self.ip.to_bytes(len(tcp_bytes)) + tcp_bytes
        return self.eth.to_bytes() + ip_bytes
