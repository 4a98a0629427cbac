"""Unit and property tests for the Ethernet/IP/TCP codecs."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import (
    EthernetHeader,
    Frame,
    Ipv4Header,
    PacketError,
    TcpHeader,
    internet_checksum,
    ipv4_to_bytes,
    ipv4_to_str,
    mac_to_bytes,
    mac_to_str,
    parse_tcp_segment,
)


class TestAddressCodecs:
    def test_ipv4_round_trip(self):
        assert ipv4_to_str(ipv4_to_bytes("10.215.173.1")) == "10.215.173.1"

    @pytest.mark.parametrize("bad", ["1.2.3", "a.b.c.d", "1.2.3.4.5"])
    def test_bad_ipv4(self, bad):
        with pytest.raises(PacketError):
            ipv4_to_bytes(bad)

    def test_mac_round_trip(self):
        assert mac_to_str(mac_to_bytes("aa:bb:cc:00:11:22")) == "aa:bb:cc:00:11:22"

    @given(st.lists(st.integers(0, 255), min_size=4, max_size=4))
    def test_ipv4_round_trip_property(self, octets):
        text = ".".join(map(str, octets))
        assert ipv4_to_str(ipv4_to_bytes(text)) == text


class TestChecksum:
    def test_known_vector(self):
        # Classic RFC 1071 example header.
        data = bytes.fromhex("45000073000040004011 0000 c0a80001c0a800c7".replace(" ", ""))
        checksum = internet_checksum(data)
        verify = data[:10] + struct.pack("!H", checksum) + data[12:]
        assert internet_checksum(verify) == 0

    def test_odd_length_padded(self):
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    @given(st.binary(min_size=0, max_size=300))
    def test_checksum_verifies_to_zero(self, data):
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        assert internet_checksum(data + struct.pack("!H", checksum)) == 0


def wire_frame(payload=b"hello", **ip_fields) -> bytes:
    return Frame(
        timestamp=1.5,
        eth=EthernetHeader(),
        ip=Ipv4Header(src="10.0.0.1", dst="34.1.2.3", **ip_fields),
        tcp=TcpHeader(src_port=40001, dst_port=443, seq=7),
        payload=payload,
    ).to_bytes()


class TestLayers:
    def test_ethernet_round_trip(self):
        header = EthernetHeader()
        wire = wire_frame()
        assert wire[:14] == header.to_bytes()
        assert wire[:12] == mac_to_bytes(header.dst_mac) + mac_to_bytes(header.src_mac)
        assert parse_tcp_segment(wire).payload == b"hello"

    def test_ethernet_truncated(self):
        with pytest.raises(PacketError, match="truncated Ethernet"):
            parse_tcp_segment(b"\x00" * 5)

    def test_ipv4_round_trip(self):
        payload = b"x" * 30
        wire = wire_frame(payload, identification=42)
        segment = parse_tcp_segment(wire)
        assert segment.src_ip == "10.0.0.1"
        assert segment.dst_ip == "34.1.2.3"
        assert struct.unpack_from("!H", wire, 14 + 4) == (42,)  # identification
        assert segment.payload == payload

    def test_ipv4_checksum_validated(self):
        raw = bytearray(wire_frame())
        raw[14 + 8] ^= 0xFF  # corrupt TTL
        with pytest.raises(PacketError, match="checksum"):
            parse_tcp_segment(bytes(raw))

    def test_tcp_round_trip(self):
        header = TcpHeader(src_port=40000, dst_port=443, seq=1000, flags=0x18)
        wire = (
            EthernetHeader().to_bytes()
            + Ipv4Header(src="1.1.1.1", dst="2.2.2.2").to_bytes(24)
            + header.to_bytes(b"data", "1.1.1.1", "2.2.2.2")
        )
        segment = parse_tcp_segment(wire)
        assert segment.src_port == 40000
        assert segment.dst_port == 443
        assert segment.seq == 1000
        assert segment.flags == 0x18
        assert segment.payload == b"data"


class TestFrame:
    def test_round_trip(self):
        segment = parse_tcp_segment(wire_frame(), timestamp=1.5)
        assert segment.timestamp == 1.5
        assert segment.seq == 7
        assert segment.payload == b"hello"
        assert segment[1:5] == ("10.0.0.1", 40001, "34.1.2.3", 443)

    @given(st.binary(max_size=500))
    def test_payload_round_trip_property(self, payload):
        assert parse_tcp_segment(wire_frame(payload)).payload == payload

    def test_non_ip_ethertype_rejected(self):
        raw = bytearray(wire_frame())
        raw[12:14] = b"\x08\x06"  # ARP
        with pytest.raises(PacketError, match="ethertype"):
            parse_tcp_segment(bytes(raw))

    def test_non_tcp_protocol_rejected(self):
        wire = (
            EthernetHeader().to_bytes()
            + Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=17).to_bytes(0)
        )
        with pytest.raises(PacketError, match="protocol"):
            parse_tcp_segment(wire)
