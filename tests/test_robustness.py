"""Failure-injection tests: the pipeline on damaged or hostile inputs.

Real traces are messy (the paper kept encrypted and partial traffic in
its counts); the analysis side must degrade, not crash.
"""

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.capture.decrypt import decrypt_mobile_artifact
from repro.capture.pcapdroid import PcapdroidCapture
from repro.datatypes.extract import extract_from_request
from repro.model import AgeGroup, Platform, TraceKind
from repro.net.har import HarError, har_from_json
from repro.net.http import Header, HttpRequest
from repro.net.packet import Ipv6Header, PacketError, ipv6_to_bytes, ipv6_to_str
from repro.net.pcap import PcapFile, PcapPacket
from repro.net.url import parse_url
from repro.services.config import CorpusConfig
from repro.services.generator import TrafficGenerator
from repro.services.catalog import service


@pytest.fixture(scope="module")
def artifact():
    generator = TrafficGenerator(CorpusConfig(scale=0.003))
    trace = generator.generate_unit(
        service("tiktok"), Platform.MOBILE, TraceKind.LOGGED_IN, AgeGroup.ADULT,
        packet_target=150,
    )
    return PcapdroidCapture().capture(trace)


class TestDamagedPcap:
    def test_non_tcp_noise_skipped(self, artifact):
        """ARP/garbage frames in the capture are ignored, not fatal."""
        pcap = PcapFile.from_bytes(artifact.pcap_bytes())
        pcap.packets.insert(3, PcapPacket(timestamp=0.0, data=b"\x00" * 40))
        pcap.packets.insert(7, PcapPacket(timestamp=0.0, data=b"arp?"))
        decryption = decrypt_mobile_artifact(pcap, artifact.keylog_text())
        baseline = decrypt_mobile_artifact(
            artifact.pcap_bytes(), artifact.keylog_text()
        )
        assert len(decryption.requests) == len(baseline.requests)

    def test_dropped_frames_degrade_gracefully(self, artifact):
        """Losing every 7th frame loses some flows, crashes nothing."""
        pcap = PcapFile.from_bytes(artifact.pcap_bytes())
        pcap.packets = [
            packet for index, packet in enumerate(pcap.packets) if index % 7
        ]
        decryption = decrypt_mobile_artifact(pcap, artifact.keylog_text())
        baseline = decrypt_mobile_artifact(
            artifact.pcap_bytes(), artifact.keylog_text()
        )
        assert 0 < len(decryption.requests) <= len(baseline.requests)

    def test_reordered_frames_fully_recover(self, artifact):
        import random

        pcap = PcapFile.from_bytes(artifact.pcap_bytes())
        random.Random(9).shuffle(pcap.packets)
        decryption = decrypt_mobile_artifact(pcap, artifact.keylog_text())
        baseline = decrypt_mobile_artifact(
            artifact.pcap_bytes(), artifact.keylog_text()
        )
        assert len(decryption.requests) == len(baseline.requests)

    def test_wrong_keylog_secrets_yield_opaque_flows(self, artifact):
        from repro.net.tls import KeyLog, TlsSession

        wrong = KeyLog()
        for random_bytes in artifact.keylog.secrets:
            wrong.secrets[random_bytes] = b"\x00" * 32  # wrong secret
        decryption = decrypt_mobile_artifact(artifact.pcap_bytes(), wrong.to_text())
        # Wrong keys produce garbage plaintext, which fails HTTP
        # parsing — flows survive as zero-request flows, no crash.
        assert decryption.requests == []

    @given(st.binary(min_size=24, max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_bytes_never_crash_decryption(self, blob):
        pcap = PcapFile()
        pcap.append(PcapPacket(timestamp=0.0, data=blob))
        decryption = decrypt_mobile_artifact(pcap, "")
        assert decryption.packet_count == 1


class TestHostileHar:
    def base_doc(self):
        return {
            "log": {
                "version": "1.2",
                "creator": {"name": "x", "version": "1"},
                "entries": [
                    {
                        "startedDateTime": "2023-10-15T10:00:00.000Z",
                        "time": 1.0,
                        "request": {
                            "method": "GET",
                            "url": "https://x.example.com/",
                            "headers": [],
                        },
                        "response": {},
                    }
                ],
            }
        }

    def test_minimal_entry_parses(self):
        har = har_from_json(self.base_doc())
        assert len(har.entries) == 1

    def test_bad_url_raises_har_error(self):
        doc = self.base_doc()
        doc["log"]["entries"][0]["request"]["url"] = "not-a-url"
        with pytest.raises(HarError):
            har_from_json(doc)

    def test_bad_timestamp_raises_har_error(self):
        doc = self.base_doc()
        doc["log"]["entries"][0]["startedDateTime"] = "yesterday"
        with pytest.raises(HarError):
            har_from_json(doc)


class TestHostilePayloads:
    def _request(self, body: bytes, content_type="application/json"):
        return HttpRequest(
            method="POST",
            url=parse_url("https://x.example.com/"),
            headers=[Header("Content-Type", content_type)],
            body=body,
        )

    @pytest.mark.parametrize(
        "body",
        [
            b"{" * 500,  # deeply broken nesting
            b'{"a": NaN}',  # JSON extensions (Python accepts NaN)
            b"\xff\xfe\x00\x01",  # not UTF-8
            b"null",
            b"[1, 2, 3]",
            b'"just a string"',
            b"",
        ],
    )
    def test_weird_bodies_never_crash(self, body):
        extract_from_request(self._request(body))

    def test_enormous_flat_object(self):
        body = json.dumps({f"k{i}": i for i in range(5_000)}).encode()
        items = extract_from_request(self._request(body))
        assert len(items) == 5_000

    def test_deep_nesting_extracts_every_level(self):
        payload = {"l0": {}}
        node = payload["l0"]
        for depth in range(1, 40):
            node[f"l{depth}"] = {}
            node = node[f"l{depth}"]
        node["leaf"] = 1
        items = extract_from_request(self._request(json.dumps(payload).encode()))
        assert {i.key for i in items} == {f"l{d}" for d in range(40)} | {"leaf"}


class TestIpv6:
    def test_round_trip(self):
        header = Ipv6Header(src="2001:db8::1", dst="2001:db8::2")
        payload = b"hello v6"
        parsed, body = Ipv6Header.from_bytes(header.to_bytes(len(payload)) + payload)
        assert parsed.src == "2001:db8:0:0:0:0:0:1"
        assert body == payload

    def test_compression_forms(self):
        assert ipv6_to_str(ipv6_to_bytes("::1")) == "0:0:0:0:0:0:0:1"
        assert ipv6_to_str(ipv6_to_bytes("fe80::")) == "fe80:0:0:0:0:0:0:0"
        full = "2001:db8:1:2:3:4:5:6"
        assert ipv6_to_str(ipv6_to_bytes(full)) == full

    @pytest.mark.parametrize("bad", ["::1::2", "1:2:3", "gggg::1", "1:2:3:4:5:6:7:8:9"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(PacketError):
            ipv6_to_bytes(bad)

    def test_version_check(self):
        blob = Ipv6Header(src="::1", dst="::2").to_bytes(0)
        corrupted = struct.pack("!I", (4 << 28)) + blob[4:]
        with pytest.raises(PacketError):
            Ipv6Header.from_bytes(corrupted)

    def test_truncated(self):
        with pytest.raises(PacketError):
            Ipv6Header.from_bytes(b"\x60" + b"\x00" * 10)
