"""Unit tests for the capture tooling simulations."""

import pytest

from repro.capture.decrypt import decrypt_mobile_artifact
from repro.capture.devtools import DevToolsCapture
from repro.capture.frida import FridaPolicy
from repro.capture.pcapdroid import PcapdroidCapture
from repro.capture.proxyman import ProxymanCapture
from repro.model import AgeGroup, Platform, TraceKind
from repro.net.har import har_from_json, har_to_json
from repro.net.pcap import PcapFile
from repro.services.config import CorpusConfig
from repro.services.generator import TrafficGenerator
from repro.services.catalog import service


@pytest.fixture(scope="module")
def generator():
    return TrafficGenerator(CorpusConfig(scale=0.003))


@pytest.fixture(scope="module")
def mobile_trace(generator):
    return generator.generate_unit(
        service("tiktok"), Platform.MOBILE, TraceKind.LOGGED_IN, AgeGroup.ADULT,
        packet_target=200,
    )


@pytest.fixture(scope="module")
def web_trace(generator):
    return generator.generate_unit(
        service("tiktok"), Platform.WEB, TraceKind.LOGGED_IN, AgeGroup.ADULT,
        packet_target=120,
    )


class TestPcapdroid:
    def test_artifact_shape(self, mobile_trace):
        artifact = PcapdroidCapture().capture(mobile_trace)
        assert artifact.packet_count > 0
        assert artifact.keylog.secrets  # decryptable sessions recorded

    def test_pcap_bytes_parse(self, mobile_trace):
        artifact = PcapdroidCapture().capture(mobile_trace)
        parsed = PcapFile.from_bytes(artifact.pcap_bytes())
        assert len(parsed) == artifact.packet_count

    def test_full_decryption_round_trip(self, mobile_trace):
        artifact = PcapdroidCapture().capture(mobile_trace)
        decryption = decrypt_mobile_artifact(
            artifact.pcap_bytes(), artifact.keylog_text()
        )
        expected_visible = sum(1 for t in mobile_trace.requests if not t.pinned)
        assert len(decryption.requests) == expected_visible

    def test_pinned_flows_stay_opaque(self, mobile_trace):
        artifact = PcapdroidCapture().capture(mobile_trace)
        decryption = decrypt_mobile_artifact(
            artifact.pcap_bytes(), artifact.keylog_text()
        )
        pinned_connections = {
            t.connection for t in mobile_trace.requests if t.pinned
        }
        assert decryption.undecryptable_flows == len(pinned_connections)
        # Destinations of opaque flows remain attributable via SNI.
        assert all(contact.host for contact in decryption.opaque)

    def test_without_keylog_nothing_decrypts(self, mobile_trace):
        artifact = PcapdroidCapture().capture(mobile_trace)
        decryption = decrypt_mobile_artifact(artifact.pcap_bytes(), "")
        assert decryption.requests == []
        assert decryption.undecryptable_flows == decryption.flow_count

    def test_request_content_preserved(self, mobile_trace):
        artifact = PcapdroidCapture().capture(mobile_trace)
        decryption = decrypt_mobile_artifact(
            artifact.pcap_bytes(), artifact.keylog_text()
        )
        original_hosts = {
            t.request.url.host for t in mobile_trace.requests if not t.pinned
        }
        recovered_hosts = {d.request.url.host for d in decryption.requests}
        assert recovered_hosts == original_hosts


class TestDevTools:
    def test_har_round_trip(self, web_trace):
        artifact = DevToolsCapture().capture(web_trace)
        assert artifact.packet_count == len(web_trace.requests)
        parsed = har_from_json(har_to_json(artifact.har))
        assert len(parsed.entries) == len(web_trace.requests)

    def test_connections_stable(self, web_trace):
        artifact = DevToolsCapture().capture(web_trace)
        generator_connections = {t.connection for t in web_trace.requests}
        har_connections = {e.connection for e in artifact.har.entries}
        assert len(har_connections) == len(generator_connections)

    def test_server_ips_attached(self, web_trace):
        artifact = DevToolsCapture().capture(web_trace)
        assert all(entry.server_ip for entry in artifact.har.entries)


class TestProxyman:
    def test_desktop_capture(self, generator):
        trace = generator.generate_unit(
            service("roblox"), Platform.DESKTOP, TraceKind.LOGGED_IN, AgeGroup.ADULT,
            packet_target=80,
        )
        artifact = ProxymanCapture().capture(trace)
        assert artifact.har.creator_name == "Proxyman"
        assert artifact.har.comment.startswith("proxyman-ssl-proxying:")
        assert artifact.packet_count == len(trace.requests)


class TestFridaPolicy:
    def test_deterministic(self):
        policy = FridaPolicy()
        assert policy.decryptable("conn-1", False) == policy.decryptable("conn-1", False)

    def test_forced_opaque_never_bypassed(self):
        policy = FridaPolicy(bypass_rate=1.0)
        assert not policy.decryptable("conn-1", True)

    def test_bypass_rate_zero(self):
        policy = FridaPolicy(bypass_rate=0.0)
        assert not policy.decryptable("conn-1", False)

    def test_bypass_rate_partitions(self):
        policy = FridaPolicy(bypass_rate=0.5)
        outcomes = [policy.decryptable(f"conn-{i}", False) for i in range(200)]
        assert 40 < sum(outcomes) < 160
