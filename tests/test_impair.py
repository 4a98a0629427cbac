"""Tests for the seeded network-impairment injector."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import PacketError, parse_tcp_segment
from repro.net.pcap import PcapFile, PcapPacket
from repro.net.tcp import FlowId, TcpReassembler, segment_request
from repro.services.config import (
    IMPAIRMENT_PROFILES,
    CorpusConfig,
    ImpairmentProfile,
    impairment_profile,
)
from repro.stream.impair import ImpairmentInjector, impair_pcap, trace_impair_seed

FLOW_A = FlowId(client_ip="10.0.0.1", client_port=40000, server_ip="34.0.0.1", server_port=443)
FLOW_B = FlowId(client_ip="10.0.0.1", client_port=40001, server_ip="34.0.0.2", server_port=443)


def wire_packets(payloads: dict[FlowId, bytes]) -> list[tuple[float, bytes]]:
    """Encode one request per flow into timestamped wire packets."""
    packets = []
    base = 0.0
    for flow, payload in payloads.items():
        for frame in segment_request(payload, flow, timestamp=base):
            packets.append((frame.timestamp, frame.to_bytes()))
        base += 1.0
    packets.sort(key=lambda item: item[0])
    return packets


def reassemble(packets) -> dict[str, tuple[bytes, bool]]:
    reassembler = TcpReassembler()
    for timestamp, data in packets:
        try:
            segment = parse_tcp_segment(data, timestamp=timestamp)
        # repro-lint: disable=X-SWALLOW — impairment can corrupt frames on purpose; undecodable ones drop like the real pipeline drops them
        except PacketError:
            continue
        reassembler.add_segment(segment)
    return {
        str(flow.flow): (flow.data, flow.complete) for flow in reassembler.flows()
    }


class TestProfiles:
    def test_known_profiles_resolve(self):
        for name in IMPAIRMENT_PROFILES:
            assert impairment_profile(name).name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown impairment profile"):
            impairment_profile("catastrophic")

    def test_recoverable_classification(self):
        assert impairment_profile("reorder").recoverable
        assert impairment_profile("duplicate").recoverable
        assert impairment_profile("reorder-dup").recoverable
        for name in ("lossy", "jittery", "fragmented", "chaos"):
            assert not impairment_profile(name).recoverable

    def test_corpus_config_validates_impair(self):
        with pytest.raises(ValueError, match="unknown impairment profile"):
            CorpusConfig(impair="nope")
        assert CorpusConfig(impair="reorder").impair == "reorder"


class TestDeterminism:
    def test_same_seed_same_output(self):
        packets = wire_packets({FLOW_A: b"x" * 9000, FLOW_B: b"y" * 9000})
        profile = impairment_profile("chaos")
        first = list(ImpairmentInjector(profile, 42).apply(packets))
        second = list(ImpairmentInjector(profile, 42).apply(packets))
        assert first == second

    def test_different_seed_differs(self):
        packets = wire_packets({FLOW_A: b"x" * 9000, FLOW_B: b"y" * 9000})
        profile = impairment_profile("reorder")
        first = list(ImpairmentInjector(profile, 1).apply(packets))
        second = list(ImpairmentInjector(profile, 2).apply(packets))
        assert first != second

    def test_clean_profile_is_identity(self):
        packets = wire_packets({FLOW_A: b"x" * 5000})
        out = list(ImpairmentInjector(impairment_profile("clean"), 7).apply(packets))
        assert out == [(ts, bytes(data)) for ts, data in packets]

    def test_trace_impair_seed_stable(self):
        assert trace_impair_seed(7, "a") == trace_impair_seed(7, "a")
        assert trace_impair_seed(7, "a") != trace_impair_seed(8, "a")
        assert trace_impair_seed(7, "a") != trace_impair_seed(7, "b")


class TestRecoverability:
    """Satellite guarantee: reassembly is invariant under seeded
    reorder/duplication — the injector's recoverable class really is
    reassembler-level noise."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(0, 2**31),
        st.sampled_from(["reorder", "duplicate", "reorder-dup"]),
        st.integers(1, 12000),
    )
    def test_reassembly_invariant(self, seed, profile_name, size):
        payloads = {FLOW_A: bytes(range(256)) * (size // 256 + 1), FLOW_B: b"q" * size}
        packets = wire_packets(payloads)
        clean = reassemble(packets)
        impaired = reassemble(
            ImpairmentInjector(impairment_profile(profile_name), seed).apply(packets)
        )
        assert impaired == clean
        for flow, payload in payloads.items():
            data, complete = impaired[str(flow)]
            assert data == payload
            assert complete

    def test_drop_loses_data(self):
        packets = wire_packets({FLOW_A: b"z" * 50000})
        profile = ImpairmentProfile("heavy-loss", drop=0.5)
        impaired = reassemble(ImpairmentInjector(profile, 3).apply(packets))
        clean = reassemble(packets)
        assert impaired != clean

    def test_fragmented_packets_rejected_by_decoder(self):
        packets = wire_packets({FLOW_A: b"f" * 4000})
        profile = ImpairmentProfile("frag-all", fragment=1.0)
        out = list(ImpairmentInjector(profile, 5).apply(packets))
        assert len(out) > len(packets)  # fragments multiplied the records
        fragment_rejected = 0
        for _, data in out:
            try:
                parse_tcp_segment(data)
            except PacketError as exc:
                if "fragment" in str(exc):
                    fragment_rejected += 1
        # Both halves of a fragmented packet carry fragment fields, and
        # the TCP-only decoder (no IP reassembly) rejects each.
        assert fragment_rejected >= 2
        # The reassembler sees holes where fragmented segments fell out.
        impaired = reassemble(out)
        payload = impaired.get(str(FLOW_A), (b"", False))
        assert payload != (b"f" * 4000, True)

    def test_jitter_moves_timestamps_only(self):
        packets = wire_packets({FLOW_A: b"j" * 3000})
        profile = impairment_profile("jittery")
        out = list(ImpairmentInjector(profile, 9).apply(packets))
        assert [data for _, data in out] == [bytes(data) for _, data in packets]
        assert [ts for ts, _ in out] != [ts for ts, _ in packets]


class TestImpairPcap:
    def make_pcap(self) -> PcapFile:
        pcap = PcapFile()
        for timestamp, data in wire_packets({FLOW_A: b"p" * 6000}):
            pcap.append(PcapPacket(timestamp=timestamp, data=data))
        return pcap

    def test_clean_returns_same_object(self):
        pcap = self.make_pcap()
        assert impair_pcap(pcap, impairment_profile("clean"), 1) is pcap

    def test_round_trips_through_wire_format(self):
        pcap = self.make_pcap()
        impaired = impair_pcap(pcap, impairment_profile("reorder-dup"), 11)
        blob = impaired.to_bytes()
        assert PcapFile.from_bytes(blob).to_bytes() == blob

    def test_duplicate_grows_capture(self):
        pcap = self.make_pcap()
        impaired = impair_pcap(pcap, impairment_profile("duplicate"), 13)
        assert len(impaired) > len(pcap)


class TestManifestPlumbing:
    def test_manifest_records_impair(self, tmp_path):
        from repro.pipeline.engine import generate_corpus_artifacts
        from repro.pipeline.replay import ReplayCorpus, read_manifest

        config = CorpusConfig(
            scale=0.004, profile="light", services=("tiktok",), impair="reorder"
        )
        generate_corpus_artifacts(config, tmp_path)
        manifest = read_manifest(tmp_path)
        assert manifest["config"]["impair"] == "reorder"
        corpus = ReplayCorpus.scan(tmp_path)
        from repro.pipeline.replay import replay_config

        resolved = replay_config(corpus)
        assert resolved.impair == "reorder"

    def test_clean_manifest_omits_impair(self, tmp_path):
        from repro.pipeline.engine import generate_corpus_artifacts
        from repro.pipeline.replay import read_manifest

        config = CorpusConfig(scale=0.004, profile="light", services=("tiktok",))
        generate_corpus_artifacts(config, tmp_path)
        assert "impair" not in read_manifest(tmp_path)["config"]

    def test_mixing_impair_in_one_directory_rejected(self, tmp_path):
        from repro.pipeline.engine import generate_corpus_artifacts
        from repro.pipeline.replay import ReplayError

        clean = CorpusConfig(scale=0.004, profile="light", services=("tiktok",))
        generate_corpus_artifacts(clean, tmp_path)
        impaired = dataclasses.replace(clean, impair="reorder")
        with pytest.raises(ReplayError, match="impair"):
            generate_corpus_artifacts(impaired, tmp_path)
