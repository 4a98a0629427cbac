"""Unit tests for corpus processing and the dataset summary."""

import pytest

from repro.capture.base import TraceMeta
from repro.model import AgeGroup, Platform, TraceKind
from repro.net.har import read_har
from repro.net.pcap import PcapFile
from repro.pipeline.corpus import CorpusProcessor, ParsedTrace
from repro.pipeline.dataset import DatasetSummary
from repro.services.config import CorpusConfig


@pytest.fixture(scope="module")
def processor():
    return CorpusProcessor(config=CorpusConfig(scale=0.003, services=("tiktok",)))


class TestCorpusProcessor:
    def test_streams_all_units(self, processor):
        traces = list(processor)
        # TikTok: web + mobile platforms × 7 units.
        assert len(traces) == 14
        assert {t.meta.platform for t in traces} == {Platform.WEB, Platform.MOBILE}

    def test_web_round_trip_counts(self, processor):
        trace = processor.process_trace(
            processor.generator.generate_unit(
                processor.config.service_specs()[0],
                Platform.WEB,
                TraceKind.LOGGED_IN,
                AgeGroup.ADULT,
                packet_target=50,
            )
        )
        assert trace.packet_count == len(trace.requests)
        assert trace.flow_count >= 1
        assert trace.opaque_hosts == []

    def test_mobile_round_trip_counts(self, processor):
        trace = processor.process_trace(
            processor.generator.generate_unit(
                processor.config.service_specs()[0],
                Platform.MOBILE,
                TraceKind.LOGGED_IN,
                AgeGroup.ADULT,
                packet_target=300,
            )
        )
        assert trace.packet_count > len(trace.requests)  # frames > requests
        assert trace.undecryptable_flows >= 1  # pinned filler
        assert trace.contacted_hosts()

    def test_artifacts_written_to_disk(self, tmp_path):
        processor = CorpusProcessor(
            config=CorpusConfig(scale=0.002, services=("youtube",)),
            artifacts_dir=tmp_path,
        )
        list(processor)
        har_files = list(tmp_path.glob("*.har"))
        pcap_files = list(tmp_path.glob("*.pcap"))
        keylogs = list(tmp_path.glob("*.keylog"))
        assert len(har_files) == 7  # web units
        assert len(pcap_files) == 7  # mobile units
        assert len(keylogs) == 7
        # Artifacts are valid, parseable files.
        assert read_har(har_files[0]).entries
        assert len(PcapFile.read(pcap_files[0])) > 0


class TestDatasetSummary:
    def _trace(self, service, hosts, packets, flows):
        meta = TraceMeta(
            service=service,
            platform=Platform.WEB,
            kind=TraceKind.LOGGED_IN,
            age=AgeGroup.ADULT,
        )
        parsed = ParsedTrace(meta=meta, packet_count=packets, flow_count=flows)
        parsed.opaque_hosts = list(hosts)
        return parsed

    def test_accumulation(self):
        summary = DatasetSummary()
        summary.add_trace(self._trace("a", ["x.one.com", "y.one.com"], 10, 2))
        summary.add_trace(self._trace("a", ["x.one.com", "z.two.com"], 5, 1))
        stats = summary.per_service["a"]
        assert stats.domain_count == 3
        assert stats.esld_count == 2
        assert stats.packets == 15
        assert stats.tcp_flows == 3

    def test_totals_are_unique_unions(self):
        summary = DatasetSummary()
        summary.add_trace(self._trace("a", ["shared.t.com", "only-a.t.com"], 1, 1))
        summary.add_trace(self._trace("b", ["shared.t.com", "only-b.t.com"], 1, 1))
        assert summary.total_domains == 3
        assert summary.total_eslds == 1
        assert summary.total_packets == 2

    def test_rows_sorted(self):
        summary = DatasetSummary()
        summary.add_trace(self._trace("zebra", ["z.z.com"], 1, 1))
        summary.add_trace(self._trace("alpha", ["a.a.com"], 1, 1))
        assert [row[0] for row in summary.rows()] == ["alpha", "zebra"]
