"""Tests for the streaming live-audit subsystem.

The load-bearing guarantee: streaming a complete capture to EOF is
byte-identical to the batch audit of the same corpus — per-trace
(decoder vs ``decrypt_mobile_artifact``), per-corpus (session vs
``DiffAudit``), and under recoverable impairment — while peak memory
stays bounded by the eviction budget instead of corpus size.
"""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import CorpusConfig, DiffAudit
from repro.capture.decrypt import decrypt_mobile_artifact
from repro.capture.pcapdroid import PcapdroidCapture
from repro.model import Platform
from repro.net.pcap import PcapReader
from repro.net.tls import KeyLog
from repro.pipeline.engine import generate_corpus_artifacts
from repro.pipeline.replay import ReplayCorpus
from repro.reporting.export import result_to_json
from repro.services.config import impairment_profile
from repro.services.generator import TrafficGenerator
from repro.stream.impair import impair_pcap, trace_impair_seed
from repro.stream.incremental import EvictionPolicy, IncrementalTraceDecoder
from repro.stream.session import StreamAudit, StreamError, snapshot_summary
from repro.stream.sources import (
    ArtifactStreamSource,
    FollowPcapSource,
    KeylogProvider,
    LiveGeneratorSource,
    SingleCaptureSource,
)

CONFIG = CorpusConfig(scale=0.006, profile="light", seed=7, services=("tiktok",))


@pytest.fixture(scope="module")
def artifacts_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("stream-artifacts")
    generate_corpus_artifacts(CONFIG, directory)
    return directory


@pytest.fixture(scope="module")
def batch_json(artifacts_dir) -> str:
    return result_to_json(
        DiffAudit(CONFIG, replay=ReplayCorpus.scan(artifacts_dir)).run()
    )


def mobile_artifacts(config):
    generator = TrafficGenerator(config)
    capture = PcapdroidCapture()
    for trace in generator.generate_corpus():
        if trace.platform is Platform.MOBILE:
            yield capture.capture(trace)


def stream_decode(pcap_bytes, keylog_text, policy=None):
    decoder = IncrementalTraceDecoder(KeyLog.from_text(keylog_text), policy)
    reader = PcapReader(pcap_bytes)
    for record in reader.iter_packets():
        decoder.feed(record.timestamp, record.data)
    result = decoder.finish()
    reader.close()
    return result, decoder


def decryption_fingerprint(decryption):
    return (
        [(r.flow, r.request.timestamp, r.request.to_bytes()) for r in decryption.requests],
        [(o.host, o.first_timestamp, o.frame_count) for o in decryption.opaque],
        decryption.packet_count,
        decryption.flow_count,
        decryption.undecryptable_flows,
    )


class TestDecoderParity:
    """Incremental decode == batch decode, trace by trace."""

    def test_clean_captures(self):
        count = 0
        for artifact in mobile_artifacts(CONFIG):
            blob = artifact.pcap_bytes()
            batch = decrypt_mobile_artifact(blob, artifact.keylog_text())
            streamed, _ = stream_decode(blob, artifact.keylog_text())
            assert decryption_fingerprint(streamed) == decryption_fingerprint(batch)
            count += 1
        assert count > 0

    @pytest.mark.parametrize(
        "profile_name",
        ["reorder", "duplicate", "reorder-dup", "lossy", "fragmented", "chaos"],
    )
    def test_impaired_captures(self, profile_name):
        artifact = next(iter(mobile_artifacts(CONFIG)))
        impaired = impair_pcap(
            artifact.pcap,
            impairment_profile(profile_name),
            trace_impair_seed(CONFIG.seed, artifact.meta.name),
        )
        blob = impaired.to_bytes()
        batch = decrypt_mobile_artifact(blob, artifact.keylog_text())
        streamed, _ = stream_decode(blob, artifact.keylog_text())
        assert decryption_fingerprint(streamed) == decryption_fingerprint(batch)

    def test_missing_keylog_all_opaque(self):
        artifact = next(iter(mobile_artifacts(CONFIG)))
        blob = artifact.pcap_bytes()
        batch = decrypt_mobile_artifact(blob, "")
        streamed, _ = stream_decode(blob, "")
        assert decryption_fingerprint(streamed) == decryption_fingerprint(batch)
        assert streamed.undecryptable_flows == streamed.flow_count

    def test_memory_drains_as_stream_arrives(self):
        artifact = next(iter(mobile_artifacts(CONFIG)))
        blob = artifact.pcap_bytes()
        _, decoder = stream_decode(blob, artifact.keylog_text())
        # In-order captures drain through: the decoder never buffers
        # more than a small fraction of the capture.
        assert decoder.high_water_bytes < len(blob) / 4
        assert decoder.buffered_bytes() == 0

    def test_budget_eviction_bounds_buffering(self):
        artifact = next(iter(mobile_artifacts(CONFIG)))
        blob = artifact.pcap_bytes()
        budget = 4096
        _, decoder = stream_decode(
            blob,
            artifact.keylog_text(),
            EvictionPolicy(byte_budget=budget, sweep_interval=8),
        )
        assert decoder.high_water_bytes <= budget + 2048  # one packet of slack


class TestSessionParity:
    """StreamAudit to EOF == the batch DiffAudit, byte for byte."""

    def test_artifact_stream_equals_batch(self, artifacts_dir, batch_json):
        session = StreamAudit(config=CONFIG)
        source = ArtifactStreamSource(
            corpus=ReplayCorpus.scan(artifacts_dir), services=CONFIG.services
        )
        assert result_to_json(session.run(source)) == batch_json

    def test_live_stream_equals_batch(self, batch_json):
        session = StreamAudit(config=CONFIG)
        streamed = result_to_json(session.run(LiveGeneratorSource(config=CONFIG)))
        assert streamed == batch_json

    def test_live_impaired_stream_equals_batch(self):
        impaired = dataclasses.replace(CONFIG, impair="reorder-dup")
        batch = result_to_json(DiffAudit(impaired).run())
        streamed = result_to_json(
            StreamAudit(config=impaired).run(LiveGeneratorSource(config=impaired))
        )
        assert streamed == batch

    def test_reorder_impairment_is_fully_recoverable(self, batch_json):
        # Pure reordering keeps packet timestamps and counts, so the
        # end-to-end audit equals the clean corpus in every measured
        # number — the only difference is the config block honestly
        # recording which link the traffic crossed.
        impaired = dataclasses.replace(CONFIG, impair="reorder")
        streamed = json.loads(
            result_to_json(
                StreamAudit(config=impaired).run(LiveGeneratorSource(config=impaired))
            )
        )
        clean = json.loads(result_to_json(DiffAudit(CONFIG).run()))
        assert streamed["config"].pop("impair") == "reorder"
        assert clean["config"].pop("impair") is None
        assert streamed == clean

    def test_snapshots_are_engine_outputs_and_monotone(self, artifacts_dir):
        from repro.pipeline.engine import EngineOutput

        session = StreamAudit(config=CONFIG, snapshot_every=3)
        source = ArtifactStreamSource(
            corpus=ReplayCorpus.scan(artifacts_dir), services=CONFIG.services
        )
        snapshots = list(session.snapshots(source))
        assert snapshots
        traces = [snapshot.trace_count for snapshot in snapshots]
        assert traces == sorted(traces)
        assert all(isinstance(snapshot, EngineOutput) for snapshot in snapshots)
        assert all(count % 3 == 0 for count in traces[:-1] + traces[:1])
        summary = snapshot_summary(snapshots[-1])
        assert summary["traces"] == snapshots[-1].trace_count
        json.dumps(summary)  # JSON-serializable digest

    def test_snapshots_do_not_perturb_final_result(self, artifacts_dir, batch_json):
        session = StreamAudit(config=CONFIG, snapshot_every=1)
        source = ArtifactStreamSource(
            corpus=ReplayCorpus.scan(artifacts_dir), services=CONFIG.services
        )
        for _ in session.snapshots(source):
            pass
        assert result_to_json(session.result()) == batch_json

    def test_unknown_service_trace_rejected(self, artifacts_dir):
        session = StreamAudit(
            config=dataclasses.replace(CONFIG, services=("duolingo",))
        )
        source = ArtifactStreamSource(
            corpus=ReplayCorpus.scan(artifacts_dir),
            services=("tiktok",),
        )
        with pytest.raises(StreamError, match="not part of this stream"):
            session.run(source)

    def test_missing_artifacts_for_configured_service(self, artifacts_dir):
        from repro.pipeline.replay import ReplayError

        with pytest.raises(ReplayError, match="no artifacts"):
            ArtifactStreamSource(
                corpus=ReplayCorpus.scan(artifacts_dir),
                services=("tiktok", "duolingo"),
            )

    def test_cache_dir_stays_warm_across_sessions(self, artifacts_dir, tmp_path):
        store_dir = tmp_path / "cache"
        source = ArtifactStreamSource(
            corpus=ReplayCorpus.scan(artifacts_dir), services=CONFIG.services
        )
        cold = StreamAudit(config=CONFIG, cache_dir=store_dir)
        cold_json = result_to_json(cold.run(source))
        warm = StreamAudit(config=CONFIG, cache_dir=store_dir)
        source = ArtifactStreamSource(
            corpus=ReplayCorpus.scan(artifacts_dir), services=CONFIG.services
        )
        warm_json = result_to_json(warm.run(source))
        assert warm_json == cold_json
        merged = warm.snapshot()
        # The warm session never reached the inner classifier.
        assert merged.store_misses == 0
        assert merged.store_hits > 0


class TestSingleCaptureAndFollow:
    def pick_pcap(self, artifacts_dir) -> tuple[Path, Path]:
        pcap = sorted(artifacts_dir.glob("*.pcap"))[0]
        return pcap, pcap.with_suffix(".keylog")

    def test_single_capture_source(self, artifacts_dir):
        pcap, keylog = self.pick_pcap(artifacts_dir)
        source = SingleCaptureSource(pcap=pcap, keylog=keylog)
        session = StreamAudit(
            config=dataclasses.replace(CONFIG, services=(source.meta().service,))
        )
        result = session.run(source)
        assert session.trace_count == 1
        assert session.packet_count > 0
        assert result.dataset.total_packets == session.packet_count

    def test_follow_mode_tails_growing_file(self, artifacts_dir, tmp_path):
        pcap, keylog = self.pick_pcap(artifacts_dir)
        grown = tmp_path / pcap.name
        grown_keylog = tmp_path / keylog.name
        grown_keylog.write_text(keylog.read_text())
        data = pcap.read_bytes()

        def writer():
            chunk = max(1, len(data) // 10)
            with open(grown, "wb") as handle:
                for start in range(0, len(data), chunk):
                    handle.write(data[start : start + chunk])
                    handle.flush()
                    time.sleep(0.05)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            source = FollowPcapSource(
                pcap=grown,
                keylog=grown_keylog,
                poll_interval=0.05,
                stop_after_idle=1.5,
            )
            session = StreamAudit(
                config=dataclasses.replace(CONFIG, services=(source.meta().service,))
            )
            followed = result_to_json(session.run(source))
        finally:
            thread.join()
        # The tailed result equals streaming the finished file.
        whole = StreamAudit(
            config=dataclasses.replace(CONFIG, services=("tiktok",))
        )
        assert followed == result_to_json(
            whole.run(SingleCaptureSource(pcap=pcap, keylog=keylog))
        )

    def test_keylog_provider_refreshes_on_miss(self, tmp_path):
        from repro.net.tls import TlsSession

        session = TlsSession.derive(b"refresh-test")
        path = tmp_path / "grow.keylog"
        path.write_text("")
        provider = KeylogProvider(path=path, follow=True)
        assert provider.lookup(session.client_random) is None
        log = KeyLog()
        log.record(session)
        path.write_text(log.to_text())
        # repro-lint: disable=D-NOW — bumping the keylog file's mtime to trigger the follow-mode reload; nothing audited carries this timestamp
        os.utime(path, (time.time() + 5, time.time() + 5))
        found = provider.lookup(session.client_random)
        assert found is not None and found.secret == session.secret

    def test_keylog_provider_without_file(self):
        provider = KeylogProvider(path=None)
        assert provider.lookup(b"\x00" * 32) is None


_MEMORY_SCRIPT = """
import json, resource, sys
from repro.net.tcp import FlowId, segment_request
from repro.net.tls import KeyLog, TlsSession, encrypt_stream, wrap_with_hello
from repro.stream.incremental import EvictionPolicy, IncrementalTraceDecoder

flows = int(sys.argv[1])
budget = int(sys.argv[2])
mode = sys.argv[3]

def flow_frames(index):
    # Pinned (keylog-less) TLS flows: the decoder goes opaque after the
    # hello and discards payload incrementally — the batch path instead
    # buffers and reassembles every flow in full.
    payload = bytes(range(256)) * 256  # 64 KiB per flow
    session = TlsSession.derive(b"mem-%d" % index)
    stream = wrap_with_hello(encrypt_stream(payload, session), session, sni="pinned.example")
    flow = FlowId(client_ip="10.0.0.1", client_port=40000 + index,
                  server_ip="34.0.0.1", server_port=443)
    return segment_request(stream, flow, timestamp=float(index))

def packets():
    if mode == "holes":
        # Adversarial: every flow's SYN (the reassembly anchor) is
        # withheld until all data segments of all flows have arrived,
        # so nothing can drain — only the byte-budget LRU eviction
        # keeps buffering bounded.
        anchors = []
        for index in range(flows):
            frames = flow_frames(index)
            anchors.append(frames[0])
            for frame in frames[1:]:
                yield frame.timestamp, frame.to_bytes()
        for frame in anchors:
            yield frame.timestamp, frame.to_bytes()
        return
    for index in range(flows):
        for frame in flow_frames(index):
            yield frame.timestamp, frame.to_bytes()

decoder = IncrementalTraceDecoder(KeyLog(), EvictionPolicy(byte_budget=budget))
total = 0
for ts, data in packets():
    total += len(data)
    decoder.feed(ts, data)
result = decoder.finish()
assert result.flow_count >= flows
print(json.dumps({
    "bytes": total,
    "high_water": decoder.high_water_bytes,
    "evictions": decoder.evictions,
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def _run_memory_probe(flows: int, budget: int, mode: str = "inorder") -> dict:
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{root}{os.pathsep}{env.get('PYTHONPATH', '')}"
    completed = subprocess.run(
        [sys.executable, "-c", _MEMORY_SCRIPT, str(flows), str(budget), mode],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(completed.stdout)


class TestBoundedMemory:
    """Peak RSS tracks the eviction budget, not the corpus size."""

    def test_peak_rss_bounded_by_budget_not_corpus(self):
        budget = 256 * 1024
        small = _run_memory_probe(24, budget)
        large = _run_memory_probe(96, budget)
        # The feed quadrupled; buffered bytes stayed under the budget
        # and the process footprint stayed flat.
        assert large["bytes"] > small["bytes"] * 3.5
        assert small["high_water"] <= budget + 4096
        assert large["high_water"] <= budget + 4096
        assert large["peak_rss_kb"] < small["peak_rss_kb"] * 1.35

    def test_budget_eviction_binds_under_adversarial_holes(self):
        budget = 256 * 1024
        probe = _run_memory_probe(48, budget, mode="holes")
        # With every flow's anchor withheld nothing drains, so the LRU
        # eviction must fire — and buffering still respects the budget.
        assert probe["evictions"] > 0
        assert probe["high_water"] <= budget + 4096
        assert probe["bytes"] > budget * 10
