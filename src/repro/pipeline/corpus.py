"""Corpus processing: generate → capture (→ parse back).

The pipeline's contract with the simulator is artifact-shaped: traces
cross the boundary as HAR JSON and binary PCAP + key-log bytes, so the
analysis side exercises exactly the parsing the paper's pipeline ran
on its real captures.  :meth:`CorpusProcessor.capture_trace` is the one
capture step: ``repro generate`` stops after it, with the artifacts
written (:meth:`CorpusProcessor.captures`), and an in-memory audit's
round trip (iterating the processor, or
:meth:`CorpusProcessor.process_trace` for one trace) goes on to parse
them back.  Traces stream one at a time to keep memory flat at full
scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.capture.base import TraceMeta
from repro.capture.decrypt import decrypt_mobile_artifact
from repro.fsutil import atomic_write_bytes, atomic_write_text
from repro.model import Platform
from repro.net.har import Har, har_from_json, har_to_json, write_har
from repro.net.http import HttpRequest
from repro.services.config import CorpusConfig, impairment_profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.pcap import PcapFile
    from repro.services.generator import RawTrace


@dataclass
class ParsedTrace:
    """One trace unit after the capture → parse round trip."""

    meta: TraceMeta
    requests: list[HttpRequest] = field(default_factory=list)
    opaque_hosts: list[str] = field(default_factory=list)  # SNI of undecryptable flows
    packet_count: int = 0
    flow_count: int = 0
    undecryptable_flows: int = 0

    def contacted_hosts(self) -> set[str]:
        hosts = {request.url.host for request in self.requests}
        hosts.update(host for host in self.opaque_hosts if host)
        return hosts


def parsed_trace_from_har(meta: TraceMeta, har: Har) -> ParsedTrace:
    """Interpret a parsed HAR document as one trace unit.

    Shared by the in-memory round trip and the artifact replay path,
    so both count packets (HAR entries) and TCP flows (distinct
    ``connection`` ids) identically.
    """
    connections = {entry.connection for entry in har.entries if entry.connection}
    return ParsedTrace(
        meta=meta,
        requests=har.outgoing_requests(),
        packet_count=len(har.entries),
        flow_count=len(connections),
    )


def parsed_trace_from_mobile(
    meta: TraceMeta, pcap_source, keylog_text: str
) -> ParsedTrace:
    """Decrypt and parse a PCAP + key-log pair into one trace unit.

    Shared by the in-memory round trip and the artifact replay path.
    ``pcap_source`` is anything :func:`decrypt_mobile_artifact`
    accepts — raw bytes (streamed zero-copy) or a filesystem path
    (memory-mapped, so replay never reads whole captures into Python
    byte strings).  An empty key log is valid: every TLS flow then
    surfaces as an opaque contact, the way fully pinned traffic does.
    """
    decryption = decrypt_mobile_artifact(pcap_source, keylog_text)
    return ParsedTrace(
        meta=meta,
        requests=[item.request for item in decryption.requests],
        opaque_hosts=[contact.host for contact in decryption.opaque],
        packet_count=decryption.packet_count,
        flow_count=decryption.flow_count,
        undecryptable_flows=decryption.undecryptable_flows,
    )


@dataclass
class CapturedTrace:
    """One trace's capture artifacts, as :meth:`CorpusProcessor.capture_trace`
    wrote them: a HAR document (web and desktop traces) or PCAP bytes
    plus a key log (mobile traces)."""

    meta: TraceMeta
    har: Har | None = None
    pcap: bytes = b""
    keylog_text: str = ""

    def parse(self) -> ParsedTrace:
        """Read the artifacts back the way replay reads them from disk."""
        if self.har is not None:
            # Round-trip through HAR JSON: the analysis side reads the
            # serialized form, never the in-memory capture objects.
            har = har_from_json(har_to_json(self.har))
            return parsed_trace_from_har(self.meta, har)
        return parsed_trace_from_mobile(self.meta, self.pcap, self.keylog_text)


@dataclass
class CorpusProcessor:
    """Streams :class:`ParsedTrace` records for a corpus config.

    With ``artifacts_dir`` set, every capture artifact is also written
    to disk (``<trace>.har`` / ``<trace>.pcap`` + ``<trace>.keylog``)
    the way the study archived its raw data.
    """

    config: CorpusConfig = field(default_factory=CorpusConfig)
    artifacts_dir: Path | None = None
    # Contiguous [start, stop) slice of each configured service's trace
    # units (the engine's sub-shard unit); None processes everything.
    # Skipped units still advance cross-unit generator state, so a
    # sliced run's traces are byte-identical to a whole run's.
    unit_range: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        # Generation only: replaying a captured corpus needs the
        # ParsedTrace helpers above, never the generator or capture.
        from repro.capture.devtools import DevToolsCapture
        from repro.capture.pcapdroid import PcapdroidCapture
        from repro.capture.proxyman import ProxymanCapture
        from repro.services.generator import TrafficGenerator

        self.generator = TrafficGenerator(self.config)
        self._devtools = DevToolsCapture()
        self._proxyman = ProxymanCapture()
        self._pcapdroid = PcapdroidCapture()
        if self.artifacts_dir is not None:
            self.artifacts_dir = Path(self.artifacts_dir)
            self.artifacts_dir.mkdir(parents=True, exist_ok=True)

    # -- per-platform captures ------------------------------------------

    def process_web(self, trace: RawTrace) -> CapturedTrace:
        """Capture one web or desktop trace as a HAR document, writing
        it when ``artifacts_dir`` is set."""
        capture = (
            self._proxyman if trace.platform is Platform.DESKTOP else self._devtools
        )
        artifact = capture.capture(trace)
        if self.artifacts_dir is not None:
            write_har(artifact.har, self.artifacts_dir / f"{artifact.meta.name}.har")
        return CapturedTrace(meta=artifact.meta, har=artifact.har)

    def capture_mobile(self, trace: RawTrace) -> tuple[TraceMeta, PcapFile, str]:
        """Capture (and, when configured, impair) one mobile trace.

        Returns ``(meta, pcap, keylog_text)`` — the wire-level view
        shared by :meth:`capture_trace` and the live streaming source,
        so both see bit-identical capture bytes.
        """
        artifact = self._pcapdroid.capture(trace)
        pcap = artifact.pcap
        if self.config.impair is not None:
            # Same per-trace seed derivation as the live streaming
            # source, so `generate --impair` artifacts replay to the
            # exact result an in-memory impaired audit produces.
            from repro.stream.impair import impair_pcap, trace_impair_seed

            pcap = impair_pcap(
                pcap,
                impairment_profile(self.config.impair),
                trace_impair_seed(self.config.seed, artifact.meta.name),
            )
        return artifact.meta, pcap, artifact.keylog_text()

    # -- the capture step and the round trip ----------------------------

    def capture_trace(self, trace: RawTrace) -> CapturedTrace:
        """Capture one trace and, with ``artifacts_dir`` set, write its
        artifacts: all that generation does per trace."""
        if trace.platform is not Platform.MOBILE:
            return self.process_web(trace)
        meta, pcap, keylog_text = self.capture_mobile(trace)
        pcap_bytes = pcap.to_bytes()
        if self.artifacts_dir is not None:
            atomic_write_bytes(self.artifacts_dir / f"{meta.name}.pcap", pcap_bytes)
            atomic_write_text(self.artifacts_dir / f"{meta.name}.keylog", keylog_text)
        return CapturedTrace(meta=meta, pcap=pcap_bytes, keylog_text=keylog_text)

    def process_trace(self, trace: RawTrace) -> ParsedTrace:
        """The audit's round trip: capture and write one trace, then
        parse its artifacts back."""
        return self.capture_trace(trace).parse()

    def captures(self) -> Iterator[CapturedTrace]:
        """Capture and write every trace of the corpus (or of
        ``unit_range``), one at a time: all of ``repro generate``."""
        for trace in self.generator.generate_corpus(unit_range=self.unit_range):
            yield self.capture_trace(trace)

    def __iter__(self) -> Iterator[ParsedTrace]:
        for captured in self.captures():
            yield captured.parse()
