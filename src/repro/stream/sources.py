"""Packet sources: where a streaming audit's feed comes from.

A :class:`PacketSource` yields a sequence of trace events:

* :class:`PacketTrace` — one capture unit delivered packet by packet
  (a mobile PCAP + key log); the session decodes it incrementally;
* :class:`TraceDocument` — one capture unit that arrives whole (a
  web/desktop HAR), parsed exactly as the batch replay path parses it.

Three implementations cover the tentpole workloads:

* :class:`ArtifactStreamSource` — a finite on-disk corpus, streamed
  to EOF through the existing mmap :class:`~repro.net.pcap.PcapReader`
  (and :class:`SingleCaptureSource` for one bare ``.pcap``);
* :class:`FollowPcapSource` — tails a capture file that is still
  being written (``repro stream --follow``, the live-monitoring
  workload), ending after the file stays quiet for a configurable
  wall-clock interval;
* :class:`LiveGeneratorSource` — drives the traffic generator through
  the seeded impairment injector, producing an endless-style feed
  with no artifacts on disk at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Protocol

from repro.capture.base import TraceMeta
from repro.model import Platform
from repro.net.pcap import PcapError, PcapReader, parse_global_header
from repro.net.tls import KeyLog
from repro.pipeline.corpus import CorpusProcessor, ParsedTrace
from repro.pipeline.replay import (
    ReplayCorpus,
    ReplayError,
    TraceUnit,
    load_parsed_trace,
    meta_from_name,
)
from repro.services.config import CorpusConfig

Packet = tuple[float, "bytes | memoryview"]


@dataclass
class TraceDocument:
    """A trace unit that arrives whole (web/desktop HAR)."""

    parsed: ParsedTrace


@dataclass
class PacketTrace:
    """A trace unit delivered as an incremental packet feed."""

    meta: TraceMeta
    packets: Iterable[Packet]
    keylog: "KeyLog | KeylogProvider" = field(default_factory=KeyLog)


class PacketSource(Protocol):
    """Anything that can feed trace events to a streaming session."""

    def events(self) -> Iterator["TraceDocument | PacketTrace"]:  # pragma: no cover
        ...


@dataclass
class KeylogProvider:
    """Key-log lookup that can re-read a still-growing file.

    In follow mode the capture tool appends secrets while the stream
    is being read; a lookup miss re-reads the file when its mtime
    moved, so secrets logged before their flow's data records arrive
    (the PCAPdroid write order) are always found.  A missing or
    unreadable file degrades to an empty log — every TLS flow then
    surfaces opaque, exactly like a fully pinned capture.
    """

    path: Path | None
    follow: bool = False
    _keylog: KeyLog | None = field(default=None, repr=False)
    _mtime: float = field(default=-1.0, repr=False)

    def _load(self) -> None:
        if self.path is None:
            self._keylog = KeyLog()
            return
        try:
            mtime = Path(self.path).stat().st_mtime
            if self._keylog is not None and mtime == self._mtime:
                return
            self._keylog = KeyLog.read(self.path)
            self._mtime = mtime
        except (OSError, ValueError):
            if self._keylog is None:
                self._keylog = KeyLog()

    def lookup(self, client_random: bytes):
        if self._keylog is None:
            self._load()
        session = self._keylog.lookup(client_random)
        if session is None and self.follow:
            self._load()
            session = self._keylog.lookup(client_random)
        return session


def _mmap_packets(path: Path) -> Iterator[Packet]:
    """Stream one on-disk capture zero-copy (mmap-backed views)."""
    with PcapReader.open(path) as reader:
        for record in reader.iter_packets():
            yield record.timestamp, record.data


@dataclass
class ArtifactStreamSource:
    """Stream a captured artifacts directory to EOF.

    Mirrors the replay engine's unit selection: units come in corpus
    (manifest/generation) order, restricted to the configured
    services, and a configured service with no artifacts on disk is
    an error — a silently empty stream would read as a compliant
    service.
    """

    corpus: ReplayCorpus
    services: tuple[str, ...]

    def __post_init__(self) -> None:
        wanted = set(self.services)
        available = set(self.corpus.services())
        missing = sorted(wanted - available)
        if missing:
            raise ReplayError(
                f"no artifacts for configured service(s) {', '.join(missing)} "
                f"in {self.corpus.directory} "
                f"(found: {', '.join(self.corpus.services())})"
            )

    def events(self) -> Iterator["TraceDocument | PacketTrace"]:
        wanted = set(self.services)
        for unit in self.corpus.units:
            if unit.meta.service not in wanted:
                continue
            yield unit_event(unit)


def unit_event(unit: TraceUnit) -> "TraceDocument | PacketTrace":
    """One replay unit as a stream event (HAR whole, PCAP packet-wise)."""
    if unit.har is not None:
        return TraceDocument(parsed=load_parsed_trace(unit))
    return PacketTrace(
        meta=unit.meta,
        packets=_mmap_packets(unit.pcap),
        keylog=KeylogProvider(path=unit.keylog),
    )


@dataclass
class SingleCaptureSource:
    """One bare ``.pcap`` (+ optional ``.keylog``), streamed to EOF.

    Trace identity comes from the file stem
    (``{service}-{platform}-{kind}-{age}``), the same fallback the
    manifest-less replay scanner uses.
    """

    pcap: Path
    keylog: Path | None = None

    def meta(self) -> TraceMeta:
        return meta_from_name(Path(self.pcap).stem)

    def events(self) -> Iterator[PacketTrace]:
        yield PacketTrace(
            meta=self.meta(),
            packets=_mmap_packets(Path(self.pcap)),
            keylog=KeylogProvider(path=self.keylog),
        )


@dataclass
class FollowPcapSource:
    """Tail a capture file that is still being written.

    Complete records are yielded as soon as they land in the file;
    partial trailing bytes wait for the writer.  The stream ends when
    the file has not grown for ``stop_after_idle`` wall-clock seconds
    — the capture is considered closed.  The sibling key log is read
    through a refreshing :class:`KeylogProvider`, so secrets appended
    during the capture are honored as long as they are written before
    their flow's data records (PCAPdroid's write order).
    """

    pcap: Path
    keylog: Path | None = None
    poll_interval: float = 0.2
    stop_after_idle: float = 5.0
    # Test/interop hook: called once per idle poll (e.g. to stop a
    # stuck follow from a signal handler by raising).
    on_idle: Callable[[], None] | None = None

    def meta(self) -> TraceMeta:
        return meta_from_name(Path(self.pcap).stem)

    def events(self) -> Iterator[PacketTrace]:
        yield PacketTrace(
            meta=self.meta(),
            packets=self._tail_packets(),
            keylog=KeylogProvider(path=self.keylog, follow=True),
        )

    def _tail_packets(self) -> Iterator[Packet]:
        buffer = bytearray()
        wire_format = None
        deadline = time.monotonic() + self.stop_after_idle
        # Wait for the file to exist at all — follow mode may be
        # started before the capture tool creates it.
        handle = None
        try:
            while handle is None:
                try:
                    handle = open(self.pcap, "rb")
                except OSError:
                    if time.monotonic() > deadline:
                        raise PcapError(
                            f"follow: {self.pcap} never appeared"
                        ) from None
                    time.sleep(self.poll_interval)
            while True:
                chunk = handle.read(1 << 16)
                if chunk:
                    deadline = time.monotonic() + self.stop_after_idle
                    buffer += chunk
                    if wire_format is None:
                        if len(buffer) < 24:
                            continue
                        wire_format = parse_global_header(buffer)
                        del buffer[: wire_format.header_size]
                    record = wire_format.record_struct
                    while len(buffer) >= record.size:
                        seconds, fraction, caplen, _orig = record.unpack(
                            bytes(buffer[: record.size])
                        )
                        if len(buffer) < record.size + caplen:
                            break  # partial record: wait for the writer
                        yield (
                            seconds + fraction / wire_format.timestamp_divisor,
                            bytes(buffer[record.size : record.size + caplen]),
                        )
                        del buffer[: record.size + caplen]
                    continue
                if time.monotonic() > deadline:
                    return  # writer went quiet: the capture is closed
                if self.on_idle is not None:
                    self.on_idle()
                time.sleep(self.poll_interval)
        finally:
            if handle is not None:
                handle.close()


@dataclass
class LiveGeneratorSource:
    """Synthetic live feed: the traffic generator behind an impaired link.

    Mobile traces are captured, pushed through the seeded impairment
    injector (via :meth:`CorpusProcessor.capture_mobile`, which both
    this source and the batch path share), serialized to wire bytes
    and re-read through a :class:`PcapReader` — so the streamed
    packets are bit-identical to what ``repro generate --impair``
    would have archived.  Web/desktop traces arrive whole, exactly as
    the batch HAR round trip parses them.
    """

    config: CorpusConfig

    def events(self) -> Iterator["TraceDocument | PacketTrace"]:
        processor = CorpusProcessor(config=self.config)
        for trace in processor.generator.generate_corpus():
            if trace.platform is Platform.MOBILE:
                meta, pcap, keylog_text = processor.capture_mobile(trace)
                yield PacketTrace(
                    meta=meta,
                    packets=self._wire_packets(pcap),
                    keylog=KeyLog.from_text(keylog_text),
                )
            else:
                yield TraceDocument(parsed=processor.process_web(trace))

    @staticmethod
    def _wire_packets(pcap) -> Iterator[Packet]:
        # Round-trip through the serialized form: record timestamps
        # are microsecond-rounded on the wire, and the batch path
        # decodes the serialized bytes — parity requires feeding the
        # same rounded values.
        reader = PcapReader(pcap.to_bytes())
        for record in reader.iter_packets():
            yield record.timestamp, record.data
