"""The streaming audit session.

:class:`StreamAudit` is the bounded-memory, incremental counterpart of
:class:`repro.pipeline.engine.AuditEngine` + :class:`repro.pipeline.
diffaudit.DiffAudit`: it consumes trace events from a
:class:`~repro.stream.sources.PacketSource`, decodes packet feeds
through :class:`~repro.stream.incremental.IncrementalTraceDecoder`
(idle-timeout + byte-budget flow eviction), folds each finished trace
into its service's shard through the batch engine's own
:class:`~repro.pipeline.engine.ShardFold` — building after every
trace, so the classifier (and the persistent ``--cache-dir`` store
beneath it) warms continuously as the stream runs — and emits rolling
:class:`~repro.pipeline.engine.EngineOutput` snapshots.

Parity: after a complete feed, :meth:`StreamAudit.result` equals the
batch audit of the same corpus byte for byte.  Every stage reuses the
batch machinery — ``process_shard`` folds through the same
``ShardFold``, snapshots pack each shard (``pack_shard_result``) and
merge them through :meth:`AuditEngine.merge`, and the final result is
assembled by the shared
:func:`repro.pipeline.diffaudit.assemble_result` — so the only novel
code on the result path is the incremental decoding, which is pinned
byte-identical by its own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.datatypes.base import Classifier
from repro.datatypes.cache import CachingClassifier
from repro.datatypes.store import PersistentClassifier
from repro.destinations.blocklists import BlockListCollection
from repro.destinations.entities import EntityDatabase
from repro.flows.builder import FlowBuilder
from repro.flows.dataflow import FlowTable
from repro.pipeline.corpus import ParsedTrace
from repro.pipeline.dataset import DatasetSummary
from repro.pipeline.diffaudit import DiffAuditResult, assemble_result
from repro.pipeline.engine import (
    AuditEngine,
    EngineOutput,
    ShardFold,
    ShardResult,
    labeler_for,
    pack_shard_result,
    prepare_classifier,
    record_run_stats,
)
from repro.obs.metrics import REGISTRY
from repro.services.config import CorpusConfig
from repro.stream.incremental import EvictionPolicy, IncrementalTraceDecoder
from repro.stream.sources import PacketSource, PacketTrace, TraceDocument

_TRACES = REGISTRY.counter("repro_stream_traces_total")
_PACKETS = REGISTRY.counter("repro_stream_packets_total")
_SNAPSHOTS = REGISTRY.counter("repro_stream_snapshots_total")
_EVICTIONS = REGISTRY.counter("repro_stream_evictions_total")


class StreamError(ValueError):
    """Raised when a stream cannot be audited as configured."""


@dataclass
class StreamAudit:
    """A live, bounded-memory audit over an unbounded capture feed.

    Use :meth:`snapshots` to drive a source and receive rolling
    :class:`EngineOutput` snapshots (every ``snapshot_every`` finished
    traces), then :meth:`result` for the final
    :class:`DiffAuditResult`; or :meth:`run` to do both in one call.

    Per flow observation the session keeps one 32-byte packed row in
    its service's shard table (:data:`repro.flows.dataflow.PACKED_ROW`)
    and nothing else: each field value is interned into the table's
    pool once.  Decoder state is bounded by the eviction ``policy``;
    contacted hosts, raw keys and dataset rows grow with distinct
    values only.  Roll-ups are derived per snapshot, from the merged
    rows, and dropped with it.
    """

    config: CorpusConfig = field(default_factory=CorpusConfig)
    classifier: Classifier | None = None
    confidence_threshold: float = 0.8
    entity_db: EntityDatabase | None = None
    blocklists: BlockListCollection | None = None
    policy: EvictionPolicy = field(default_factory=EvictionPolicy)
    snapshot_every: int = 0  # finished traces between snapshots; 0 = none
    # Persistent classification store (``--cache-dir``): verdicts are
    # written through as the stream classifies, so the store is warm
    # across snapshots — and across an interrupted session.
    cache_dir: Path | str | None = None

    def __post_init__(self) -> None:
        self.classifier = prepare_classifier(self.classifier, self.cache_dir)
        if self.entity_db is None:
            from repro.destinations.entities import default_entity_db

            self.entity_db = default_entity_db()
        if self.blocklists is None:
            from repro.destinations.blocklists import default_blocklists

            self.blocklists = default_blocklists()
        # One shared in-memory cache across services, exactly like the
        # batch engine's sequential path: keys common to several
        # services classify once per stream.
        self._cache = CachingClassifier.wrap(self.classifier)
        # Per service: its fold and the one shard result it folds into.
        self._shards: dict[str, tuple[ShardFold, ShardResult]] = {
            spec.key: (
                ShardFold(
                    spec.key,
                    labeler_for(spec, self.entity_db, self.blocklists),
                    FlowBuilder(
                        classifier=self._cache,
                        confidence_threshold=self.confidence_threshold,
                    ),
                ),
                ShardResult(spec.key, FlowTable(), DatasetSummary(), set(), set()),
            )
            for spec in self.config.service_specs()
        }
        self.trace_count = 0
        self.packet_count = 0
        self.high_water_bytes = 0
        self.evictions = 0
        # The live gauges are collect-on-scrape callbacks over whichever
        # decoder is mid-trace right now (None between traces, so the
        # gauges read zero when the session is quiescent).  Re-creating
        # a session re-registers the callbacks, so the newest session
        # owns the gauges — matching "last writer wins" for plain sets.
        self._current_decoder: IncrementalTraceDecoder | None = None
        REGISTRY.gauge_callback(
            "repro_stream_flows_live",
            lambda: self._current_decoder.live_flows()
            if self._current_decoder is not None
            else 0,
        )
        REGISTRY.gauge_callback(
            "repro_stream_buffered_bytes",
            lambda: self._current_decoder.buffered_bytes()
            if self._current_decoder is not None
            else 0,
        )
        REGISTRY.gauge_callback(
            "repro_stream_high_water_bytes", lambda: self.high_water_bytes
        )

    # -- consuming ------------------------------------------------------

    def consume(self, event: "TraceDocument | PacketTrace") -> None:
        """Feed one trace event through decode → classify → flow-build."""
        if isinstance(event, PacketTrace):
            decoder = IncrementalTraceDecoder(event.keylog, self.policy)
            self._current_decoder = decoder
            packets_before = self.packet_count
            for timestamp, data in event.packets:
                decoder.feed(timestamp, data)
                self.packet_count += 1
            decryption = decoder.finish()
            _PACKETS.inc(self.packet_count - packets_before)
            self.evictions += decoder.evictions
            _EVICTIONS.inc(decoder.evictions)
            if decoder.high_water_bytes > self.high_water_bytes:
                self.high_water_bytes = decoder.high_water_bytes
            self._current_decoder = None
            parsed = ParsedTrace(
                meta=event.meta,
                requests=[item.request for item in decryption.requests],
                opaque_hosts=[contact.host for contact in decryption.opaque],
                packet_count=decryption.packet_count,
                flow_count=decryption.flow_count,
                undecryptable_flows=decryption.undecryptable_flows,
            )
        else:
            parsed = event.parsed
        if parsed.meta.service not in self._shards:
            known = ", ".join(sorted(self._shards))
            raise StreamError(
                f"trace {parsed.meta.name!r} belongs to service "
                f"{parsed.meta.service!r}, which is not part of this stream's "
                f"configuration (configured: {known})"
            )
        fold, shard = self._shards[parsed.meta.service]
        fold.add(parsed, shard)
        fold.build()
        self.trace_count += 1
        _TRACES.inc()

    def snapshots(self, source: PacketSource) -> Iterator[EngineOutput]:
        """Drive a source to EOF, yielding a snapshot every
        ``snapshot_every`` finished traces (none when 0)."""
        for event in source.events():
            self.consume(event)
            if self.snapshot_every and self.trace_count % self.snapshot_every == 0:
                yield self.snapshot()

    # -- results --------------------------------------------------------

    def snapshot(self) -> EngineOutput:
        """Merged engine state as of now — ``EngineOutput``-compatible.

        Snapshots merge through the batch engine's own
        :meth:`AuditEngine.merge`, in service-spec order, so the final
        snapshot *is* the batch engine output for the corpus consumed
        so far.
        """
        _SNAPSHOTS.inc()
        shards = []
        for spec in self.config.service_specs():
            fold, shard = self._shards[spec.key]
            fold.label(shard)
            shards.append(pack_shard_result(shard))
        merged = AuditEngine.merge(shards)
        # Classification counters are session-wide (one shared cache),
        # not per-shard; surface them on the merged view for stats.
        # Builder label-table lookups count as hits — they are the
        # per-request resolutions that used to go through the cache.
        merged.cache_hits = self._cache.hits + sum(
            fold.builder.lookup_hits for fold, _ in self._shards.values()
        )
        merged.cache_misses = self._cache.misses
        if isinstance(self.classifier, PersistentClassifier):
            merged.store_hits = self.classifier.store_hits
            merged.store_misses = self.classifier.misses
        return merged

    def result(self) -> DiffAuditResult:
        """The final audit result for everything consumed so far.

        Byte-identical to the batch ``DiffAudit`` result for the same
        complete corpus — downstream analyses run through the shared
        :func:`assemble_result`.
        """
        merged = self.snapshot()
        record_run_stats(
            self.classifier,
            memory_hits=merged.cache_hits,
            store_hits=merged.store_hits,
            misses=merged.store_misses,
        )
        return assemble_result(
            self.config, merged, self.entity_db, self.blocklists
        )

    def run(self, source: PacketSource) -> DiffAuditResult:
        """Consume a source to EOF and return the final result."""
        for _ in self.snapshots(source):
            pass
        return self.result()


def snapshot_summary(output: EngineOutput) -> dict:
    """A small machine-readable digest of one snapshot (JSON-friendly)."""
    return {
        "traces": output.trace_count,
        "packets": output.dataset.total_packets,
        "tcp_flows": output.dataset.total_tcp_flows,
        "flow_observations": len(output.flows),
        "unique_raw_keys": len(output.raw_keys),
        "classified_keys": output.classified_keys,
        "contacted": {
            service: len(hosts) for service, hosts in output.contacted.items()
        },
    }
