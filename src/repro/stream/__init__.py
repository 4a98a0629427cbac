"""Streaming live-audit subsystem.

Everything the batch pipeline does on a complete, finite corpus, this
package does over an unbounded packet feed: :class:`StreamAudit`
consumes packets one at a time through incremental TCP reassembly,
TLS decryption and HTTP parsing (:mod:`repro.stream.incremental`),
keeps memory bounded with idle-timeout + byte-budget flow eviction,
and emits rolling :class:`repro.pipeline.engine.EngineOutput`
snapshots.  Feeds come from :class:`PacketSource` implementations
(:mod:`repro.stream.sources`): finite files, a still-growing capture
tailed in follow mode, or a synthetic live feed that drives the
traffic generator through the seeded network-impairment injector
(:mod:`repro.stream.impair`).

The contract that keeps it honest: streaming a complete capture to
EOF yields findings byte-identical to the batch ``repro audit`` path
— including under recoverable impairment (reorder/duplication), which
is reassembler-level noise — while peak memory is bounded by the
eviction budget instead of corpus size.
"""
