"""Incremental per-packet decoding with bounded memory.

:class:`IncrementalTraceDecoder` is the streaming packet walk, the
sibling of the batch ``repro.capture.decrypt._decrypt_packets`` walk:
packets feed in one at a time, each flow's newly contiguous bytes
drain straight into that flow's
:class:`~repro.capture.decrypt.FlowDecoder` (so raw capture bytes are
released long before the flow ends), and flows are evicted under an
idle-timeout + byte-budget LRU policy.  The flow decoder and the
result assembly (:func:`~repro.capture.decrypt.assemble_decryption`)
are the batch walk's own, so the two walks differ only in how bytes
reach the flow decoder: reassembly is first-copy-wins either way
(``repro.net.tcp``), and the flow decoder's outcome does not depend
on how its input is chunked.  Feeding a complete capture to EOF
therefore produces a :class:`~repro.capture.decrypt.MobileDecryption`
byte-identical to the batch walk over the same packets.

The parity caveat is eviction itself: a flow evicted *mid-life* (more
of its segments arrive later) is finalized early and its stragglers
open a fresh flow record, which the batch path — seeing the whole
capture at once — would have merged.  The defaults are chosen so that
cannot happen on well-formed feeds (the idle timeout is far longer
than any reordering window); the byte budget is the hard memory
guarantee for adversarial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.capture.decrypt import (
    FlowDecoder,
    FlowOutcome,
    MobileDecryption,
    assemble_decryption,
)
from repro.net.packet import PacketError, parse_tcp_segment
from repro.net.tcp import FlowId, TcpReassembler


@dataclass(frozen=True)
class EvictionPolicy:
    """When the streaming decoder lets go of a flow's buffers.

    ``idle_timeout`` is in *stream time* (capture timestamps): a flow
    that has not seen a segment for that long is finalized — on real
    feeds nothing arrives for it afterwards, so parity with the batch
    walk is preserved.  ``byte_budget`` caps the payload bytes held
    across all flows (reassembly buffers plus flow-decoder remainders);
    when exceeded, least-recently-active flows are finalized until the
    feed fits, whatever the parity cost — the budget is the memory
    guarantee.  ``sweep_interval`` is how many packets pass between
    idle sweeps.
    """

    idle_timeout: float = 60.0
    byte_budget: int = 32 << 20
    sweep_interval: int = 64


@dataclass
class _FlowRecord:
    """Bookkeeping for one flow, in first-seen order."""

    flow: FlowId
    key: str  # canonical flow-id string
    outcome: FlowOutcome | None = None
    first_timestamp: float = 0.0


class IncrementalTraceDecoder:
    """Feed one capture packet at a time; finish to a batch-identical
    :class:`MobileDecryption`.

    The decoder's live memory is the reassembler's buffered payload
    plus the flow decoders' unconsumed remainders, both bounded by the
    :class:`EvictionPolicy`; recovered requests and per-flow counters
    scale with the *results*, as they do in batch.
    """

    def __init__(self, keylog, policy: EvictionPolicy | None = None) -> None:
        self.policy = policy or EvictionPolicy()
        self._keylog = keylog
        self._reassembler = TcpReassembler()
        self._decoders: dict[FlowId, FlowDecoder] = {}
        self._active: dict[FlowId, _FlowRecord] = {}
        self._records: list[_FlowRecord] = []
        # Segments per flow id over the whole trace, summed at each
        # eviction: an evicted flow's stragglers count toward it too.
        self._frame_counts: dict[FlowId, int] = {}
        self._packet_count = 0
        self._decoder_buffered = 0
        self._stream_time = 0.0
        self._since_sweep = 0
        self.high_water_bytes = 0
        self.evictions = 0

    # -- feeding --------------------------------------------------------

    def feed(self, timestamp: float, data) -> None:
        """Consume one captured packet (link-layer bytes)."""
        self._packet_count += 1
        try:
            segment = parse_tcp_segment(data, timestamp)
        except PacketError:
            return  # non-TCP noise is skipped, as in batch
        if timestamp > self._stream_time:
            self._stream_time = timestamp
        key = (segment.src_ip, segment.src_port, segment.dst_ip, segment.dst_port)
        record = self._active.get(key)  # type: ignore[call-overload]
        if record is None:
            flow = FlowId._make(key)
            record = self._active[flow] = _FlowRecord(flow=flow, key=str(flow))
            self._records.append(record)
            self._decoders[flow] = FlowDecoder(self._keylog)
        self._reassembler.add_segment(segment)
        self._drain(record.flow)
        self._enforce_policy()

    def _drain(self, flow: FlowId) -> None:
        chunk = self._reassembler.drain_ready(flow)
        if chunk:
            decoder = self._decoders[flow]
            before = decoder.buffered
            decoder.feed(chunk)
            self._decoder_buffered += decoder.buffered - before

    def buffered_bytes(self) -> int:
        """Payload bytes currently buffered (reassembly + flow decoders)."""
        return self._reassembler.buffered_bytes() + self._decoder_buffered

    def live_flows(self) -> int:
        """Flow decoders currently resident (not yet finalized)."""
        return len(self._decoders)

    # -- eviction -------------------------------------------------------

    def _enforce_policy(self) -> None:
        buffered = self.buffered_bytes()
        if buffered > self.high_water_bytes:
            self.high_water_bytes = buffered
        self._since_sweep += 1
        if self._since_sweep >= self.policy.sweep_interval:
            self._since_sweep = 0
            for flow in self._reassembler.idle_flows(
                self._stream_time, self.policy.idle_timeout
            ):
                self._evict(flow)
        while self.buffered_bytes() > self.policy.byte_budget:
            victim = self._reassembler.lru_flow()
            if victim is None:
                break
            self._evict(victim)
            self.evictions += 1

    def _evict(self, flow: FlowId) -> None:
        """Finalize one flow now and release everything it holds."""
        self._drain(flow)
        reassembled = self._reassembler.pop_flow(flow)
        decoder = self._decoders.pop(flow)
        self._decoder_buffered -= decoder.buffered
        decoder.feed(reassembled.data)
        record = self._active.pop(flow)
        record.first_timestamp = reassembled.first_timestamp
        record.outcome = decoder.finalize()
        self._frame_counts[flow] = self._frame_counts.get(flow, 0) + reassembled.frames

    # -- finishing ------------------------------------------------------

    def finish(self) -> MobileDecryption:
        """Finalize every remaining flow and assemble the result.

        Flows land in first-seen order, as in the batch walk; opaque
        contacts carry trace-wide frame counts, so segments that
        arrived after their flow was evicted count toward it too.
        """
        for flow in self._reassembler.flow_ids():
            self._evict(flow)
        return assemble_decryption(
            self._packet_count,
            [
                (
                    record.key,
                    record.first_timestamp,
                    self._frame_counts[record.flow],
                    record.outcome,
                )
                for record in self._records
            ],
        )
