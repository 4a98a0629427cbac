"""Incremental per-packet decoding with bounded memory.

:class:`IncrementalTraceDecoder` is the streaming sibling of the batch
``repro.capture.decrypt._decrypt_packets`` walk: packets feed in one
at a time, each flow's newly contiguous bytes drain straight through
TLS record decryption and HTTP parsing (so raw capture bytes are
released long before the flow ends), and flows are evicted under an
idle-timeout + byte-budget LRU policy.  Feeding a complete capture to
EOF produces a :class:`~repro.capture.decrypt.MobileDecryption` that
is byte-identical to the batch walk over the same packets — every
corner of the batch semantics (first-copy-wins reassembly, all-or-
nothing TLS flows, break-on-error HTTP walks, opaque accounting,
first-seen flow ordering) is reproduced incrementally.

The parity caveat is eviction itself: a flow evicted *mid-life* (more
of its segments arrive later) is finalized early and its stragglers
open a fresh flow record, which the batch path — seeing the whole
capture at once — would have merged.  The defaults are chosen so that
cannot happen on well-formed feeds (the idle timeout is far longer
than any reordering window); the byte budget is the hard memory
guarantee for adversarial ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capture.decrypt import DecryptedRequest, MobileDecryption, OpaqueContact
from repro.net.http import HttpRequest, pending_request_need, scan_request_stream
from repro.net.packet import PacketError, parse_tcp_segment
from repro.net.tcp import FlowId, TcpReassembler
from repro.net.tls import (
    RECORD_TYPE_APPDATA,
    TlsError,
    decrypt_record,
    scan_records,
)


@dataclass(frozen=True)
class EvictionPolicy:
    """When the streaming decoder lets go of a flow's buffers.

    ``idle_timeout`` is in *stream time* (capture timestamps): a flow
    that has not seen a segment for that long is finalized — on real
    feeds nothing arrives for it afterwards, so parity with the batch
    walk is preserved.  ``byte_budget`` caps the payload bytes held
    across all flows (reassembly buffers plus pipeline remainders);
    when exceeded, least-recently-active flows are finalized until the
    feed fits, whatever the parity cost — the budget is the memory
    guarantee.  ``sweep_interval`` is how many packets pass between
    idle sweeps.
    """

    idle_timeout: float = 60.0
    byte_budget: int = 32 << 20
    sweep_interval: int = 64


# _FlowPipeline stages.
_SNIFF = 0  # undecided: not enough bytes to route the flow yet
_PLAIN = 1  # plaintext HTTP straight off the wire
_TLS_HELLO = 2  # TLS magic seen, waiting for the full pseudo-hello
_TLS_BODY = 3  # session known, decrypting records incrementally
_OPAQUE = 4  # no secret in the key log: destination knowledge only
_UNDECRYPTABLE = 5  # hello-less TLS records: nothing recoverable
_POISONED = 6  # TLS framing error: the whole flow is undecryptable

_TLS_MAGIC = b"\x16\x03"


class _FlowPipeline:
    """One flow's incremental TLS → plaintext → HTTP pipeline.

    Consumes contiguous stream bytes as they become available and
    releases them immediately; holds only a partial TLS record, a
    partial HTTP request, and the requests recovered so far.  The
    stage machine mirrors the batch per-flow block in
    ``decrypt_mobile_artifact`` decision for decision — including the
    all-or-nothing rule that a TLS framing error anywhere discards
    every request the flow produced.
    """

    __slots__ = (
        "_keylog",
        "_stage",
        "_buffer",
        "_plain",
        "_session",
        "_record_index",
        "_http_broken",
        "_http_need",
        "requests",
        "sni",
        "fed",
    )

    def __init__(self, keylog) -> None:
        self._keylog = keylog
        self._stage = _SNIFF
        self._buffer = bytearray()
        self._plain = bytearray()
        self._session = None
        self._record_index = 0
        self._http_broken = False
        self._http_need = 0
        self.requests: list[HttpRequest] = []
        self.sni = ""
        self.fed = 0

    @property
    def buffered(self) -> int:
        """Unconsumed bytes this pipeline is holding."""
        return len(self._buffer) + len(self._plain)

    def feed(self, chunk: bytes) -> None:
        if not chunk:
            return
        self.fed += len(chunk)
        if self._stage in (_OPAQUE, _UNDECRYPTABLE, _POISONED):
            return  # nothing more is recoverable; drop the bytes
        self._buffer += chunk
        self._advance()

    # -- stage machine --------------------------------------------------

    def _advance(self) -> None:
        if self._stage == _SNIFF:
            self._sniff(final=False)
        if self._stage == _PLAIN:
            self._parse_plain(scheme="http")
        elif self._stage == _TLS_HELLO:
            self._parse_hello()
        if self._stage == _TLS_BODY:
            self._parse_records()

    def _sniff(self, final: bool) -> None:
        """Route the flow once enough bytes arrived to mimic
        ``looks_like_tls`` + ``unwrap_hello`` on the full stream."""
        buffer = self._buffer
        if len(buffer) >= 2 and bytes(buffer[:2]) == _TLS_MAGIC:
            self._stage = _TLS_HELLO
            return
        if len(buffer) >= 5:
            if buffer[0] == RECORD_TYPE_APPDATA and buffer[1] == 0x03 and buffer[2] == 0x03:
                # Bare application-data records with no pseudo-hello:
                # looks_like_tls is true, unwrap_hello yields no hello
                # — the batch walk counts the flow undecryptable.
                self._stage = _UNDECRYPTABLE
                self._buffer.clear()
            else:
                self._stage = _PLAIN
            return
        if final:
            # Short flow (under 5 bytes, no TLS magic): the batch walk
            # would route it to the plaintext parser.
            self._stage = _PLAIN

    def _parse_hello(self) -> None:
        buffer = self._buffer
        if len(buffer) < 36:
            return  # wait for the full fixed part
        sni_length = int.from_bytes(buffer[34:36], "big")
        if len(buffer) < 36 + sni_length:
            return  # wait for the SNI bytes
        client_random = bytes(buffer[2:34])
        self.sni = (
            bytes(buffer[36 : 36 + sni_length]).decode("idna") if sni_length else ""
        )
        del buffer[: 36 + sni_length]
        session = self._keylog.lookup(client_random)
        if session is None:
            self._stage = _OPAQUE
            self._buffer.clear()
            return
        self._session = session
        self._stage = _TLS_BODY

    def _parse_records(self) -> None:
        try:
            records, consumed = scan_records(self._buffer)
        except TlsError:
            self._poison()
            return
        if not consumed:
            return
        for record_type, body in records:
            # The record index counts *all* records, matching the
            # batch decryptor's enumerate()-derived keystream offsets.
            index = self._record_index
            self._record_index += 1
            if record_type != RECORD_TYPE_APPDATA:
                continue
            self._plain += decrypt_record(body, self._session, index)
        del self._buffer[:consumed]
        self._parse_plain(scheme="https")

    def _parse_plain(self, scheme: str) -> None:
        source = self._plain if scheme == "https" else self._buffer
        if self._http_broken:
            source.clear()  # the batch walk stopped here for good
            return
        if len(source) < self._http_need:
            # A pending request's framing already told us how many
            # bytes it needs; don't re-copy and re-scan the buffer for
            # every arriving segment of a large body.
            return
        requests, consumed, broken = scan_request_stream(bytes(source), scheme=scheme)
        self.requests.extend(requests)
        del source[:consumed]
        if broken:
            self._http_broken = True
            source.clear()
            return
        self._http_need = pending_request_need(source) if source else 0

    # -- finalization ---------------------------------------------------

    def _poison(self) -> None:
        self._stage = _POISONED
        self.requests.clear()
        self._buffer.clear()
        self._plain.clear()

    def finalize(self) -> "_FlowOutcome":
        """Close the flow and classify it exactly as the batch walk would."""
        if self.fed == 0:
            return _FlowOutcome(kind="empty")
        if self._stage == _SNIFF:
            self._sniff(final=True)
            if self._stage == _PLAIN:
                self._parse_plain(scheme="http")
        if self._stage == _PLAIN:
            return _FlowOutcome(kind="requests", requests=self.requests)
        if self._stage == _OPAQUE:
            return _FlowOutcome(kind="opaque", sni=self.sni)
        if self._stage == _TLS_BODY:
            if self._buffer:
                # A partial trailing record: iter_records would raise,
                # so the whole flow counts undecryptable.
                return _FlowOutcome(kind="undecryptable")
            return _FlowOutcome(kind="requests", requests=self.requests)
        # _TLS_HELLO (truncated hello), _UNDECRYPTABLE, _POISONED.
        return _FlowOutcome(kind="undecryptable")


@dataclass
class _FlowOutcome:
    """What one finalized flow contributed."""

    kind: str  # "empty" | "requests" | "opaque" | "undecryptable"
    requests: list[HttpRequest] = field(default_factory=list)
    sni: str = ""


@dataclass
class _FlowRecord:
    """Bookkeeping for one flow, in first-seen order."""

    flow: FlowId
    key: str  # canonical flow-id string
    outcome: _FlowOutcome | None = None
    first_timestamp: float = 0.0


class IncrementalTraceDecoder:
    """Feed one capture packet at a time; finish to a batch-identical
    :class:`MobileDecryption`.

    The decoder's live memory is the reassembler's buffered payload
    plus the pipelines' unconsumed remainders, both bounded by the
    :class:`EvictionPolicy`; recovered requests and per-flow counters
    scale with the *results*, as they do in batch.
    """

    def __init__(self, keylog, policy: EvictionPolicy | None = None) -> None:
        self.policy = policy or EvictionPolicy()
        self._keylog = keylog
        self._reassembler = TcpReassembler()
        self._pipelines: dict[FlowId, _FlowPipeline] = {}
        self._active: dict[FlowId, _FlowRecord] = {}
        self._records: list[_FlowRecord] = []
        # Segments per flow id over the whole trace, summed at each
        # eviction: an evicted flow's stragglers count toward it too.
        self._frame_counts: dict[FlowId, int] = {}
        self._packet_count = 0
        self._pipeline_buffered = 0
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
            self._pipelines[flow] = _FlowPipeline(self._keylog)
        self._reassembler.add_segment(segment)
        self._drain(record.flow)
        self._enforce_policy()

    def _drain(self, flow: FlowId) -> None:
        chunk = self._reassembler.drain_ready(flow)
        if chunk:
            pipeline = self._pipelines[flow]
            before = pipeline.buffered
            pipeline.feed(chunk)
            self._pipeline_buffered += pipeline.buffered - before

    def buffered_bytes(self) -> int:
        """Payload bytes currently buffered (reassembly + pipelines)."""
        return self._reassembler.buffered_bytes() + self._pipeline_buffered

    def live_flows(self) -> int:
        """Flow pipelines currently resident (not yet finalized)."""
        return len(self._pipelines)

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
        pipeline = self._pipelines.pop(flow)
        self._pipeline_buffered -= pipeline.buffered
        pipeline.feed(reassembled.data)
        record = self._active.pop(flow)
        record.first_timestamp = reassembled.first_timestamp
        record.outcome = pipeline.finalize()
        self._frame_counts[flow] = self._frame_counts.get(flow, 0) + reassembled.frames

    # -- finishing ------------------------------------------------------

    def finish(self) -> MobileDecryption:
        """Finalize every remaining flow and assemble the result.

        Flows land in first-seen order, requests are stamped with
        their flow's first timestamp, and opaque contacts pick up the
        trace-wide frame counts — all exactly as the batch walk does
        at end of capture.
        """
        for flow in self._reassembler.flow_ids():
            self._evict(flow)
        result = MobileDecryption()
        result.packet_count = self._packet_count
        result.flow_count = len(self._records)
        for record in self._records:
            outcome = record.outcome
            if outcome.kind == "empty":
                continue
            if outcome.kind == "requests":
                for request in outcome.requests:
                    request.timestamp = record.first_timestamp
                    result.requests.append(
                        DecryptedRequest(request=request, flow=record.key)
                    )
            elif outcome.kind == "opaque":
                result.undecryptable_flows += 1
                result.opaque.append(
                    OpaqueContact(
                        host=outcome.sni,
                        first_timestamp=record.first_timestamp,
                        frame_count=self._frame_counts[record.flow],
                    )
                )
            else:  # undecryptable
                result.undecryptable_flows += 1
        return result
