"""TCP segmentation and flow reassembly.

The generator segments each HTTP request into MSS-sized TCP segments
with proper sequence numbers; the post-processor reassembles flows from
possibly out-of-order, possibly duplicated segments, reproducing the
paper's per-service TCP-flow accounting (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.net.packet import (
    EthernetHeader,
    Frame,
    Ipv4Header,
    TcpHeader,
    TcpSegment,
    ipv4_to_bytes,
    pack_tcp_frame,
)
from repro.obs.metrics import REGISTRY

_SEGMENTS = REGISTRY.counter("repro_tcp_segments_total")
_PAYLOAD_BYTES = REGISTRY.counter("repro_tcp_payload_bytes_total")

DEFAULT_MSS = 1400

# Bounds on the per-flow ``consumed`` seq set (duplicate detection for
# already-compacted segments): past this many entries, seqs further
# than the window behind the compaction point are pruned.  A bit-exact
# retransmit of pruned data is still dropped by the covered-bytes
# check; only a *content-inconsistent* same-seq retransmit arriving
# from further back than the window could slip an extension in, and
# the simulated link never corrupts payloads.
_CONSUMED_LIMIT = 65536
_CONSUMED_WINDOW = 1 << 24  # 16 MiB of stream


class FlowId(NamedTuple):
    """Canonical (client → server) flow identity.

    A tuple, so a segment's plain ``(src_ip, src_port, dst_ip,
    dst_port)`` finds its flow's entry in a ``FlowId``-keyed dict.
    """

    client_ip: str
    client_port: int
    server_ip: str
    server_port: int

    def __str__(self) -> str:
        return (
            f"{self.client_ip}:{self.client_port}->"
            f"{self.server_ip}:{self.server_port}"
        )


def _segments(
    payload: bytes, isn: int, mss: int, with_handshake: bool
) -> Iterator[tuple[int, int, bytes]]:
    """``(seq, flags, data)`` of each segment that carries ``payload``:
    SYN, MSS-sized data segments, FIN."""
    seq = isn
    if with_handshake:
        yield seq, TcpHeader.FLAG_SYN, b""
        seq += 1  # SYN consumes one sequence number
    for start in range(0, len(payload), mss):
        chunk = payload[start : start + mss]
        yield seq, TcpHeader.FLAG_PSH | TcpHeader.FLAG_ACK, chunk
        seq += len(chunk)
    if with_handshake:
        yield seq, TcpHeader.FLAG_FIN | TcpHeader.FLAG_ACK, b""


def segment_request(
    payload: bytes,
    flow: FlowId,
    timestamp: float,
    isn: int = 1,
    mss: int = DEFAULT_MSS,
    with_handshake: bool = True,
) -> list[Frame]:
    """Turn request bytes into SYN + data segments + FIN frames.

    Only the client→server direction is emitted — DiffAudit audits data
    *leaving* the device (paper §3.2).  Segment ``i`` is stamped ``i``
    microseconds after ``timestamp``.
    """
    eth = EthernetHeader()
    ip = Ipv4Header(src=flow.client_ip, dst=flow.server_ip)
    return [
        Frame(
            timestamp=timestamp + step * 1e-6,
            eth=eth,
            ip=ip,
            tcp=TcpHeader(
                src_port=flow.client_port,
                dst_port=flow.server_port,
                seq=seq,
                flags=flags,
            ),
            payload=data,
        )
        for step, (seq, flags, data) in enumerate(
            _segments(payload, isn, mss, with_handshake)
        )
    ]


def segment_request_wire(
    payload: bytes,
    flow: FlowId,
    timestamp: float,
    isn: int = 1,
    mss: int = DEFAULT_MSS,
) -> list[tuple[float, bytes]]:
    """:func:`segment_request`'s frames as ``(timestamp, wire bytes)``,
    each packed by :func:`~repro.net.packet.pack_tcp_frame` — what
    capture writes, with no :class:`Frame` built."""
    src = ipv4_to_bytes(flow.client_ip)
    dst = ipv4_to_bytes(flow.server_ip)
    return [
        (
            timestamp + step * 1e-6,
            pack_tcp_frame(
                src, dst, flow.client_port, flow.server_port, seq, flags, data
            ),
        )
        for step, (seq, flags, data) in enumerate(
            _segments(payload, isn, mss, True)
        )
    ]


@dataclass(slots=True)
class _FlowState:
    isn: int | None = None
    # seq -> payload for segments *beyond* the compacted prefix; values
    # may be zero-copy views into the capture buffer (they are copied
    # exactly once, into the reassembly bytearray, when compacted).
    segments: dict[int, "bytes | memoryview"] = field(default_factory=dict)
    first_timestamp: float = 0.0
    finished: bool = False
    # Contiguous prefix already compacted out of ``segments``.  Batch
    # callers never drain it, so ``flows()`` sees the whole stream;
    # streaming callers hand it downstream via ``drain_ready`` and
    # release the memory long before the flow ends.
    assembled: bytearray = field(default_factory=bytearray)
    expected: int | None = None  # next seq after the compacted prefix
    drained: int = 0  # bytes already handed out via drain_ready
    pending: int = 0  # payload bytes currently held in ``segments``
    # Seq keys whose first copy was already compacted away.  Keeps the
    # incremental path byte-identical to the batch walk, which keeps
    # the *first* copy of a seq and drops later (even longer) ones.
    consumed: set[int] = field(default_factory=set)
    last_activity: float = 0.0  # stream time of the last segment
    lru_tick: int = 0  # arrival counter, for LRU eviction
    frames: int = 0  # segments fed, duplicates and empty ones included


@dataclass
class ReassembledFlow:
    """One client→server byte stream recovered from segments."""

    flow: FlowId
    data: bytes
    first_timestamp: float
    complete: bool
    frames: int  # segments fed for this flow, duplicates included


class TcpReassembler:
    """Order-tolerant reassembly of client→server streams.

    Duplicate segments are dropped by sequence number; overlapping
    retransmissions keep the first copy (sufficient for the simulated
    link, which never corrupts payloads).  Holes mark a flow incomplete
    rather than raising — real traces are messy and the paper includes
    undecryptable/partial traffic in its counts.

    The reassembler is the packet walk's half of decoding, and it is
    usable two ways, with byte-identical results:

    * **batch** — feed everything, then :meth:`flows` assembles each
      stream once; the batch decode path hands each whole stream to
      the flow decoder (``repro.capture.decrypt.FlowDecoder``);
    * **incremental** — after each :meth:`add_segment`, the newly
      contiguous prefix of the segment's flow is available from
      :meth:`drain_ready` (and is *released* from the reassembler, so
      memory holds only out-of-order segments and undrained bytes);
      :meth:`pop_flow` finalizes one flow — remaining segments are
      walked with exactly the batch trimming/hole rules — and forgets
      it.  The streaming decoder feeds each drained chunk to the same
      flow decoder; :meth:`buffered_bytes`, :meth:`idle_flows` and
      :meth:`lru_flow` support its idle-timeout + byte-budget
      eviction.

    The two paths agree because compaction applies the same
    first-copy-wins / overlap-trim rules the batch walk applies, in
    the same seq order; the one assumption is a single ISN per flow
    (a duplicated SYN is fine, a *conflicting* one is degenerate).
    """

    def __init__(self) -> None:
        self._flows: dict[FlowId, _FlowState] = {}
        self._buffered = 0  # payload bytes held across all flows
        self._tick = 0  # arrival counter for LRU bookkeeping

    def add_segment(self, segment: TcpSegment) -> None:
        """Feed one :class:`TcpSegment` from :func:`parse_tcp_segment`."""
        _SEGMENTS.inc()
        key = (segment.src_ip, segment.src_port, segment.dst_ip, segment.dst_port)
        state = self._flows.get(key)  # type: ignore[call-overload]
        if state is None:
            state = self._flows[FlowId._make(key)] = _FlowState()
        state.frames += 1
        if not state.segments and state.isn is None and not state.assembled:
            state.first_timestamp = segment.timestamp
        state.first_timestamp = min(
            state.first_timestamp or segment.timestamp, segment.timestamp
        )
        state.last_activity = segment.timestamp
        self._tick += 1
        state.lru_tick = self._tick
        if segment.flags & TcpHeader.FLAG_SYN:
            state.isn = segment.seq
            if state.expected is None:
                state.expected = segment.seq + 1
                self._compact(state)
            return
        if segment.flags & TcpHeader.FLAG_FIN:
            state.finished = True
        if segment.payload:
            if segment.seq in state.segments or segment.seq in state.consumed:
                return  # duplicate seq: the first copy wins, as in batch
            if state.expected is not None and (
                segment.seq + len(segment.payload) <= state.expected
            ):
                # Entirely covered by the compacted prefix — the batch
                # walk would trim it to nothing; remember the seq so a
                # later same-seq copy is still treated as a duplicate.
                state.consumed.add(segment.seq)
                return
            state.segments[segment.seq] = segment.payload
            state.pending += len(segment.payload)
            self._buffered += len(segment.payload)
            _PAYLOAD_BYTES.inc(len(segment.payload))
            self._compact(state)

    def _compact(self, state: _FlowState) -> None:
        """Move the contiguous in-order prefix into ``assembled``.

        Applies exactly the batch walk's rules — first copy wins,
        overlaps trimmed against ``expected`` — but never jumps a
        hole: bytes past a gap wait in ``segments`` until the gap
        fills or the flow is finalized.
        """
        if state.expected is None:
            return
        while state.segments:
            seq = min(state.segments)
            if seq > state.expected:
                return  # hole — a later segment may still fill it
            data = state.segments.pop(seq)
            state.consumed.add(seq)
            size = len(data)
            state.pending -= size
            overlap = state.expected - seq
            if overlap >= size:
                self._buffered -= size
                continue  # full duplicate
            if overlap:
                data = data[overlap:]
            state.assembled += data
            self._buffered -= size - len(data)
            state.expected += len(data)
        if len(state.consumed) > _CONSUMED_LIMIT:
            # A long-lived flow would otherwise accumulate one entry
            # per segment forever — unbounded memory that the byte
            # budget cannot see.  Keep only the recent window.
            horizon = state.expected - _CONSUMED_WINDOW
            state.consumed = {seq for seq in state.consumed if seq >= horizon}

    # -- batch API -------------------------------------------------------

    def flows(self) -> list[ReassembledFlow]:
        """Reassemble every tracked flow in first-seen order."""
        out: list[ReassembledFlow] = []
        for flow, state in self._flows.items():
            tail, complete = self._tail(state)
            out.append(
                ReassembledFlow(
                    flow=flow,
                    data=bytes(state.assembled) + tail,
                    first_timestamp=state.first_timestamp,
                    complete=complete and state.finished,
                    frames=state.frames,
                )
            )
        return out

    @staticmethod
    def _tail(state: _FlowState) -> tuple[bytes, bool]:
        """Assemble everything past the compacted prefix — O(n log n).

        The finalize-time walk: remaining out-of-order segments are
        visited in seq order with the batch trimming rules, and holes
        are jumped (marking the flow incomplete) exactly as the
        original single-shot ``_assemble`` did.  Non-destructive, so
        ``flows()`` stays idempotent.
        """
        if not state.segments:
            return b"", True
        expected = state.expected
        if expected is None:
            expected = (
                state.isn + 1 if state.isn is not None else min(state.segments)
            )
        buffer = bytearray()
        complete = True
        for seq in sorted(state.segments):
            data = state.segments[seq]
            if seq > expected:
                complete = False  # hole
            elif seq < expected:
                overlap = expected - seq
                if overlap >= len(data):
                    continue  # full duplicate
                data = data[overlap:]
                seq = expected
            buffer += data
            expected = seq + len(data)
        return bytes(buffer), complete

    # -- incremental API -------------------------------------------------

    def drain_ready(self, flow: FlowId) -> bytes:
        """Take (and release) a flow's newly contiguous bytes.

        Returns ``b""`` when nothing new is contiguous.  Drained bytes
        leave the reassembler entirely — a later :meth:`pop_flow`
        returns only what arrived after the drain — so the caller owns
        feeding them onward in order.
        """
        state = self._flows.get(flow)
        if state is None or not state.assembled:
            return b""
        out = bytes(state.assembled)
        state.assembled.clear()
        state.drained += len(out)
        self._buffered -= len(out)
        return out

    def pop_flow(self, flow: FlowId) -> ReassembledFlow:
        """Finalize one flow and forget it.

        ``data`` is everything not yet drained: the undrained
        compacted prefix plus the finalize-time walk over remaining
        out-of-order segments (batch rules, holes jumped).
        """
        state = self._flows.pop(flow)
        tail, complete = self._tail(state)
        self._buffered -= len(state.assembled) + state.pending
        return ReassembledFlow(
            flow=flow,
            data=bytes(state.assembled) + tail,
            first_timestamp=state.first_timestamp,
            complete=complete and state.finished,
            frames=state.frames,
        )

    def buffered_bytes(self) -> int:
        """Payload bytes currently held (undrained prefix + pending)."""
        return self._buffered

    def flow_ids(self) -> list[FlowId]:
        """Tracked flows in first-seen order."""
        return list(self._flows)

    def last_activity(self, flow: FlowId) -> float:
        return self._flows[flow].last_activity

    def idle_flows(self, now: float, timeout: float) -> list[FlowId]:
        """Flows with no segment for ``timeout`` stream-time seconds."""
        return [
            flow
            for flow, state in self._flows.items()
            if now - state.last_activity > timeout
        ]

    def lru_flow(self) -> FlowId | None:
        """The least recently active flow (byte-budget eviction victim)."""
        if not self._flows:
            return None
        return min(self._flows, key=lambda flow: self._flows[flow].lru_tick)

    def __len__(self) -> int:
        return len(self._flows)
