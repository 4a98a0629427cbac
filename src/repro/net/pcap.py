"""Binary libpcap (``.pcap``) reader and writer.

Implements the classic pcap file format (magic ``0xa1b2c3d4``,
microsecond timestamps, LINKTYPE_ETHERNET) that PCAPdroid produces.
Both byte orders are read; files are written little-endian like
tcpdump on Android.

Two read APIs share one record walker:

* :class:`PcapReader` — the streaming, zero-copy path.  It walks a
  single ``memoryview`` over the caller's buffer (or an ``mmap`` of an
  on-disk file via :meth:`PcapReader.open`) and yields
  :class:`PcapRecord` views; no packet bytes are copied.  This is what
  the decode pipeline uses.
* :class:`PcapFile` — the eager in-memory model (list of owned
  :class:`PcapPacket` records).  It remains the writer and the
  convenient API for tests and tools; ``from_bytes`` is now a thin
  materialization of the streaming walk.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

from repro.fsutil import atomic_write_bytes
from repro.obs.metrics import REGISTRY

# Bound once at import: each per-record ``inc`` goes straight to the
# family's single child.
_PACKETS = REGISTRY.counter("repro_pcap_packets_total")
_BYTES = REGISTRY.counter("repro_pcap_bytes_total")

MAGIC_LE = 0xA1B2C3D4
LINKTYPE_ETHERNET = 1
_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_BE = struct.Struct(">IHHiIII")
_RECORD_HEADER_LE = struct.Struct("<IIII")
_RECORD_HEADER_BE = struct.Struct(">IIII")
_MAGIC_PREFIX = struct.Struct("<I")
SNAPLEN = 262144

# magic -> (global-header struct, record struct, nanosecond timestamps)
_FORMATS = {
    0xA1B2C3D4: (_GLOBAL_HEADER, _RECORD_HEADER_LE, False),
    0xD4C3B2A1: (_GLOBAL_HEADER_BE, _RECORD_HEADER_BE, False),
    0xA1B23C4D: (_GLOBAL_HEADER, _RECORD_HEADER_LE, True),
    0x4D3CB2A1: (_GLOBAL_HEADER_BE, _RECORD_HEADER_BE, True),
}


class PcapError(ValueError):
    """Raised on malformed pcap files."""


class PcapFormat(NamedTuple):
    """Wire format facts a record walker needs, from one global header."""

    record_struct: struct.Struct
    timestamp_divisor: int
    header_size: int
    snaplen: int
    linktype: int


def parse_global_header(buffer) -> PcapFormat:
    """Validate a pcap global header and describe its record format.

    The shared front door for readers that cannot memory-map a whole
    file — the follow-mode tail reader hands in just the first 24
    bytes.  Raises :class:`PcapError` exactly as :class:`PcapReader`
    construction does.
    """
    if len(buffer) < _GLOBAL_HEADER.size:
        raise PcapError("file shorter than global header")
    (magic,) = _MAGIC_PREFIX.unpack(bytes(buffer[:4]))
    try:
        header_struct, record_struct, nanos = _FORMATS[magic]
    except KeyError:
        raise PcapError(f"bad magic 0x{magic:08x}") from None
    (_, major, minor, _tz, _sig, snaplen, linktype) = header_struct.unpack(
        bytes(buffer[: header_struct.size])
    )
    if (major, minor) != (2, 4):
        raise PcapError(f"unsupported pcap version {major}.{minor}")
    return PcapFormat(
        record_struct=record_struct,
        timestamp_divisor=1_000_000_000 if nanos else 1_000_000,
        header_size=header_struct.size,
        snaplen=snaplen,
        linktype=linktype,
    )


class PcapRecord(NamedTuple):
    """One streamed capture record; ``data`` is a zero-copy view.

    The view borrows the reader's buffer: it stays valid until the
    reader is closed (mmap-backed readers), so consumers that keep
    payloads around must take ``bytes(record.data)``.
    """

    timestamp: float
    data: memoryview
    orig_len: int


class PcapReader:
    """Streaming zero-copy pcap reader over one contiguous buffer.

    The global header is validated eagerly (construction fails on a
    truncated or alien file); records are only walked — and only
    validated — as :meth:`iter_packets` advances.  Works as a context
    manager; closing releases the underlying ``mmap`` when the reader
    was opened from a path.
    """

    def __init__(self, buffer) -> None:
        view = memoryview(buffer)
        try:
            if len(view) < _GLOBAL_HEADER.size:
                raise PcapError("file shorter than global header")
            (magic,) = _MAGIC_PREFIX.unpack(view[:4])
            try:
                header_struct, record_struct, nanos = _FORMATS[magic]
            except KeyError:
                raise PcapError(f"bad magic 0x{magic:08x}") from None
            (_, major, minor, _tz, _sig, snaplen, linktype) = header_struct.unpack(
                view[: header_struct.size]
            )
            if (major, minor) != (2, 4):
                raise PcapError(f"unsupported pcap version {major}.{minor}")
        except (PcapError, struct.error):
            # Release the export eagerly so a caller-owned mmap can be
            # closed even while this traceback is still referenced.
            view.release()
            raise
        self._view = view
        self._mmap: mmap.mmap | None = None
        self._file = None
        self._record_struct = record_struct
        self.snaplen = snaplen
        self.linktype = linktype
        self._divisor = 1_000_000_000 if nanos else 1_000_000
        self._header_size = header_struct.size

    @classmethod
    def open(cls, path: str | Path) -> "PcapReader":
        """Memory-map an on-disk capture; no bytes are read up front."""
        handle = open(path, "rb")
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file cannot be mapped
            handle.close()
            raise PcapError(f"file shorter than global header: {path}") from exc
        except OSError:
            handle.close()
            raise
        try:
            reader = cls(mapped)
        # repro-lint: disable=X-BARE-EXCEPT — resource guard: the mmap and file handle must close on ANY failure, then re-raise unchanged
        except BaseException:
            mapped.close()
            handle.close()
            raise
        reader._mmap = mapped
        reader._file = handle
        return reader

    def iter_packets(self) -> Iterator[PcapRecord]:
        """Yield each record as a :class:`PcapRecord` view, in order."""
        view = self._view
        record = self._record_struct
        record_size = record.size
        divisor = self._divisor
        position = self._header_size
        end = len(view)
        while position < end:
            if position + record_size > end:
                raise PcapError("truncated record header")
            seconds, fraction, caplen, orig_len = record.unpack_from(view, position)
            position += record_size
            if position + caplen > end:
                raise PcapError("truncated record body")
            _PACKETS.inc()
            _BYTES.inc(caplen)
            yield PcapRecord(  # positional, as in parse_tcp_segment
                seconds + fraction / divisor,
                view[position : position + caplen],
                orig_len,
            )
            position += caplen

    def close(self) -> None:
        self._view.release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            # repro-lint: disable=X-SWALLOW — record views still alive (e.g. in an in-flight traceback) pin the mapping; it is reclaimed when they are collected
            except BufferError:
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class PcapPacket:
    """One captured record: timestamp plus raw link-layer bytes."""

    timestamp: float
    data: bytes
    orig_len: int | None = None

    @property
    def captured_len(self) -> int:
        return len(self.data)


@dataclass
class PcapFile:
    """An in-memory pcap: global header fields plus packet records."""

    packets: list[PcapPacket] = field(default_factory=list)
    linktype: int = LINKTYPE_ETHERNET
    snaplen: int = SNAPLEN

    def append(self, packet: PcapPacket) -> None:
        self.packets.append(packet)

    def to_bytes(self) -> bytes:
        chunks = [
            _GLOBAL_HEADER.pack(
                MAGIC_LE, 2, 4, 0, 0, self.snaplen, self.linktype
            )
        ]
        for packet in self.packets:
            seconds = int(packet.timestamp)
            micros = int(round((packet.timestamp - seconds) * 1_000_000))
            if micros == 1_000_000:
                seconds += 1
                micros = 0
            orig = packet.orig_len if packet.orig_len is not None else len(packet.data)
            chunks.append(
                _RECORD_HEADER_LE.pack(seconds, micros, len(packet.data), orig)
            )
            chunks.append(packet.data)
        return b"".join(chunks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PcapFile":
        reader = PcapReader(blob)
        return cls(
            packets=[
                PcapPacket(
                    timestamp=record.timestamp,
                    data=bytes(record.data),
                    orig_len=record.orig_len,
                )
                for record in reader.iter_packets()
            ],
            linktype=reader.linktype,
            snaplen=reader.snaplen,
        )

    def write(self, path: str | Path) -> None:
        atomic_write_bytes(Path(path), self.to_bytes())

    @classmethod
    def read(cls, path: str | Path) -> "PcapFile":
        return cls.from_bytes(Path(path).read_bytes())

    def __len__(self) -> int:
        return len(self.packets)
