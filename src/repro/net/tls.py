"""TLS record framing, the pseudo-ClientHello, NSS key-log files, and
keylog-based decryption.

The paper decrypts mobile traffic by installing PCAPdroid's certificate,
saving a TLS key log, and embedding the keys into the PCAP with
``editcap`` before Wireshark decryption (§3.1.1, §3.2).  We reproduce
the *workflow* faithfully with a simulated cipher:

* application data is wrapped in TLS 1.3-shaped records
  (``type=23, version=0x0303, length``), behind a pseudo-ClientHello
  carrying the client random and the SNI;
* each session has a 32-byte ``CLIENT_TRAFFIC_SECRET`` recorded in NSS
  key-log format (the exact format PCAPdroid emits);
* the record payload is encrypted with a keystream derived from the
  secret (SHA-256 counter mode) — cryptographically toy, but decryption
  *requires* the right secret, so the "no keylog ⇒ opaque bytes" code
  path is real, including certificate-pinned sessions whose secrets
  never reach the log (Frida-bypass failures).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from pathlib import Path

from repro.fsutil import atomic_write_text
from repro.obs.metrics import REGISTRY

_RECORDS = REGISTRY.counter("repro_tls_records_total")
_PLAINTEXT_BYTES = REGISTRY.counter("repro_tls_plaintext_bytes_total")

RECORD_TYPE_APPDATA = 23
RECORD_VERSION = 0x0303
MAX_RECORD_LEN = 16384

_RECORD_HEADER = struct.Struct("!BHH")
_U64 = struct.Struct("!Q")
_U16 = struct.Struct("!H")


class TlsError(ValueError):
    """Raised on malformed records or missing key material."""


def _keystream(secret: bytes, client_random: bytes, length: int) -> bytes:
    """Deterministic keystream: SHA-256(secret || random || counter).

    The derivation is frozen — it defines the bytes of every archived
    capture.  Each block clones one running hash, so the shared 64-byte
    prefix is compressed once per call, not once per 32-byte block.
    Each digest is appended as it is made, so no record holds its
    digest objects all at once.
    """
    base = hashlib.sha256(secret + client_random)
    out = bytearray()
    for counter in range(-(-length // 32)):
        block = base.copy()
        block.update(_U64.pack(counter))
        out += block.digest()
    del out[length:]
    return bytes(out)


def _xor(data, keystream: bytes) -> bytes:
    """XOR two equal-length byte strings via one big-int operation.

    ~100x faster than a per-byte Python loop and accepts any
    bytes-like ``data`` (the decode path hands in memoryviews).
    """
    length = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(length, "big")


@dataclass(frozen=True)
class TlsSession:
    """Key material for one TLS connection."""

    client_random: bytes  # 32 bytes, identifies the session in the keylog
    secret: bytes  # 32 bytes traffic secret

    def __post_init__(self) -> None:
        if len(self.client_random) != 32 or len(self.secret) != 32:
            raise TlsError("client_random and secret must be 32 bytes")

    @classmethod
    def derive(cls, seed: bytes) -> "TlsSession":
        """Deterministically derive a session from generator state."""
        client_random = hashlib.sha256(b"client-random|" + seed).digest()
        secret = hashlib.sha256(b"traffic-secret|" + seed).digest()
        return cls(client_random=client_random, secret=secret)


def encrypt_stream(plaintext: bytes, session: TlsSession) -> bytes:
    """Wrap plaintext into encrypted TLS application-data records."""
    out = bytearray()
    offset = 0
    for start in range(0, len(plaintext), MAX_RECORD_LEN):
        chunk = plaintext[start : start + MAX_RECORD_LEN]
        keystream = _keystream(
            session.secret, session.client_random + _U64.pack(offset), len(chunk)
        )
        ciphertext = _xor(chunk, keystream)
        out += _RECORD_HEADER.pack(RECORD_TYPE_APPDATA, RECORD_VERSION, len(ciphertext))
        out += ciphertext
        offset += 1
    return bytes(out)


# The pseudo-ClientHello prefixed to every encrypted flow: magic, the
# 32-byte client random, then a length-prefixed SNI.  It carries
# exactly what a passive observer of real TLS sees in the clear: the
# client random (for keylog lookup) and the SNI hostname (so
# destinations of *undecryptable* flows are still attributable — the
# paper includes encrypted traffic in its domain counts, §3.1.1).
_HELLO_MAGIC = b"\x16\x03"
_HELLO_FIXED = 36  # magic (2), client random (32), SNI length (2)


def wrap_with_hello(stream: bytes, session: TlsSession, sni: str) -> bytes:
    """Prefix the pseudo-ClientHello (magic + random + SNI)."""
    sni_bytes = sni.encode("idna") if sni else b""
    if len(sni_bytes) > 0xFFFF:
        raise TlsError("SNI too long")
    return (
        _HELLO_MAGIC
        + session.client_random
        + _U16.pack(len(sni_bytes))
        + sni_bytes
        + stream
    )


# What the first bytes of a client→server stream say it carries.
STREAM_HELLO = "hello"  # a pseudo-ClientHello, then records
STREAM_RECORDS = "records"  # application-data records with no hello
STREAM_PLAIN = "plain"  # not TLS: plaintext HTTP straight off the wire


def sniff_stream(head) -> str | None:
    """Route a client→server stream by its first bytes.

    Seeing the hello magic takes two bytes and a bare application-data
    record header five; with fewer, the answer is ``None``: wait for
    more.
    """
    if bytes(head[:2]) == _HELLO_MAGIC:
        return STREAM_HELLO
    if len(head) < 5:
        return None
    (version,) = _U16.unpack_from(head, 1)
    if head[0] == RECORD_TYPE_APPDATA and version == RECORD_VERSION:
        return STREAM_RECORDS
    return STREAM_PLAIN


def scan_hello(stream) -> tuple[bytes, str, int] | None:
    """The pseudo-ClientHello at the head of ``stream``.

    Returns ``(client_random, sni, consumed)``, or ``None`` while the
    hello is still incomplete — the same incremental contract as
    :func:`scan_records`.  A stream without the hello magic, or an SNI
    that is not valid IDNA, raises :class:`TlsError`.
    """
    if len(stream) < 2:
        return None
    if bytes(stream[:2]) != _HELLO_MAGIC:
        raise TlsError("missing ClientHello magic")
    if len(stream) < _HELLO_FIXED:
        return None
    (sni_length,) = _U16.unpack_from(stream, 34)
    end = _HELLO_FIXED + sni_length
    if len(stream) < end:
        return None
    try:
        sni = bytes(stream[_HELLO_FIXED:end]).decode("idna") if sni_length else ""
    except UnicodeError as exc:
        raise TlsError("ClientHello SNI is not valid IDNA") from exc
    return bytes(stream[2:34]), sni, end


def scan_records(stream) -> tuple[list[tuple[int, "bytes | memoryview"]], int]:
    """Complete TLS records at the head of ``stream``, plus bytes consumed.

    A truncated trailing record is not an error: the scan stops cleanly
    before it and reports how far it got, so an incremental caller can
    drop the consumed prefix and retry once more bytes arrive.  A
    malformed record header (wrong version) raises :class:`TlsError` —
    that is corruption, not an incomplete feed.  With a ``memoryview``
    input, each record body is a zero-copy view into it.
    """
    records: list[tuple[int, "bytes | memoryview"]] = []
    position = 0
    end = len(stream)
    while position + 5 <= end:
        record_type, version, length = _RECORD_HEADER.unpack(
            stream[position : position + 5]
        )
        if version != RECORD_VERSION:
            raise TlsError(f"unexpected TLS version 0x{version:04x}")
        if position + 5 + length > end:
            break  # partial trailing record — wait for more bytes
        records.append((record_type, stream[position + 5 : position + 5 + length]))
        position += 5 + length
    return records, position


def decrypt_record(body, session: TlsSession, offset: int) -> bytes:
    """Decrypt one application-data record at its stream ``offset``.

    ``offset`` is the record's index among *all* records of the flow,
    handshake records included — the counter :func:`encrypt_stream`
    advanced once per record it wrote.
    """
    keystream = _keystream(
        session.secret, session.client_random + _U64.pack(offset), len(body)
    )
    _RECORDS.inc()
    _PLAINTEXT_BYTES.inc(len(body))
    return _xor(body, keystream)


_KEYLOG_LABEL = "CLIENT_TRAFFIC_SECRET_0"


@dataclass
class KeyLog:
    """An NSS key-log file: ``LABEL <client_random_hex> <secret_hex>``."""

    secrets: dict[bytes, bytes] = field(default_factory=dict)  # random -> secret

    def record(self, session: TlsSession) -> None:
        self.secrets[session.client_random] = session.secret

    def lookup(self, client_random: bytes) -> TlsSession | None:
        secret = self.secrets.get(client_random)
        if secret is None:
            return None
        return TlsSession(client_random=client_random, secret=secret)

    def to_text(self) -> str:
        return "".join(
            f"{_KEYLOG_LABEL} {random.hex()} {secret.hex()}\n"
            for random, secret in self.secrets.items()
        )

    @classmethod
    def from_text(cls, text: str) -> "KeyLog":
        log = cls()
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise TlsError(f"bad keylog line {line_number}: {line!r}")
            label, random_hex, secret_hex = parts
            if label != _KEYLOG_LABEL:
                continue  # other labels (handshake secrets) are ignored
            log.secrets[bytes.fromhex(random_hex)] = bytes.fromhex(secret_hex)
        return log

    def write(self, path: str | Path) -> None:
        atomic_write_text(Path(path), self.to_text(), encoding="ascii")

    @classmethod
    def read(cls, path: str | Path) -> "KeyLog":
        return cls.from_text(Path(path).read_text(encoding="ascii"))
